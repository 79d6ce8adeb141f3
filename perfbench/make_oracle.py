"""Record perfbench/oracle.json: the outputs later code must reproduce.

    PYTHONPATH=src python3 perfbench/make_oracle.py

Run from the root of a checkout, on the commit whose outputs are the
reference.  It records the sha256 of the stdout of every CLI command the
workloads run (each in its own process, as a user would run it), and the
per-ideal digest of (system, mask, word, edge types) for every E6 and E7
ideal and for the E8 ideals that `ad-minimal` draws with seeds
0..ORACLE_SEEDS-1.  A library operation whose ideal is in the table fails
when its digest differs; ideals outside it are checked only by the
library's own checks and, on `edge-routes`, by the agreement of the four
routes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ORACLE_SEEDS = 64


def cli_digests() -> dict[str, str]:
    out = {}
    for spec in workloads.WORKLOADS.values():
        for argv in getattr(spec, "commands", ()):
            proc = subprocess.run(
                [sys.executable, "-m", "rootposets.cli", *argv], capture_output=True, check=True
            )
            out[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    return out


def ideal_digests() -> dict[str, str]:
    from rootposets import ideals
    from rootposets.rootsystem import root_system

    batch = list(ideals.enumerate_upper_ideals(root_system("E6")))
    batch += ideals.enumerate_upper_ideals(root_system("E7"))
    for seed in range(ORACLE_SEEDS):
        batch += [i for i in workloads.draw_ideals("ad-minimal", seed) if str(i.rs.id) == "E8"]
    out = {}
    for ideal in batch:
        key = workloads.ideal_key(ideal)
        if key not in out:
            me = ideals.minimal_element(ideal)
            out[key] = workloads.ideal_digest(ideal, me.word, ideals.generator_edge_types(me))
    return out


def main() -> None:
    oracle = {"cli": cli_digests(), "ideals": ideal_digests()}
    with open(os.path.join(HERE, "oracle.json"), "w", encoding="utf-8") as fh:
        json.dump(oracle, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
