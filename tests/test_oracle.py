"""The benchmark's output oracle, checked in tier-1.

`perfbench/oracle.json` pins the stdout sha256 of every CLI command the
benchmark runs and the per-ideal digest of (system, mask, word, edge types).
A change that alters either output fails the benchmark as incorrect; these
tests fail on it first.  `perfbench/workloads.py` is loaded read-only, so
the digests are computed exactly as the benchmark computes them.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from rootposets import ideals
from rootposets.cli import main
from rootposets.rootsystem import root_system

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ORACLE = json.loads((PERFBENCH / "oracle.json").read_text())


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("command", sorted(ORACLE["cli"]))
def test_cli_stdout_matches_oracle(capsys, command):
    code = main(command.split())
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE["cli"][command]


def test_e6_ideal_digests_match_oracle():
    workloads = load_workloads()
    all_ideals = ideals.enumerate_upper_ideals(root_system("E6"))
    assert len(all_ideals) == 833
    for ideal in all_ideals:
        me = ideals.minimal_element(ideal)
        got = workloads.ideal_digest(ideal, me.word, ideals.generator_edge_types(me))
        assert got == ORACLE["ideals"][workloads.ideal_key(ideal)], workloads.ideal_key(ideal)
