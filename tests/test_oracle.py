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
import os
import subprocess
import sys
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


# Runs in a fresh interpreter: `tracing.install` rebinds package functions for
# good, which must not leak into the other tests.
TRACED_OPS = """
import importlib.util, json, sys, time
from pathlib import Path

def load(name):
    path = Path(sys.argv[1]) / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

tracing, workloads = load("tracing"), load("workloads")
tracer = tracing.Tracer(time.perf_counter)
tracing.install(tracer)

from rootposets import ideals
from rootposets.rootsystem import root_system

results = []
for op, systems in ((workloads.edge_routes_op, ("E6",)), (workloads.ad_minimal_op, ("E6", "E7"))):
    for sid in systems:
        batch = ideals.enumerate_upper_ideals(root_system(sid))
        for i in range(12):
            ideal = batch[i * (len(batch) - 1) // 11]
            try:
                got = op(ideal)
            except Exception as exc:
                got = f"{type(exc).__name__}: {exc}"
            results.append((op.__name__, workloads.ideal_key(ideal), got))
print(json.dumps({"results": results, "counts": tracer.counts}))
"""


def test_traced_ops_match_oracle():
    """The library ops of the benchmark give the oracle's digests under its tracer.

    The tracer's counters read `args[0]` of `peel` and `minimal_element`,
    `args[1]` of `from_word` and `len()` of the rows; a call shape they cannot
    read makes a traced run fail while an untraced one passes.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_OPS, str(PERFBENCH)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert len(report["results"]) == 36
    for op, key, got in report["results"]:
        assert got == ORACLE["ideals"][key], f"{op} {key}: {got}"
    assert report["counts"]["ideals.minimal_element_calls"] == 36
    assert report["counts"]["kernels.peel_calls"] > 0 and report["counts"]["ideals.rows"] > 0
