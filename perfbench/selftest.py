"""Self-test of the benchmark: tracing changes nothing, and misses nothing.

    python3 perfbench/selftest.py

Run from the root of a checkout.  First, without running a workload, it
checks that a traced function missing from the package is reported as
absent, not raised, and that run.py names it whichever child of a traced run
ends last (traced and untraced rounds alternate, so from the second round on
an untraced child, which reports no absent functions, comes last).  Then for
each workload it makes one traced run of a single round.  run.py checks that
the traced child and the untraced child of the same command give identical
digests, and that the self times of the traced spans cover the timed section
up to the measured tracing overhead; any failure makes the run incorrect.
This script also fails when a traced function is absent.  About 90 s.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from unittest import mock

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def absence_problems() -> list[str]:
    """Problems in how a missing traced function is reported."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    tracer = tracing.Tracer(time.perf_counter)
    gone = {"kernels.gone": ("rootposets._kernels", ("peel_that_does_not_exist",))}
    with mock.patch.dict(tracing.TARGETS, gone):
        tracing.install(tracer)
    if set(tracer.absent) != {"kernels.gone"}:
        return [f"install reported absent {sorted(tracer.absent)}, want ['kernels.gone']"]
    # two rounds as run.py makes them: (untraced, traced), then (traced, untraced)
    rounds = [
        {False: [{}], True: [{"absent": tracer.absent}]},
        {True: [{"absent": tracer.absent}], False: [{}]},
    ]
    if run.absent_functions(rounds) != tracer.absent:
        return [f"run.absent_functions lost {sorted(tracer.absent)} when an untraced child ends last"]
    return []


def main() -> int:
    problems = absence_problems()
    for line in problems:
        print(f"FAIL absent  {line}")
    failures = len(problems)
    if not problems:
        print("ok   absent functions are reported")
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name, "--seed", "1",
             "--seconds", "0", "--trace", "1"],
            capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        problems = [line for line in lines if line.startswith(("FAILED", "absent"))]
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"] or problems:
            failures += 1
            print(f"FAIL {name}")
            for line in problems or [proc.stderr.strip()]:
                print(f"  {line}")
        else:
            overhead = json.loads(lines[-1])["metrics"]["trace.overhead_frac"]["value"]
            print(f"ok   {name}  (tracing overhead {overhead:+.3f})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
