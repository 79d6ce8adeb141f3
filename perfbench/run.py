"""Pipeline benchmark for rootposets.

    python3 perfbench/run.py --workload ad-minimal --seed 1 --seconds 35 --trace 0

Run from the root of a checkout.  run.py starts one child process at a
time (perfbench/child.py), each from a fresh interpreter, so no lru_cache of
the package outlives one timed section.  A round is one child per operation
group: one for a library workload, one per command for a CLI workload.
Rounds repeat while another round as long as the last one still ends within
--seconds (at least one round).

--trace 0 reports the end-to-end metrics:
  setup_s      median time from spawning a child until its timed section
               begins (interpreter, import, systems, ideal enumeration), at
               the reference machine speed, over at least MIN_SETUPS set-ups
  ref_wall_s   timed section at the reference machine speed: each child's
               operation times scaled by its speed factor (speed.py), then
               each operation's median over rounds, summed over operations
  ops_per_s    operations per second of ref_wall_s; an operation is one
               ideal (library workloads, where this is ideals per second) or
               one command (CLI workloads)
  peak_rss_mb  median over rounds of the largest child's peak RSS
  ok_frac      1 - failed/attempted; an operation fails if it raises, exits
               non-zero, fails its check, or its digest differs from
               perfbench/oracle.json
The raw setup_s and wall_s (the same medians without scaling) and the median
speed factor are printed and recorded too, but are not in the --trace 0
result line: on a shared machine raw times of identical runs differ by more
than any bound an end-to-end metric may have.
--trace 1 alternates untraced and traced rounds and reports the per-layer
metrics of perfbench/tracing.py (medians over traced rounds),
trace.overhead_frac, and from the untraced rounds speed.raw_wall_s (wall
time without scaling) and speed.factor (median speed factor).  It also
checks that tracing changes nothing: each traced child must give the
untraced child's digest, and the self times of its spans must cover its
timed section up to the tracing overhead.

The last stdout line is the JSON result; the full record, with the
environment, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ".bench_out"
# A run must end within 180 s: children still running after this are killed
# and the run fails without a result.
RUN_BUDGET_S = 170
# setup_s is a median over at least this many set-ups per run.
MIN_SETUPS = 9
# Share of the traced wall time that may be neither inside a layer span nor
# explained by the measured tracing overhead (the benchmark's own loop).
UNATTRIBUTED_SLACK = 0.02


class ChildError(RuntimeError):
    """A child process died or printed no report."""


def source_digest(root: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "rootposets")
    for dirpath, dirnames, filenames in sorted(os.walk(pkg)):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def machine_record(root: str) -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        rev = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"],
            capture_output=True, text=True, env=env, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"git_rev": rev, "src_sha256": source_digest(root), "nproc": os.cpu_count(), "cpu": cpu}


def run_child(root: str, request: dict, kill_at: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.join(root, "src"), env.get("PYTHONPATH")]))
    # numpy starts an OpenBLAS thread pool on import that the library never
    # uses (its only matrix product is on int64, which bypasses BLAS); on two
    # cores the pool's start-up added ~75 ms and most of the noise to set-up.
    env["OPENBLAS_NUM_THREADS"] = "1"
    spawn = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), json.dumps(request)],
        stdout=subprocess.PIPE, cwd=root, env=env,
    )
    try:
        out, _ = proc.communicate(timeout=max(kill_at - spawn, 0.1))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise ChildError(f"child {request} killed: the run exceeded {RUN_BUDGET_S} s") from None
    lines = out.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError(f"child {request} exited with {proc.returncode}")
    report = json.loads(lines[-1])
    report["raw_setup_s"] = report["ready"] - spawn
    report["setup_s"] = (report["raw_setup_s"] - report["setup_spent"]) * report["setup_factor"]
    return report


def run_rounds(root: str, args) -> tuple[list[dict], list[dict]]:
    """Rounds of children until the deadline, then set-up-only children.

    Traced and untraced rounds alternate under --trace 1.  Without it,
    children that stop after set-up top the run up to MIN_SETUPS set-ups.
    """
    n = workloads.children_per_round(args.workload)
    deadline = time.monotonic() + args.seconds
    kill_at = time.monotonic() + RUN_BUDGET_S
    rounds: list[dict] = []
    last = 0.0
    # start a round only if one as long as the last still ends by the deadline
    while not rounds or time.monotonic() + last <= deadline:
        began = time.monotonic()
        modes = (False, True) if len(rounds) % 2 == 0 else (True, False)
        rnd = {}
        for traced in modes if args.trace else (False,):
            rnd[traced] = [
                run_child(root, request(args, i, traced), kill_at) for i in range(n)
            ]
        rounds.append(rnd)
        last = time.monotonic() - began
    setups = [] if args.trace else [
        run_child(root, request(args, i % n, False, setup_only=True), kill_at)
        for i in range(MIN_SETUPS - n * len(rounds))
    ]
    return rounds, setups


def request(args, command: int, traced: bool, setup_only: bool = False) -> dict:
    spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-cmd{command}.spans.json")
    return {"workload": args.workload, "seed": args.seed, "command": command, "trace": traced,
            "setup_only": setup_only, "spans": spans}


def median_wall(rounds: list[list[dict]], at_reference: bool = False) -> float:
    """Sum over operations of each operation's median wall time over rounds.

    A per-operation median keeps a slow stretch in one child from moving the
    result.  With at_reference, each child's times are first scaled by its
    speed factor (speed.py) to the reference machine speed.
    """
    per_round = [
        [t * (child["speed_factor"] if at_reference else 1.0) for child in rnd for t in child["op_walls"]]
        for rnd in rounds
    ]
    return sum(statistics.median(times) for times in zip(*per_round))


def median_factor(rounds: list[list[dict]]) -> float:
    return statistics.median(child["speed_factor"] for rnd in rounds for child in rnd)


def end_to_end(rounds: list[dict], setups: list[dict]) -> dict:
    plain = [r[False] for r in rounds]
    children = [c for rnd in plain for c in rnd]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    wall = median_wall(plain, at_reference=True)
    return {
        "setup_s": (statistics.median(c["setup_s"] for c in children + setups), "s"),
        "ref_wall_s": (wall, "s"),
        "ops_per_s": (attempted / len(plain) / wall, "1/s"),
        "peak_rss_mb": (statistics.median(max(c["rss_mb"] for c in rnd) for rnd in plain), "MB"),
        "ok_frac": (1 - failed / attempted, "frac"),
    }


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer medians over traced rounds, and the tracing self-test errors."""
    errors = []
    traced_rounds = [r[True] for r in rounds]
    for rnd in rounds:
        for plain, traced in zip(rnd[False], rnd[True]):
            if plain["digest"] != traced["digest"]:
                errors.append(f"traced digest {traced['digest']} != untraced {plain['digest']}")
            overhead = max(traced["wall"] - plain["wall"], 0.0)
            if traced["unattributed_s"] > overhead + UNATTRIBUTED_SLACK * traced["wall"]:
                errors.append(
                    f"layer self times leave {traced['unattributed_s']:.4f} s of a "
                    f"{traced['wall']:.4f} s traced section unattributed (overhead {overhead:.4f} s)"
                )
    sums = [
        {name: sum(c["layers"][name] for c in rnd) for name in rnd[0]["layers"]}
        for rnd in traced_rounds
    ]
    units = dict(tracing.layer_metric_names())
    metrics = {name: (statistics.median(s[name] for s in sums), units[name]) for name in sums[0]}
    calls = metrics["ideals.minimal_element_calls"][0]
    distinct = metrics["ideals.minimal_element_distinct"][0]
    metrics["ideals.minimal_element_useful_frac"] = (distinct / calls if calls else 0.0, "frac")
    plain = [r[False] for r in rounds]
    untraced = median_wall(plain, at_reference=True)
    traced = median_wall(traced_rounds, at_reference=True)
    metrics["trace.overhead_frac"] = ((traced - untraced) / untraced, "frac")
    metrics["speed.raw_wall_s"] = (median_wall(plain), "s")
    metrics["speed.factor"] = (median_factor(plain), "ratio")
    return metrics, errors


def absent_functions(rounds: list[dict]) -> dict[str, str]:
    """Every traced function that some traced child found missing, with the reason."""
    return {
        name: reason
        for rnd in rounds
        for child in rnd.get(True, ())
        for name, reason in child["absent"].items()
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rootposets", "__init__.py")):
        print("error: run from the root of a rootposets checkout (src/rootposets is missing)", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=2)
    os.makedirs(OUT_DIR, exist_ok=True)

    try:
        rounds, setups = run_rounds(root, args)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    children = [c for rnd in rounds for group in rnd.values() for c in group]
    errors = [e for c in children for e in c["errors"]]
    if args.trace:
        metrics, trace_errors = per_layer(rounds)
        errors += trace_errors
        raw = {}
    else:
        metrics = end_to_end(rounds, setups)
        plain = [r[False] for r in rounds]
        raw = {
            "setup_s": statistics.median(c["raw_setup_s"] for c in [*children, *setups]),
            "wall_s": median_wall(plain),
            "speed_factor": median_factor(plain),
        }
    absent = absent_functions(rounds)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "env": {**machine_record(root), **children[0]["env"]},
        "rounds": len(rounds), "metrics": metrics, "raw": raw, "absent": absent, "errors": errors,
    }
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print("env " + json.dumps(record["env"], sort_keys=True))
    for name, reason in absent.items():
        print(f"absent {name}: {reason}")
    for error in errors:
        print(f"FAILED {error}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, value in raw.items():
        print(f"{name} = {value:.6g} (raw, not in the result)")
    result = {
        "correct": not errors,
        "attempted": sum(c["attempted"] for c in children),
        "failed": sum(c["failed"] for c in children),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
