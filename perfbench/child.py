"""One measured child process: set up, run the timed section once, report.

Started by run.py, never directly.  argv[1] is a JSON object with the keys
workload, seed, command (index into a CLI workload's commands), trace,
setup_only (stop when the timed section would begin) and spans (where a
traced child writes its spans).  The last stdout line is a JSON object:
ready (CLOCK_MONOTONIC time at which the timed section began), setup_spent
and setup_factor (the speed probe's time and factor during set-up), then,
unless setup_only, wall and op_walls (wall time of the timed section and of
each operation, without the speed probe's own time), speed_factor,
rss_mb (peak RSS from the child's own rusage, read before the oracle is
loaded), attempted, failed, errors, digest, env, and for a traced child
layers, absent and unattributed_s.

Every child starts from a fresh interpreter, so the package's lru_caches
start empty in each timed section.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def environment() -> dict:
    import numpy

    from rootposets import _kernels

    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    backend = getattr(_kernels, "kernel_backend", None)
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_importable": numba_ok,
        "kernel_backend": backend() if backend else "absent",
    }


def load_oracle() -> dict:
    with open(os.path.join(HERE, "oracle.json"), encoding="utf-8") as fh:
        return json.load(fh)


def run_library(name: str, seed: int, clock):
    sample = workloads.draw_ideals(name, seed)
    op = workloads.WORKLOADS[name].op

    def timed():
        results, walls = [], []
        for ideal in sample:
            start = clock()
            try:
                results.append(op(ideal))
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                results.append(exc)
            walls.append(clock() - start)
        return results, walls

    def check(results) -> tuple[list[str], list[str]]:
        """One error line per failed operation, and one digest per operation."""
        table = load_oracle()["ideals"]
        errors, digests = [], []
        for ideal, got in zip(sample, results):
            key = workloads.ideal_key(ideal)
            if isinstance(got, Exception):
                errors.append(f"{key}: {type(got).__name__}: {got}")
                got = "error"
            elif table.get(key, got) != got:
                errors.append(f"{key}: digest {got} differs from the oracle {table[key]}")
            digests.append(got)
        return errors, digests

    return timed, check


def run_cli(name: str, index: int, clock):
    from rootposets import cli

    argv = list(workloads.WORKLOADS[name].commands[index])

    def timed():
        out = io.StringIO()
        start = clock()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
                code = f"{type(exc).__name__}: {exc}"
        wall = clock() - start
        return [(code, hashlib.sha256(out.getvalue().encode()).hexdigest())], [wall]

    def check(results) -> tuple[list[str], list[str]]:
        ((code, digest),) = results
        command = " ".join(argv)
        want = load_oracle()["cli"].get(command)
        if code != 0:
            return [f"{command}: exit {code}"], [digest]
        if want != digest:
            return [f"{command}: stdout sha256 {digest} differs from the oracle {want}"], [digest]
        return [], [digest]

    return timed, check


def main() -> int:
    args = json.loads(sys.argv[1])
    probe = speed.SpeedProbe()

    def clock() -> float:
        """perf_counter without the time spent in the speed probe."""
        return time.perf_counter() - probe.spent

    with probe:
        import rootposets

        src = os.path.join(os.getcwd(), "src")
        if not os.path.abspath(rootposets.__file__).startswith(src + os.sep):
            print(f"rootposets imported from {rootposets.__file__}, not from {src}", file=sys.stderr)
            return 3

        tracer = None
        if args["trace"]:
            import tracing

            tracer = tracing.Tracer(clock)
            tracing.install(tracer)

        name = args["workload"]
        if isinstance(workloads.WORKLOADS[name], workloads.Library):
            timed, check = run_library(name, args["seed"], clock)
        else:
            timed, check = run_cli(name, args["command"], clock)

        root = tracer.open("bench.timed") if tracer else None
        setup = {"ready": time.monotonic(), "setup_spent": probe.spent, "setup_factor": probe.take_factor()}
        if args["setup_only"]:
            print(json.dumps(setup))
            return 0
        probe.sample_every(speed.INTERVAL_S)
        start = clock()
        results, op_walls = timed()
        wall = clock() - start
        speed_factor = probe.take_factor()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.close(root)

    errors, digests = check(results)
    report = {
        **setup,
        "wall": wall,
        "op_walls": op_walls,
        "speed_factor": speed_factor,
        "rss_mb": rss_mb,
        "attempted": len(results),
        "failed": len(errors),
        "errors": errors,
        "digest": hashlib.sha256("\n".join(digests).encode()).hexdigest(),
        "env": environment(),
    }
    if tracer:
        report["layers"] = tracer.layer_metrics()
        report["absent"] = tracer.absent
        report["unattributed_s"] = tracer.self_times(within=root).get("bench.timed", 0.0)
        tracer.dump(args["spans"])
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
