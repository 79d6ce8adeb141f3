"""Check that the benchmark is steady, and optionally record a baseline.

    python3 perfbench/prove.py --seeds 10 --out perfbench/baseline.json

Run from the root of a checkout.  It runs `run.py --trace 0` once per seed
(1..N) and workload with BENCHMARK.json's run_seconds, the workloads taking
turns within each seed so that a slow stretch of the machine falls on all of
them alike.  For every end-to-end metric it reports the median and the
spread: the distance between the first and third quartiles
(statistics.quantiles, n=4) as a share of the median.  A spread above a
third of the metric's bound is marked; `setup_s` is exempt, as its bound
limits only how far the median may move.  It reports the same for the raw
wall time, and for each workload the median of its speed factor (speed.py)
over the mean factor of the seed's runs: the factor must not depend on the
workload.  With --out it then makes one traced run per workload (seed 1)
and writes the medians, spreads, speed factors, per-layer metrics and
environment to the file.  Exits 1 if any run is incorrect or any spread
exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """The result line and the full record of one run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=True,
    )
    with open(os.path.join(".bench_out", f"{workload}-seed{seed}-trace{trace}.json"), encoding="utf-8") as fh:
        record = json.load(fh)
    return json.loads(proc.stdout.strip().splitlines()[-1]), record


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def relative_factors(factors: dict[str, list[float]]) -> dict[str, dict]:
    """Each workload's speed factor over the mean factor of all workloads at
    the same seed.  The runs of one seed follow each other, so this cancels
    most of the machine's drift; a median far from 1 would mean the factor
    depends on the code under test."""
    means = [statistics.mean(seed) for seed in zip(*factors.values())]
    return {name: summary([f / m for f, m in zip(values, means)]) for name, values in factors.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out")
    args = parser.parse_args()
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    runs: dict[str, list[tuple[dict, dict]]] = {name: [] for name in names}
    for seed in range(1, args.seeds + 1):
        for name in names:
            runs[name].append(run(name, seed, bench["run_seconds"], 0))
    ok = True
    baseline = {"seeds": args.seeds, "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        results = [result for result, _ in runs[name]]
        ok &= all(r["correct"] for r in results)
        stats = {}
        for metric in bench["end_to_end"]:
            stats[metric["name"]] = s = summary([r["metrics"][metric["name"]]["value"] for r in results])
            limit = metric["bound"] / 3
            steady = metric["name"] == "setup_s" or s["spread"] <= limit
            ok &= metric["name"] == "setup_s" or s["spread"] <= metric["bound"]
            print(f"{name:15s} {metric['name']:12s} median {s['median']:10.5g} {metric['unit']:5s} "
                  f"spread {s['spread']:.4f} (bound/3 {limit:.4f}){'' if steady else '  WIDE'}", flush=True)
        raw = {key: summary([record["raw"][key] for _, record in runs[name]])
               for key in ("wall_s", "speed_factor")}
        print(f"{name:15s} {'raw wall_s':12s} median {raw['wall_s']['median']:10.5g} s     "
              f"spread {raw['wall_s']['spread']:.4f} (unscaled, not in the result)")
        baseline["workloads"][name] = {"end_to_end": stats, "raw": raw}
    baseline["relative_speed_factor"] = relative_factors(
        {name: baseline["workloads"][name]["raw"]["speed_factor"]["values"] for name in names}
    )
    for name, s in baseline["relative_speed_factor"].items():
        print(f"{name:15s} speed factor over the seed's mean: median {s['median']:.4f}  "
              f"q1 {s['q1']:.4f}  q3 {s['q3']:.4f}")
    if args.out:
        for name in names:
            traced, record = run(name, 1, bench["run_seconds"], 1)
            ok &= traced["correct"]
            baseline["workloads"][name]["per_layer_seed1"] = {
                k: v["value"] for k, v in traced["metrics"].items()
            }
            baseline["env"] = record["env"]
            baseline["workloads"][name]["absent"] = record["absent"]
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
