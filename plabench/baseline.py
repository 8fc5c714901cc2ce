"""Run the benchmark over several seeds and summarise it.

    python3 plabench/baseline.py --seeds 1-10 --out plabench/baseline.json

Runs ``run.py`` once per workload and seed, one run at a time, then one
traced run per workload with the first seed.  For each end-to-end metric it
reports the median over seeds and the spread: the distance between the
first and third quartiles (``statistics.quantiles(values, n=4)``) as a share
of the median, next to the metric's bound from BENCHMARK.json.  With
``--out`` it writes every run's result and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit("%s failed (%d):\n%s" % (" ".join(cmd), proc.returncode, proc.stderr))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,7")
    cli.add_argument("--out", help="write the results to this JSON file")
    args = cli.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    names = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results = {}
    for name in names:
        runs = [run(spec, name, seed, seconds, 0) for seed in seeds]
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = {"median": statistics.median(values), "bound": bound}
            if len(values) >= 2:
                summary[metric]["spread"] = spread(values)
            print("%-13s %-12s median %-12.6g spread %-8.4f bound %.2f" % (
                name, metric, summary[metric]["median"],
                summary[metric].get("spread", float("nan")), bound), flush=True)
        results[name] = {
            "runs": [dict(r, seed=seed) for r, seed in zip(runs, seeds)],
            "summary": summary,
            "correct": all(r["correct"] for r in runs),
        }
        traced = run(spec, name, seeds[0], seconds, 1)
        results[name]["traced"] = dict(traced, seed=seeds[0])
        print("%-13s trace.overhead_ratio %.3f" % (
            name, traced["metrics"]["trace.overhead_ratio"]["value"]), flush=True)

    if args.out:
        doc = {
            "machine": {
                "nproc": len(os.sched_getaffinity(0)),
                "python": platform.python_version(),
                "platform": platform.platform(),
            },
            "run_seconds": seconds,
            "seeds": seeds,
            "note": "attempted counts the untimed warm-up iteration; wall_s, "
                    "setup_s and items_per_s come from the medians over the other "
                    "attempted - 1 iterations, scaled to the reference speed "
                    "of calibration.py",
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    ok = all(r["correct"] and r["traced"]["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
