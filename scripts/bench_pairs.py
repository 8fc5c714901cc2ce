"""Benchmark this checkout against a parent commit in alternating pairs and
write BENCH_<label>.json.

    python3 scripts/bench_pairs.py --parent HEAD~1 --label exact_counts \\
        --pairs exact=10,compile=3 --seconds 30 --first-seed 91

The parent's committed files are copied out of git (``git archive``) into
a temporary directory, removed at the end.  The change is this checkout's
working tree.  For each workload W and pair i, seed S = first seed + i,
both sides run

    python3 plabench/run.py --workload W --seed S --seconds T --trace 0

one after the other, the parent first in even pairs and the change first
in odd ones, so a drift of the host's speed does not favour one side.
The JSON file holds the machine, the revisions, the seeds, every run's
``correct``, ``attempted``, ``failed`` and end-to-end metrics, and per
workload and side the median and quartiles of each end-to-end metric that
``BENCHMARK.json`` names, with the number of pairs the change won.
Standard library only; the benchmark itself is not changed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_run(stdout: str) -> dict:
    """The result of one ``plabench/run.py`` run: its last line, a JSON
    object with ``correct``, ``attempted``, ``failed`` and ``metrics``,
    each metric flattened to its value."""
    result = json.loads(stdout.strip().splitlines()[-1])
    result["metrics"] = {name: m["value"] for name, m in result["metrics"].items()}
    return result


def _spread(values: list[float]) -> dict:
    """Median and quartiles; the quartiles are those of
    ``statistics.quantiles(method="inclusive")``, the median itself for a
    single value."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric of ``BENCHMARK.json`` (name, unit, better),
    each side's median and quartiles over ``pairs``, each a dict of the
    parsed ``parent`` and ``change`` runs; the pairs the change won, ties
    counting for neither side; and whether the medians differ by more than
    the parent's quartile spread.  Failed or incorrect runs count in
    ``failed_runs`` and are not left out of the metrics."""
    summary = {"pairs": len(pairs),
               "failed_runs": {side: sum(not p[side]["correct"] or p[side]["failed"] > 0
                                         for p in pairs)
                               for side in ("parent", "change")}}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in ("parent", "change")}
        parent, change = _spread(values["parent"]), _spread(values["change"])
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": parent,
            "change": change,
            "change_won": sum(sign * (c - p) > 0
                              for p, c in zip(values["parent"], values["change"])),
            "gap_exceeds_parent_iqr":
                abs(change["median"] - parent["median"]) > parent["q3"] - parent["q1"],
        }
    return summary


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "plabench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit("%s in %s exited %d:\n%s"
                         % (" ".join(argv[1:]), checkout, done.returncode, done.stderr))
    return parse_run(done.stdout)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export(rev: str, into: Path) -> None:
    """The committed files of ``rev`` under ``into``."""
    archive = subprocess.Popen(["git", "archive", rev], cwd=ROOT, stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout, check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit("git archive %s failed" % rev)


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--parent", required=True, help="the revision to measure against")
    cli.add_argument("--label", required=True, help="the output is BENCH_<label>.json")
    cli.add_argument("--pairs", required=True,
                     help="comma-separated workload=pairs, e.g. exact=10,compile=3")
    cli.add_argument("--seconds", type=float, default=30.0)
    cli.add_argument("--first-seed", type=int, default=1)
    args = cli.parse_args(argv)
    plan = [(w, int(k)) for w, _, k in (item.partition("=") for item in args.pairs.split(","))]
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    report = {
        "label": args.label,
        "machine": {"platform": platform.platform(), "python": platform.python_version(),
                    "cpu_count": os.cpu_count()},
        "parent": _git("rev-parse", args.parent),
        "change": {"head": _git("rev-parse", "HEAD"),
                   "uncommitted_changes": bool(_git("status", "--porcelain"))},
        "command": "python3 plabench/run.py --workload W --seed S --seconds %r --trace 0"
                   % args.seconds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        parent = Path(tmp)
        _export(args.parent, parent)
        for workload, count in plan:
            pairs = []
            for i in range(count):
                seed = args.first_seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = _run(parent if side == "parent" else ROOT, workload, seed,
                                      args.seconds)
                print("%s seed %d: parent %s, change %s" % (
                    workload, seed, pair["parent"]["metrics"], pair["change"]["metrics"]),
                    file=sys.stderr)
                pairs.append(pair)
            report["workloads"][workload] = {"seeds": [p["seed"] for p in pairs],
                                             "runs": pairs,
                                             "summary": summarize(pairs, end_to_end)}
    out = ROOT / ("BENCH_%s.json" % args.label)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print("wrote %s" % out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
