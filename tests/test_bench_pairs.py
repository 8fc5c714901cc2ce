"""The summary of ``scripts/bench_pairs.py``, on canned ``plabench/run.py``
output; no benchmark is run."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_output(wall, items, rss=20.0, failed=0):
    """What ``plabench/run.py --trace 0`` prints: metric lines, then one
    JSON line."""
    metrics = {"wall_s": (wall, "s"), "setup_s": (0.0003, "s"), "items_per_s": (items, "1/s"),
               "peak_rss_mb": (rss, "MB")}
    lines = ["timed iterations 100: scaled wall median %r s" % wall]
    lines += ["%s %r %s" % (name, value, unit) for name, (value, unit) in metrics.items()]
    lines.append(json.dumps({"correct": failed == 0, "attempted": 101, "failed": failed,
                             "metrics": {name: {"value": value, "unit": unit}
                                         for name, (value, unit) in metrics.items()}}))
    return "\n".join(lines) + "\n"


def pair(parent, change):
    return {"parent": bench_pairs.parse_run(parent), "change": bench_pairs.parse_run(change)}


def test_parse_run_reads_the_last_line():
    result = bench_pairs.parse_run(run_output(0.0012, 4.5e6, failed=2))
    assert result["correct"] is False and result["failed"] == 2 and result["attempted"] == 101
    assert result["metrics"] == {"wall_s": 0.0012, "setup_s": 0.0003, "items_per_s": 4.5e6,
                                 "peak_rss_mb": 20.0}


def test_summary_counts_wins_by_each_metrics_direction():
    pairs = [pair(run_output(1.2e-3, 4.0e6), run_output(0.8e-3, 6.0e6)),
             pair(run_output(1.3e-3, 4.2e6), run_output(0.9e-3, 6.1e6, rss=21.0)),
             pair(run_output(1.0e-3, 4.4e6), run_output(1.1e-3, 4.4e6, failed=1)),
             pair(run_output(1.1e-3, 4.6e6), run_output(0.7e-3, 6.2e6))]
    summary = bench_pairs.summarize(pairs, END_TO_END)
    assert summary["pairs"] == 4
    assert summary["failed_runs"] == {"parent": 0, "change": 1}
    wall, items, rss = summary["wall_s"], summary["items_per_s"], summary["peak_rss_mb"]
    assert (wall["better"], wall["unit"], wall["change_won"]) == ("lower", "s", 3)
    # the third pair is a tie, which counts for neither side
    assert (items["better"], items["change_won"]) == ("higher", 3)
    assert rss["change_won"] == 0 and summary["setup_s"]["change_won"] == 0
    # inclusive quartiles of 1.0, 1.1, 1.2, 1.3 (ms)
    assert wall["parent"] == pytest.approx({"median": 1.15e-3, "q1": 1.075e-3, "q3": 1.225e-3})
    assert wall["change"]["median"] == pytest.approx(0.85e-3)
    assert wall["gap_exceeds_parent_iqr"] and items["gap_exceeds_parent_iqr"]
    assert not rss["gap_exceeds_parent_iqr"]


def test_one_pair_has_no_spread():
    summary = bench_pairs.summarize([pair(run_output(1.0e-3, 4e6), run_output(1.0e-3, 4e6))],
                                    END_TO_END)
    assert summary["wall_s"]["parent"] == {"median": 1.0e-3, "q1": 1.0e-3, "q3": 1.0e-3}
    assert summary["wall_s"]["change_won"] == 0
    assert not summary["wall_s"]["gap_exceeds_parent_iqr"]
