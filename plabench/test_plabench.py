"""Self-tests of the benchmark harness.

    python3 -m pytest plabench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from pla import cli, logic  # noqa: E402

SMOKE = [cls(smoke=True) for cls in workloads.WORKLOADS.values()]
IDS = [w.name for w in SMOKE]


def _case(workload, tmp_path, seed=7, iteration=0):
    case = workload.case(seed, iteration, str(tmp_path / "net.json"))
    workload.write_inputs(case)
    return case


def _output(workload, case):
    text, result = workload.main(workload.setup(case))
    return text, result


def test_self_times_on_synthetic_tree():
    # run 1: a root with a nested child, an overlapping sibling and a child
    # that outlives it; run 2: a root with no children
    start = [0, 10, 12, 25, 90, 200]
    end = [100, 30, 20, 50, 120, 210]
    parent = [-1, 0, 1, 0, 0, -1]
    # root 0: children cover [10, 50] and, clipped, [90, 100]
    assert tracing.self_times(start, end, parent) == [50, 12, 8, 25, 30, 10]


def test_binomial_tail_matches_direct_sum():
    from math import comb

    trials, p = 20, 0.3
    pmf = [comb(trials, k) * p ** k * (1 - p) ** (trials - k) for k in range(trials + 1)]
    for hits in (0, 3, 6, 15, 20):
        expected = min(sum(pmf[: hits + 1]), sum(pmf[hits:]))
        assert workloads.binomial_tail(hits, trials, p) == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("workload", SMOKE, ids=IDS)
def test_smoke_workload_passes_its_checks(workload, tmp_path):
    case = _case(workload, tmp_path)
    began = time.perf_counter()
    it = run.run_iteration(workload, case)
    assert it["problems"] == []
    assert time.perf_counter() - began < 30


def _run_results(workload, tmp_path, iterations=10):
    """The results of a run's iterations, each of which passed its check."""
    results = []
    for i in range(iterations):
        it = run.run_iteration(workload, _case(workload, tmp_path, iteration=i))
        assert it["problems"] == []
        results.append(it["result"])
    return results


def test_mc_aggregate_run_check_catches_wrong_evaluate(tmp_path, monkeypatch):
    workload = workloads.MCAggregate()  # the benchmark's size: 2 samples each
    assert workload.check_run(_run_results(workload, tmp_path)) == []
    original = workloads.compiler.evaluate

    def wrong(struct, formula, assignment, registry):
        if isinstance(formula, logic.Agg):
            return 0.0
        return original(struct, formula, assignment, registry)

    # the aggregation is evaluated wrongly on the Monte Carlo path only, so the
    # compiled constant stays right and every iteration passes its own check
    monkeypatch.setattr(workloads.compiler, "evaluate", wrong)
    problems = workload.check_run(_run_results(workload, tmp_path))
    assert len(problems) == 2
    assert "exceed epsilon" in problems[0] and "miss the constant" in problems[1]


def test_mc_sample_run_check_catches_a_biased_estimate():
    workload = workloads.MCSample()
    runs = 50
    assert workload.check_run([workloads.GRAPH_E] * runs) == []
    assert workload.check_run([workloads.GRAPH_E + 0.1] * runs) != []


def test_compile_check_catches_a_missing_side(tmp_path):
    workload = workloads.Compile(smoke=True)
    case = _case(workload, tmp_path)
    outputs = _output(workload, case)[1]
    assert workload.check(case, outputs) == []
    key = (case.names["P"], (0,))
    half = [SimpleNamespace(conjuncts=[(t, v) for t, v in bpf.conjuncts
                                       if dict(t.literals)[key]])
            for bpf in outputs]
    assert any("expected both" in p for p in workload.check(case, half))


@pytest.mark.parametrize("workload", SMOKE, ids=IDS)
def test_output_matches_cli(workload, tmp_path, monkeypatch):
    monkeypatch.delenv("PLA_WORLD_CAP", raising=False)
    case = _case(workload, tmp_path)
    text, _ = _output(workload, case)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        for argv in workload.argvs(case):
            assert cli.main(argv) == 0
    assert text == printed.getvalue()


@pytest.mark.parametrize("workload", SMOKE, ids=IDS)
def test_same_seed_gives_identical_output(workload, tmp_path):
    first = _output(workload, _case(workload, tmp_path))[0]
    second = _output(workload, _case(workload, tmp_path))[0]
    assert first == second


def test_traced_run_restores_every_binding(tmp_path):
    workload = workloads.MCAggregate(smoke=True)
    case = _case(workload, tmp_path)
    before = tracing.bindings()
    assert {b[0] for b in before} == {e[0] for e in tracing.ENTRY_POINTS}
    tracer = tracing.Tracer()
    with tracing.traced(tracer), tracer.root(0):
        for _, owner, attr, original in before:
            assert vars(owner)[attr] is not original
        workload.check(case, _output(workload, case)[1])
    for _, owner, attr, original in before:
        assert vars(owner)[attr] is original
    recorded = {tracer.names[i] for i in tracer.name}
    assert {"logic.evaluate", "network.sample", "aggregators.apply"} <= recorded
    # every bound tuple is counted as work of the evaluate call visiting it
    evaluate = tracer.name_id["logic.evaluate"]
    visited = sum(w for name, w in zip(tracer.name, tracer.work) if name == evaluate)
    assert visited == tracer.bound_tuples > 0


@pytest.mark.parametrize("workload", SMOKE, ids=IDS)
def test_traced_iteration_reports_every_layer_metric(workload, tmp_path):
    tracer = tracing.Tracer()
    it = run.run_iteration(workload, _case(workload, tmp_path), tracer)
    assert it["problems"] == []
    metrics = tracing.layer_metrics(tracer, 1, 1.0)
    assert list(metrics) == [m[0] for m in tracing.LAYER_METRICS]
    total_self = sum(v for name, (v, unit) in metrics.items() if name.endswith(".self_s"))
    assert total_self > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.LAYER_METRICS]
    e2e = run.end_to_end(workloads.Exact(), [{"wall": 1.0, "setup": 0.1, "main": 0.9, "scale": 1.0}])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]


def test_run_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "plabench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "plabench/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_end_to_end_reports_medians_at_the_reference_speed():
    iterations = [{"wall": wall, "setup": 0.1, "main": wall - 0.1, "scale": scale}
                  for wall, scale in ((1.0, 0.5), (2.0, 0.25), (9.0, 1.0))]
    e2e = run.end_to_end(workloads.Exact(), iterations)
    assert e2e["wall_s"][0] == pytest.approx(0.5)
    assert e2e["setup_s"][0] == pytest.approx(0.05)
    assert e2e["items_per_s"][0] == pytest.approx(4 ** 6 / 0.475)
