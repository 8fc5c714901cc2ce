"""Run one benchmark workload against the pla sources of this checkout.

    python3 plabench/run.py --workload mc-aggregate --seed 1 --seconds 30 --trace 0

Repeats the workload, one generated case per iteration, for about
``--seconds`` seconds and checks every output against its hand-derived
reference.  Times are scaled to the host's reference speed, measured by
the calibration loop between iterations (see ``calibration.py``).  Prints
each metric as ``name value unit`` and, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Inputs and span files go to ``.bench_work/``.  Exits with 2, printing no result, when the checkout has no ``src/pla``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import calibration
import tracing

ROOT = Path(__file__).resolve().parent.parent
TRACE_EVERY = 4  # with --trace 1, every fourth iteration is traced


def scaled(iterations, key: str) -> float:
    """The median over ``iterations`` of time ``key`` at the reference speed."""
    return statistics.median(it[key] * it["scale"] for it in iterations)


def end_to_end(workload, iterations) -> dict:
    """Medians of the timed iterations' times at the host's reference speed:
    this host's speed swings by up to 2x within seconds under other tenants'
    load, and the raw times of whole runs move with it."""
    return {
        "wall_s": (scaled(iterations, "wall"), "s"),
        "setup_s": (scaled(iterations, "setup"), "s"),
        "items_per_s": (workload.items / scaled(iterations, "main"), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def run_iteration(workload, case, tracer=None) -> dict:
    """Set up, run and check one case; times are in seconds."""
    workload.write_inputs(case)
    out = {"problems": [], "result": None}
    t0 = time.perf_counter()
    try:
        if tracer is None:
            state = workload.setup(case)
            t1 = time.perf_counter()
            _, out["result"] = workload.main(state)
        else:
            with tracing.traced(tracer), tracer.root(case.iteration):
                state = workload.setup(case)
                t1 = time.perf_counter()
                _, out["result"] = workload.main(state)
        t2 = time.perf_counter()
        out["problems"] = workload.check(case, out["result"])
    except Exception:  # a raised error counts as a failed iteration
        t1 = t2 = time.perf_counter()
        out["problems"] = ["raised:\n" + traceback.format_exc()]
    t3 = time.perf_counter()
    out.update(wall=t3 - t0, setup=t1 - t0, main=max(t2 - t1, 1e-9))
    return out


def measure(workload, seed: int, seconds: float, traced: bool, workdir: Path):
    """Run a warm-up iteration (checked, not timed), then timed iterations
    until the next one would end after ``seconds``; with ``traced``, every
    TRACE_EVERY-th of them is traced.  The calibration loop runs before the
    first timed iteration and after each; an iteration's ``scale`` is the
    reference time of the loop over the mean of the two runs around it.
    Returns the warm-up, the untraced and the traced iterations, and the
    tracer."""
    start = time.perf_counter()
    net_path = str(workdir / "net.json")
    warmup = run_iteration(workload, workload.case(seed, 0, net_path))
    calibration.measure()  # warm-up
    before = calibration.measure()
    tracer = tracing.Tracer() if traced else None
    done = {False: [], True: []}
    i = 1
    while True:
        kind = traced and i % TRACE_EVERY == 0
        case = workload.case(seed, i, net_path)
        it = run_iteration(workload, case, tracer if kind else None)
        after = calibration.measure()
        it.update(scale=calibration.REFERENCE_S / ((before + after) / 2), calibration=after)
        before = after
        done[kind].append(it)
        i += 1
        upcoming = done[traced and i % TRACE_EVERY == 0]
        if upcoming and (done[True] or not traced):
            estimate = statistics.median(u["wall"] + u["calibration"] for u in upcoming)
            if time.perf_counter() - start + estimate > seconds:
                break
    return warmup, done[False], done[True], tracer


def main(argv=None) -> int:
    cli = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    cli.add_argument("--workload", required=True)
    cli.add_argument("--seed", type=int, required=True)
    cli.add_argument("--seconds", type=float, required=True)
    cli.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = cli.parse_args(argv)
    src = ROOT / "src"  # pla is imported from this checkout only
    if not (src / "pla" / "__init__.py").is_file():
        print("error: no pla sources under %s" % src, file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import pla

    if Path(pla.__file__).resolve().parent != src / "pla":
        print("error: imported pla from %s, not %s" % (pla.__file__, src), file=sys.stderr)
        return 2
    import workloads  # imports pla

    if args.workload not in workloads.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]()
    workdir = ROOT / ".bench_work" / workload.name
    workdir.mkdir(parents=True, exist_ok=True)

    warmup, plain, with_trace, tracer = measure(
        workload, args.seed, args.seconds, bool(args.trace), workdir)
    iterations = [warmup] + plain + with_trace
    failed = 0
    for it in iterations:
        for problem in it["problems"]:
            print("check failed: %s" % problem, file=sys.stderr)
        failed += bool(it["problems"])
    run_problems = workload.check_run(
        [it["result"] for it in iterations if not it["problems"]])
    for problem in run_problems:
        print("run check failed: %s" % problem, file=sys.stderr)
        failed = max(failed, 1)  # the run as a whole counts as one failure

    if args.trace:
        tracer.write(workdir / "spans.tsv.gz")
        overhead = scaled(with_trace, "wall") / scaled(plain, "wall")
        metrics = tracing.layer_metrics(tracer, len(with_trace), overhead)
    else:
        metrics = end_to_end(workload, plain)
        walls = sorted(it["wall"] * it["scale"] for it in plain)
        tail = max(0, len(walls) - 11)  # the highest rank with ten walls above it
        print("timed iterations %d: scaled wall median %r s, p%.0f %r s; unscaled "
              "wall median %r s, scale median %r" % (
                  len(walls), statistics.median(walls),
                  100 * tail / max(len(walls) - 1, 1), walls[tail],
                  statistics.median(it["wall"] for it in plain),
                  statistics.median(it["scale"] for it in plain)))
    for name, (value, unit) in metrics.items():
        print("%s %r %s" % (name, value, unit))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
