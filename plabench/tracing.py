"""Span tracer for the benchmark's traced runs.

While ``traced(tracer)`` is active, every public pla entry point listed in
``ENTRY_POINTS`` is replaced, in every loaded module that binds it (pla
re-exports and imports these functions by name), by a wrapper that records
one span per call: name, start, end, parent span, iteration id, and a work
count taken from the call's arguments or result.  On exit the original
objects are put back, so untraced runs execute unmodified code.

Spans live in flat arrays in memory and are written out once, at the end
of the run.  Self time is derived from them afterwards (``self_times``).
"""

from __future__ import annotations

import contextlib
import gzip
import sys
import time
from array import array

ROOT = "harness"  # one root span per traced iteration: the harness's own code


def _sample_tuples(args, result):
    return sum(result.domain_size ** arity for _, arity in result.signature.symbols)


# (span name, module, attribute path, work count from (args, result) or None)
ENTRY_POINTS = (
    ("parser.parse_formula", "pla.parser", "parse_formula", None),
    ("network.validate", "pla.network", "validate", None),
    ("network.sample", "pla.network", "WorldSampler.sample", _sample_tuples),
    ("network.exact_distribution", "pla.network", "exact_distribution",
     lambda args, result: len(result)),
    ("logic.evaluate", "pla.logic", "evaluate", None),
    ("logic.satisfying_bound_tuples", "pla.logic", "satisfying_bound_tuples", None),
    ("logic.enumerate_complete_types", "pla.logic", "enumerate_complete_types",
     lambda args, result: len(result)),
    ("logic.fold_to_bpf", "pla.logic", "fold_to_bpf", None),
    ("logic.value_on", "pla.logic", "BasicProbabilityFormula.value_on",
     lambda args, result: len(args[0].conjuncts)),
    ("eliminate.alphas", "pla.eliminate", "alphas",
     lambda args, result: sum(len(row.entries) for row in result.rows)),
    ("eliminate.eliminate", "pla.eliminate", "eliminate", None),
    ("eliminate.convergence_experiment", "pla.eliminate", "convergence_experiment", None),
    ("aggregators.limit", "pla.aggregators", "limit", None),
    ("aggregators.apply", "pla.aggregators", "apply",
     lambda args, result: sum(len(seq) for seq in args[1:])),
)

# satisfying_bound_tuples is a generator consumed in step with the body
# evaluations of its caller, so it owns no interval of its own: it records
# no span, and each tuple it yields is counted as work of the innermost open
# span (the evaluate call that visits it).
GENERATORS = {"logic.satisfying_bound_tuples"}


class Tracer:
    """Spans of one process, in flat arrays indexed in start order."""

    def __init__(self):
        self.names: list[str] = [ROOT] + [e[0] for e in ENTRY_POINTS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.name = array("H")
        self.parent = array("q")
        self.run = array("I")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.stack: list[int] = []
        self.run_id = 0
        self.bound_tuples = 0
        self.patches = None  # (owner, attribute, original, wrapper), see traced()

    def open(self, name_id: int) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.run.append(self.run_id)
        self.work.append(0)
        self.end.append(0)
        self.stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self.stack.pop()

    @contextlib.contextmanager
    def root(self, run_id: int):
        """The span of one traced iteration; entry-point spans nest under it."""
        self.run_id = run_id
        index = self.open(self.name_id[ROOT])
        try:
            yield
        finally:
            self.close(index)

    def write(self, path) -> None:
        """All spans as gzip'd tab-separated text, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tparent\trun\tname\tstart_ns\tend_ns\twork\n")
            for i in range(len(self.start)):
                out.write("%d\t%d\t%d\t%s\t%d\t%d\t%d\n" % (
                    i, self.parent[i], self.run[i], self.names[self.name[i]],
                    self.start[i], self.end[i], self.work[i]))


def _span_wrapper(tracer: Tracer, name_id: int, fn, work):
    def wrapper(*args, **kwargs):
        index = tracer.open(name_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(index)
        if work is not None:
            tracer.work[index] = work(args, result)
        return result

    return wrapper


def _generator_wrapper(tracer: Tracer, fn):
    def wrapper(*args, **kwargs):
        for item in fn(*args, **kwargs):
            tracer.bound_tuples += 1
            if tracer.stack:
                tracer.work[tracer.stack[-1]] += 1
            yield item

    return wrapper


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def bindings():
    """(span name, owner, attribute, original) for every place that binds
    an entry point: its defining module or class, and every loaded module
    that imported it, under whatever name."""
    found = []
    imported = {}  # id of a module-level entry point -> (span name, original)
    for span_name, module_name, path, _ in ENTRY_POINTS:
        owner, attr = _resolve(module_name, path)
        original = vars(owner)[attr]
        found.append((span_name, owner, attr, original))
        if not isinstance(owner, type):
            imported[id(original)] = (span_name, original)
    defined = {(id(owner), attr) for _, owner, attr, _ in found}
    for module in list(sys.modules.values()):
        namespace = getattr(module, "__dict__", None)
        if not isinstance(namespace, dict):
            continue
        for name, value in list(namespace.items()):
            hit = imported.get(id(value))
            if hit and value is hit[1] and (id(module), name) not in defined:
                found.append((hit[0], module, name, value))
    return found


def _wrapper(tracer: Tracer, span_name: str, original):
    if span_name in GENERATORS:
        return _generator_wrapper(tracer, original)
    work = next(e[3] for e in ENTRY_POINTS if e[0] == span_name)
    return _span_wrapper(tracer, tracer.name_id[span_name], original, work)


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Wrap every entry point for the duration of the block, then restore
    each binding to its original object.  The bindings are found on first
    use; pla imports nothing new afterwards."""
    if tracer.patches is None:
        tracer.patches = [(owner, attr, original, _wrapper(tracer, span_name, original))
                          for span_name, owner, attr, original in bindings()]
    try:
        for owner, attr, _, wrapper in tracer.patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original, _ in tracer.patches:
            setattr(owner, attr, original)


def self_times(start, end, parent) -> list[int]:
    """Each span's duration minus the part of it that its child spans cover.

    Spans are indexed in start order and a parent precedes its children;
    a child's interval is clipped to its parent's, and overlapping children
    are counted once."""
    covered = [0] * len(start)
    reach = list(start)  # per span: end of the covered prefix so far
    for i, p in enumerate(parent):
        if p < 0:
            continue
        lo = max(start[i], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(len(start))]



# Per-layer metrics of a traced run: (name, unit, the end-to-end metric and
# workload it should move, how it is computed).  Computations read a span
# name's "calls", "work" or "self" time per traced iteration, or a "cost":
# self (or inclusive, "total") time per unit of work (or per call).
# "derived" metrics are computed in layer_metrics itself.
LAYER_METRICS = (
    ("logic.satisfying_bound_tuples.tuples", "count", "items_per_s on mc-aggregate",
     ("derived",)),
    ("logic.evaluate.us_per_bound_tuple", "us", "items_per_s on mc-aggregate", ("derived",)),
    ("aggregators.apply.us_per_value", "us", "items_per_s on mc-aggregate",
     ("cost", "aggregators.apply", "self", "work")),
    ("network.sample.calls", "count", "items_per_s on mc-sample", ("calls", "network.sample")),
    ("network.sample.us_per_tuple", "us", "items_per_s on mc-sample",
     ("cost", "network.sample", "self", "work")),
    ("logic.evaluate.calls", "count", "items_per_s on mc-sample", ("calls", "logic.evaluate")),
    ("logic.evaluate.calls.sampler", "count", "items_per_s on mc-sample", ("derived",)),
    ("logic.evaluate.calls.harness", "count", "items_per_s on mc-sample", ("derived",)),
    ("logic.value_on.calls", "count", "wall_s on compile", ("calls", "logic.value_on")),
    ("logic.value_on.conjuncts", "count", "wall_s on compile", ("work", "logic.value_on")),
    ("logic.value_on.us_per_conjunct", "us", "wall_s on compile",
     ("cost", "logic.value_on", "self", "work")),
    ("logic.enumerate_complete_types.types", "count", "wall_s on compile",
     ("work", "logic.enumerate_complete_types")),
    ("logic.enumerate_complete_types.us_per_type", "us", "wall_s on compile",
     ("cost", "logic.enumerate_complete_types", "self", "work")),
    ("eliminate.alphas.entries", "count", "wall_s on compile", ("work", "eliminate.alphas")),
    ("eliminate.alphas.us_per_entry", "us", "wall_s on compile",
     ("cost", "eliminate.alphas", "total", "work")),
    ("network.exact_distribution.worlds", "count", "wall_s on exact",
     ("work", "network.exact_distribution")),
    ("network.exact_distribution.us_per_world", "us", "wall_s on exact",
     ("cost", "network.exact_distribution", "total", "work")),
    ("network.exact_distribution.self_s", "s", "wall_s on exact",
     ("self", "network.exact_distribution")),
    ("network.validate.calls", "count", "setup_s on every workload", ("calls", "network.validate")),
    ("network.validate.self_ms", "ms", "setup_s on every workload", ("self", "network.validate")),
    ("parser.parse_formula.self_ms", "ms", "setup_s on every workload",
     ("self", "parser.parse_formula")),
    ("aggregators.limit.calls", "count", "wall_s on compile", ("calls", "aggregators.limit")),
    ("aggregators.limit.us_per_call", "us", "wall_s on compile",
     ("cost", "aggregators.limit", "total", "calls")),
    ("eliminate.convergence_experiment.self_s", "s", "items_per_s on mc-aggregate",
     ("self", "eliminate.convergence_experiment")),
    ("logic.evaluate.self_s", "s", "items_per_s on mc-aggregate and mc-sample",
     ("self", "logic.evaluate")),
    ("network.sample.self_s", "s", "items_per_s on mc-sample", ("self", "network.sample")),
    ("logic.value_on.self_s", "s", "wall_s on compile", ("self", "logic.value_on")),
    ("logic.enumerate_complete_types.self_s", "s", "wall_s on compile",
     ("self", "logic.enumerate_complete_types")),
    ("logic.fold_to_bpf.self_s", "s", "wall_s on compile", ("self", "logic.fold_to_bpf")),
    ("eliminate.alphas.self_s", "s", "wall_s on compile", ("self", "eliminate.alphas")),
    ("eliminate.eliminate.self_s", "s", "wall_s on compile", ("self", "eliminate.eliminate")),
    ("aggregators.limit.self_s", "s", "wall_s on compile", ("self", "aggregators.limit")),
    ("aggregators.apply.self_s", "s", "items_per_s on mc-aggregate", ("self", "aggregators.apply")),
    ("harness.self_s", "s", "none: the benchmark's own code", ("self", ROOT)),
    ("trace.overhead_ratio", "ratio", "none: traced over untraced wall_s", ("derived",)),
)

_SCALE = {"s": 1e-9, "ms": 1e-6, "us": 1e-3}  # from nanoseconds


def layer_metrics(tracer: Tracer, iterations: int, overhead_ratio: float) -> dict:
    """name -> (value, unit) for every entry of LAYER_METRICS."""
    selfs = self_times(tracer.start, tracer.end, tracer.parent)
    size = len(tracer.names)
    totals = {"calls": [0] * size, "work": [0] * size, "self": [0] * size, "total": [0] * size}
    evaluate = tracer.name_id["logic.evaluate"]
    sample = tracer.name_id["network.sample"]
    from_sampler = visiting_ns = visiting_tuples = 0
    for i, name in enumerate(tracer.name):
        totals["calls"][name] += 1
        totals["work"][name] += tracer.work[i]
        totals["self"][name] += selfs[i]
        totals["total"][name] += tracer.end[i] - tracer.start[i]
        if name == evaluate:
            parent = tracer.parent[i]
            from_sampler += parent >= 0 and tracer.name[parent] == sample
            if tracer.work[i]:  # visited bound tuples
                visiting_ns += selfs[i]
                visiting_tuples += tracer.work[i]

    def ratio(part, whole):
        return part / whole if whole else 0.0

    derived = {
        "logic.satisfying_bound_tuples.tuples": tracer.bound_tuples / iterations,
        "logic.evaluate.us_per_bound_tuple": ratio(visiting_ns * _SCALE["us"], visiting_tuples),
        "logic.evaluate.calls.sampler": from_sampler / iterations,
        "logic.evaluate.calls.harness": (totals["calls"][evaluate] - from_sampler) / iterations,
        "trace.overhead_ratio": overhead_ratio,
    }
    out = {}
    for name, unit, _, how in LAYER_METRICS:
        kind = how[0]
        if kind == "derived":
            value = derived[name]
        elif kind == "cost":
            span = tracer.name_id[how[1]]
            value = ratio(totals[how[2]][span] * _SCALE[unit], totals[how[3]][span])
        else:
            value = totals[kind][tracer.name_id[how[1]]] * _SCALE.get(unit, 1) / iterations
        out[name] = (value, unit)
    return out
