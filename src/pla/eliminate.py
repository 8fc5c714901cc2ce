"""The compiler pass: rewrite a formula over an aggregation-free network
into an asymptotically equivalent basic probability formula, by computing
limit probabilities of complete types, the proportion tables they induce for
each aggregation node, and the aggregation function's limit on the resulting
support spectra.  Also the Monte Carlo harnesses that check convergence and
saturation empirically.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import aggregators
from .aggregators import SupportSpectrum
from .errors import PlaError
from .logic import (
    _BLOCK,
    DEFAULT_TYPE_CAP,
    Agg,
    AtomicType,
    BasicProbabilityFormula,
    Const,
    EqualityType,
    Formula,
    Not,
    Signature,
    Structure,
    TooManyTypes,
    TypeReader,
    Variable,
    aggregation_function,
    assignment_keys,
    check_cap,
    check_signature,
    children,
    conjunction,
    dim_y,
    evaluate,
    fold,
    free_vars,
    has_aggregation,
    index_bits,
    index_keys,
    index_to_signs,
    restriction,
    satisfying_bound_tuples,
    tabulate,
    type_parts,
    type_reader,
)
from .network import PlaNetwork, ValueSet, _checked, _Record, mc_estimates
from .parser import format_formula

COLLAPSE_TOL = 1e-12


class NetworkHasAggregation(PlaError):
    """Elimination requires every network formula to be aggregation-free."""


def _require_aggregation_free(net: PlaNetwork) -> _Record:
    record = _checked(net)
    if not record.strat.aggregation_free:
        raise NetworkHasAggregation("network formulas contain aggregation functions")
    return record


def limit_prob_type(net: PlaNetwork, p: AtomicType) -> float:
    """Limit probability that a tuple with the type's equality pattern
    realizes the type; for aggregation-free networks this is an n-independent
    product, over the type's slots in order, of theta at the slot or its
    complement, read through ``_slot_plan``: the same left fold from 1.0
    as the type's leaf in ``block(p.eq)``, with no block built."""
    plan = _slot_plan(net, len(p.eq.blocks))
    if p.signature != net.signature:
        raise ValueError("type signature does not match the network signature")
    factors = []
    for sign, (positions, read) in zip(p.signs, plan):
        theta = read(tuple([p.signs[j] for j in positions]))
        factors.append(theta if sign else 1.0 - theta)
    return functools.reduce(operator.mul, factors, 1.0)


def _slot_plan(net: PlaNetwork, k: int) -> list[tuple[tuple[int, ...], Callable]]:
    """Per slot (R, class tuple c) of ``net.signature.slots(k)``, theta_R's
    positions and read, ``type_reader`` of theta_R at the classes c of R's
    theta variables.  The readers and each k's plan are kept on the
    network's record (see ``network.validate``), so theta_R is evaluated
    once per key of its free variables' pattern and its atoms' signs for
    the network's life.  Checks that the network is aggregation-free."""
    record = _require_aggregation_free(net)
    plan = record.plans.get(k)
    if plan is None:
        if not record.readers:
            record.readers.update((name, type_reader(net.theta[name], net.signature))
                                  for name in net.signature.names())
        plan = record.plans[k] = [
            record.readers[name](k, dict(zip(net.theta_variables(name), ctuple)))
            for name, ctuple in net.signature.slots(k)]
    return plan


def _limit_blocks(net: PlaNetwork) -> Callable[..., tuple[tuple[int, ...], list[float]]]:
    """``block(eq, reads=None)``: the parent closure of the slots at the
    positions ``reads`` in the sign vectors of ``eq``'s types (every slot
    when None), as ascending positions, and the limit probability of every
    sign vector over it, by index (see ``index_bits``), weighed as one tree
    over the aggregation-free network.

    The plan (``_slot_plan``) holds theta_R's positions and read per slot,
    evaluated once per key for the network's life.  The closure holds
    the read slots and, recursively, the slots their theta reads.  Any
    other slot is a barren node of the slot network: summed out, it
    contributes 1, so a sign vector over the closure weighs the sum of its
    complete types.  A node is the partial product of the sign
    vectors that agree on the slots split so far.  The closure's slots are
    folded in order; before slot i is folded, every node is split on each
    slot that theta reads and on slot i, if not split yet, so theta is known
    at every node, and each node is multiplied by theta or 1 - theta.  Every
    leaf is then the left fold of theta or 1 - theta over the closure's
    slots, at about two multiplications per leaf.  A leaf carries its index,
    because a symbol declared before its parents splits a later slot early."""
    _require_aggregation_free(net)

    def block(eq: EqualityType, reads=None) -> tuple[tuple[int, ...], list[float]]:
        plan = _slot_plan(net, len(eq.blocks))
        closed, todo = set(), list(range(len(plan)) if reads is None else reads)
        while todo:
            j = todo.pop()
            if j not in closed:
                closed.add(j)
                todo.extend(plan[j][0])
        closure = tuple(sorted(closed))
        at = {j: t for t, j in enumerate(closure)}
        bits = index_bits(len(closure))
        values, index = [1.0], [0]
        split = 0  # the bits of the slots split so far
        for i, slot in enumerate(closure):
            positions, read = plan[slot]
            positions = [at[j] for j in positions]
            for j in (*positions, i):
                if not split & bits[j]:
                    split |= bits[j]
                    values = values * 2
                    index = index + [ix | bits[j] for ix in index]
            # the factor of slot i at each key of theta's signs and its own
            keys = [0]
            for j in positions:
                keys += [key | bits[j] for key in keys]
            factors = {}
            for key in keys:
                theta = read(tuple([key & bits[j] != 0 for j in positions]))
                factors[key], factors[key | bits[i]] = 1.0 - theta, theta
            mask = keys[-1] | bits[i]
            values = [x * factors[ix & mask] for x, ix in zip(values, index)]
        leaves = [0.0] * len(values)
        for ix, x in zip(index, values):
            leaves[ix] = x
        return closure, leaves

    return block


# ---------------------------------------------------------------------------
# Alpha tables
# ---------------------------------------------------------------------------


@dataclass
class AlphaRow:
    """A parameter type, by its signs at the table's ``base`` positions,
    and its extensions, sign vectors over the table's ``closure`` by
    ascending index (see ``index_bits``), with per extension each body's
    value, beta and alpha, as arrays."""

    base: tuple[bool, ...]
    gamma: float
    entries: list[int]  # the extensions' indices
    values: tuple[list[float], ...]  # one list per body
    betas: list[float]
    alphas: list[Optional[float]]  # None when gamma is 0
    # the merged support spectra, one per body, that the compiler takes the
    # function's limit over; None until then, and for a row with gamma 0
    spectra: Optional[tuple[SupportSpectrum, ...]] = None

    def sum_alpha(self) -> Optional[float]:
        return math.fsum(self.alphas) if self.gamma > 0.0 else None


@dataclass
class AlphaTable:
    """The rows of the types with the equality type ``eq`` over the slots
    at ``closure``, positions in their sign vectors: the slots the bodies
    read and the slots θ reads there, recursively.  ``base`` holds the
    positions, in the sign vectors of the parameters' equality type, of
    the closure's slots over the parameters alone; a row is a sign vector
    there.  Every other slot sums out of each row's gamma and betas."""

    signature: Signature
    xs: tuple[Variable, ...]
    ys: tuple[Variable, ...]
    eq: EqualityType  # the extension types'
    dim: int
    closure: tuple[int, ...]
    base: tuple[int, ...]
    rows: list[AlphaRow]

    def to_dict(self, full_table: bool = False) -> dict:
        """Per row, the base literals, gamma, the sum of alpha, the number
        of extensions and the spectra; with ``full_table``, every extension
        with its body values, beta and alpha in place of the last two."""
        rows = []
        base_eq = self.eq.restrict(self.xs)
        for row in self.rows:
            out = {"base": _literals_text(self.signature, base_eq, self.base, row.base),
                   "gamma": row.gamma, "sum_alpha": row.sum_alpha()}
            if full_table:
                out["entries"] = [
                    {
                        "extension": _literals_text(self.signature, self.eq, self.closure,
                                                    index_to_signs(index, len(self.closure))),
                        "values": [column[j] for column in row.values],
                        "beta": row.betas[j],
                        "alpha": row.alphas[j],
                    }
                    for j, index in enumerate(row.entries)
                ]
            else:
                out["extensions"] = len(row.entries)
                out["spectra"] = None if row.spectra is None else [
                    [list(point) for point in s.points] for s in row.spectra]
            rows.append(out)
        table = {
            "params": [v.name for v in self.xs],
            "bound": [v.name for v in self.ys],
            "dim": self.dim,
            "rows": rows,
        }
        if not full_table:
            # a function without a closed form is refused before its table is built
            table["limit_method"] = "closed_form"
        return table


@functools.lru_cache(maxsize=64)
def _type_part_texts(signature: Signature, eq: EqualityType) -> tuple[tuple[str, ...], tuple]:
    """The texts of ``type_parts``: one per equality part, and per slot the
    negative and the positive literal."""
    equalities, atoms = type_parts(signature, eq)
    return (tuple(map(format_formula, equalities)),
            tuple((format_formula(Not(atom)), format_formula(atom)) for atom in atoms))


def _literals_text(signature: Signature, eq: EqualityType, positions: Sequence[int],
                   signs: Sequence[bool]) -> str:
    """The text of the conjunction of ``eq``'s equality parts and, at each
    position of its types' sign vectors, the literal of that sign, joined
    from cached parts."""
    equalities, literals = _type_part_texts(signature, eq)
    parts = [*equalities, *(literals[i][sign] for i, sign in zip(positions, signs))]
    return " & ".join(parts) if parts else format_formula(Const(1.0))


def _type_text(atype: AtomicType) -> str:
    """``format_formula(atype.to_formula())``."""
    return _literals_text(atype.signature, atype.eq, range(len(atype.signs)), atype.signs)


def alphas(
    net: PlaNetwork,
    xs: Sequence[Variable],
    ys: Sequence[Variable],
    p_eq: EqualityType,
    bodies: Sequence[TypeReader],
    type_cap: int = DEFAULT_TYPE_CAP,
) -> AlphaTable:
    """The types with the equality type ``p_eq`` over the parent closure
    of the slots the bodies read, grouped by their restriction to the
    parameters; each extension carries its limit probability, its
    proportion alpha relative to the group, and the constant each body, a
    type reader (see ``logic.type_reader``), takes on it, weighed by the
    network's ``_limit_blocks``.  A body over a variable outside ``p_eq``
    raises ValueError; more than ``type_cap`` complete types of ``p_eq``
    raise TooManyTypes before any is built.  A
    type is its index (see ``index_bits``): each body's value at every
    index is tabulated by ``logic.tabulate``, and its row is read off its
    bits (see ``index_keys``), so no type object is built for an
    extension."""
    block = _limit_blocks(net)
    dim = dim_y(p_eq, xs, ys)
    if dim == 0:
        raise PlaError("degenerate aggregation (dimension 0) has no alpha table")
    sig = net.signature
    check_cap(len(sig.slots(len(p_eq.blocks))), type_cap, "complete types", TooManyTypes)
    tables = [tabulate(body, p_eq) for body in bodies]
    closure, betas = block(p_eq, [i for _, positions, _ in tables for i in positions])
    at = {j: t for t, j in enumerate(closure)}
    m = len(closure)
    columns = [list(map(values.__getitem__, index_keys(m, [at[i] for i in positions])))
               for _, positions, values in tables]
    # the parameters' slots inside the closure are closed under theta's
    # reads too, so gamma is the same fold over the parameters' equality type
    base_eq, restricted = restriction(sig, p_eq, xs)
    base = tuple(j for j, i in enumerate(restricted) if i in at)
    _, gammas = block(base_eq, base)
    groups: list[list[int]] = [[] for _ in gammas]  # each row's indices, by the row's key
    for i, r in enumerate(index_keys(m, [at[restricted[j]] for j in base])):
        groups[r].append(i)
    rows = []
    for r, (gamma, indices) in enumerate(zip(gammas, groups)):
        row_betas = list(map(betas.__getitem__, indices))
        row_alphas = (list(map(gamma.__rtruediv__, row_betas)) if gamma > 0.0
                      else [None] * len(indices))
        values = tuple(list(map(column.__getitem__, indices)) for column in columns)
        rows.append(AlphaRow(index_to_signs(r, len(base)), gamma, indices, values, row_betas,
                             row_alphas))
    return AlphaTable(sig, tuple(xs), tuple(ys), p_eq, dim, closure, base, rows)


def _row_spectra(row: AlphaRow) -> tuple[SupportSpectrum, ...]:
    """The row's merged support spectrum of each body.  Merging again, as
    ``aggregators.limit`` does, changes nothing."""
    # zero-proportion extensions cannot occur in the limit and are dropped;
    # merging joins close values, and without this filter a dropped value
    # could anchor a cluster
    alphas, positive = row.alphas, [alpha > 0.0 for alpha in row.alphas]
    return tuple(SupportSpectrum(tuple(itertools.compress(zip(column, alphas), positive))).merged()
                 for column in row.values)


# ---------------------------------------------------------------------------
# The elimination pass
# ---------------------------------------------------------------------------


@dataclass
class AggNodeRecord:
    func: str
    params: tuple[Variable, ...]
    bound: tuple[Variable, ...]
    dim: int
    table: Optional[AlphaTable]
    limits: list[tuple[AtomicType, float]]
    warnings: list[str]

    def to_dict(self, full_table: bool = False) -> dict:
        return {
            "function": self.func,
            "params": [v.name for v in self.params],
            "bound": [v.name for v in self.bound],
            "dim": self.dim,
            "table": self.table.to_dict(full_table) if self.table is not None else None,
            "limits": [
                {"type": _type_text(q), "value": d} for q, d in self.limits
            ],
            "warnings": self.warnings,
        }


@dataclass
class EliminationReport:
    input_formula: Formula
    output: BasicProbabilityFormula
    agg_nodes: list[AggNodeRecord]
    warnings: list[str]

    def to_dict(self, full_table: bool = False) -> dict:
        """The report; ``full_table`` lists every extension type of each
        alpha table row instead of the row's support spectra.  The output's
        text is ``format_formula(self.output.to_formula())``, joined from
        the conjuncts' texts."""
        conjuncts = [{"type": _type_text(t), "value": c} for t, c in self.output.conjuncts]
        implications = ["%s -> %s" % (c["type"], format_formula(Const(c["value"])))
                        for c in conjuncts]
        return {
            "input": format_formula(self.input_formula),
            "output": (implications[0] if len(implications) == 1
                       else " & ".join(map("({})".format, implications))),
            "output_conjuncts": conjuncts,
            "aggregation_nodes": [r.to_dict(full_table) for r in self.agg_nodes],
            "warnings": self.warnings,
        }


def _combined(parts: Sequence[TypeReader], combine) -> TypeReader:
    """The reader of ``combine`` over the parts' values, which reads the
    union of the parts' positions."""
    def at(k, classes):
        reads = [part(k, classes) for part in parts]
        positions = tuple(dict.fromkeys(i for part, _ in reads for i in part))
        where = [[positions.index(i) for i in part] for part, _ in reads]
        return positions, lambda signs: combine(
            [read(tuple([signs[t] for t in w])) for (_, read), w in zip(reads, where)])

    return at


def eliminate(
    net: PlaNetwork, phi: Formula, registry=None, type_cap: int = DEFAULT_TYPE_CAP
) -> tuple[BasicProbabilityFormula, EliminationReport]:
    """Rewrite the formula into an asymptotically equivalent basic
    probability formula with respect to the network's world distributions.

    Aggregation-free subformulas fold exactly; each aggregation node is
    replaced by one conjunct per parameter type, whose value is the
    function's limit over the node's support spectrum for that type.  An
    equality type with more than ``type_cap`` complete types raises
    TooManyTypes; an atom that does not fit the network's signature, a
    PlaError (``check_signature``).
    """
    check_signature(phi, net.signature)
    _require_aggregation_free(net)
    if registry is None:
        registry = aggregators.DEFAULT_REGISTRY
    sig = net.signature
    empty = Structure(sig, 1)  # the connectives of constants read no relation
    warnings: list[str] = []
    agg_nodes: list[AggNodeRecord] = []

    def compile_node(node: Formula) -> TypeReader:
        # only an aggregation node builds conjuncts: one per parameter type
        if not has_aggregation(node):
            return type_reader(node, sig)
        if isinstance(node, Agg):
            return compile_agg(node).sign_reader()
        # a connective over compiled children: on each complete type,
        # evaluate the connective over the children's constants
        return _combined([compile_node(c) for c in children(node)],
                         lambda values: evaluate(empty, type(node)(*map(Const, values))))

    def compile_agg(node: Agg) -> BasicProbabilityFormula:
        func = aggregation_function(node, registry)
        bodies = [compile_node(b) for b in node.bodies]
        xs, ys, eq = node.params, node.bound, node.eq_type
        dim = dim_y(eq, xs, ys)
        # tables of 1 complete the case split outside the node's equality
        # constraint; folded first, so the type cap over xs holds first
        ones = fold(sig, xs, lambda k, classes: ((), lambda signs: 1.0), type_cap)
        covered = eq.restrict(xs)
        node_warnings: list[str] = []
        table = None
        if dim == 0:
            # every bound variable is equated with a parameter: the single
            # matching tuple is a renaming, so the function applies exactly
            # to length-1 value sequences.  Every class holds a parameter and
            # parameters come first, so a type over xs has ``eq``'s classes
            # in order and the same signs as its extension to ``eq``
            reader = _combined(bodies, lambda vs: aggregators.apply(func, *([v] for v in vs)))
            first = tabulate(lambda k, _: reader(k, eq.class_index), covered)
        else:
            if func.closed_form is None:
                raise aggregators.NoLimitMethod("%s has no limit method; cannot eliminate it"
                                                % func.name)
            table = alphas(net, xs, ys, eq, bodies, type_cap)
            # a row per sign vector at the closure's slots over xs, by ascending index
            constants = []
            for row in table.rows:
                if row.gamma <= 0.0:
                    node_warnings.append(
                        "type %s has limit probability 0; its compiled value 1 "
                        "is arbitrary" % _literals_text(sig, covered, table.base, row.base)
                    )
                    constants.append(1.0)
                    continue
                row.spectra = _row_spectra(row)
                constants.append(aggregators.limit(func, row.spectra))
            first = (covered, table.base, tuple(constants))
        bpf = BasicProbabilityFormula(sig, tuple(xs), (first, *(
            other for other in ones.tables if other[0] != covered)))
        for t, _ in bpf.conjuncts:
            if t.eq != covered:
                node_warnings.append(
                    "type %s is outside the aggregation's equality constraint "
                    "(empty range); compiled value 1 is arbitrary" % _type_text(t)
                )
        agg_nodes.append(AggNodeRecord(node.func, tuple(xs), tuple(ys), dim, table,
                                       list(bpf.conjuncts), node_warnings))
        warnings.extend(node_warnings)
        return bpf

    if isinstance(phi, Agg):
        output = compile_agg(phi)
    else:
        output = fold(sig, sorted(free_vars(phi), key=lambda v: v.name), compile_node(phi),
                      cap=type_cap)
    values = [c for _, c in output.conjuncts]
    if values and max(values) - min(values) <= COLLAPSE_TOL and len(values) > 1:
        # the one complete type over no variables: no slot, no position
        output = fold(sig, (), lambda k, classes: ((), lambda signs: values[0]))
    report = EliminationReport(phi, output, agg_nodes, warnings)
    return output, report


# ---------------------------------------------------------------------------
# Convergence experiment
# ---------------------------------------------------------------------------


@dataclass
class ExperimentRow:
    n: int
    epsilon: float
    p_exceed: Optional[float]
    ci_exceed: Optional[float]
    near: list[tuple[float, float, float]]  # (d, p_near, ci)
    p_in_set: Optional[float]
    ci_in_set: Optional[float]


@dataclass
class ExperimentTable:
    rows: list[ExperimentRow]
    constants: tuple[float, ...]
    value_set: Optional[ValueSet]

    def header(self) -> list[str]:
        cols = ["n", "epsilon"]
        if self.rows and self.rows[0].p_exceed is not None:
            cols += ["p_exceed", "ci_exceed"]
            for i in range(len(self.constants)):
                cols += ["d_%d" % i, "p_near_%d" % i, "ci_%d" % i]
        if self.value_set is not None:
            cols += ["p_value_set", "ci_value_set"]
        return cols

    def to_csv(self) -> str:
        lines = [",".join(self.header())]
        for row in self.rows:
            cells = [str(row.n), repr(row.epsilon)]
            if row.p_exceed is not None:
                cells += [repr(row.p_exceed), repr(row.ci_exceed)]
                for d, p, ci in row.near:
                    cells += [repr(d), repr(p), repr(ci)]
            if self.value_set is not None:
                cells += [repr(row.p_in_set), repr(row.ci_in_set)]
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "constants": list(self.constants),
            "value_set": str(self.value_set) if self.value_set else None,
            "rows": [{"n": r.n, "epsilon": r.epsilon, "p_exceed": r.p_exceed,
                      "ci_exceed": r.ci_exceed,
                      "near": [{"d": d, "p_near": p, "ci": ci} for d, p, ci in r.near],
                      "p_in_set": r.p_in_set, "ci_in_set": r.ci_in_set} for r in self.rows],
        }


def _first_of_each_key(world, formulas, variables, tuples):
    """The first of the tuples with each ``assignment_keys`` key, in order
    of first occurrence: each formula's value at a tuple is its value
    there.  The first tuple is yielded before any tuple is keyed, so an
    ``evaluate`` there keys the domain elements of the counting nodes it
    visits; later tuples are keyed ``_BLOCK`` at a time, each block once
    every earlier first tuple has been taken."""
    tuples = iter(tuples)
    head = next(tuples, None)
    if head is None:
        return
    yield head
    seen = set(assignment_keys(world, formulas, variables, [head]))
    for block in iter(lambda: list(itertools.islice(tuples, _BLOCK)), []):
        keys = assignment_keys(world, formulas, variables, block)
        first = dict(zip(reversed(keys), reversed(block)))
        for key in dict.fromkeys(keys):
            if key not in seen:
                seen.add(key)
                yield first[key]


def _experiment_hit(
    phi, psi, n, epsilon, value_set, registry, variables, constants, world,
) -> tuple[bool, ...]:
    """Hits of one world: exceedance, in the set, near each constant.

    The parameter tuples are keyed first (see ``logic.assignment_keys``):
    phi and psi are evaluated at the first tuple of each key, in
    ``itertools.product`` order, up to the first that separates them by
    more than epsilon, so the hits and any aggregation error are those of
    evaluating them at every tuple in that order."""
    canonical = tuple(range(1, len(variables) + 1))
    value_at_canonical = None
    exceeds = False
    if psi is not None:
        tuples = itertools.product(range(1, n + 1), repeat=len(variables))
        for args in _first_of_each_key(world, (phi, psi), variables, tuples):
            assignment = dict(zip(variables, args))
            value = evaluate(world, phi, assignment, registry)
            if args == canonical:  # the first tuple of its equality pattern
                value_at_canonical = value
            if abs(value - psi.value_on(world, assignment)) > epsilon:
                exceeds = True
                break
    if value_at_canonical is None:
        value_at_canonical = evaluate(world, phi, dict(zip(variables, canonical)), registry)
    in_set = value_set is not None and value_set.contains(value_at_canonical)
    return (exceeds, in_set, *(abs(value_at_canonical - d) <= epsilon for d in constants))


def convergence_experiment(
    net: PlaNetwork,
    phi: Formula,
    psi: Optional[BasicProbabilityFormula] = None,
    n_grid: Sequence[int] = (),
    epsilon: float = 0.1,
    samples: int = 1000,
    seed=0,
    value_set: Optional[ValueSet] = None,
    registry=None,
    workers: int = 1,
) -> ExperimentTable:
    """Monte Carlo estimates, per domain size: the probability that some
    parameter tuple separates the formula from its compiled form by more
    than epsilon, the probability that the formula's value lands within
    epsilon of each compiled constant, and optionally the probability that
    it lands in a value set.  The output depends only on the seed and
    ``samples``, not on ``workers``.  The formula's atoms must fit the
    network's signature (``check_signature``)."""
    check_signature(phi, net.signature)
    if psi is None and value_set is None:
        raise ValueError("need a compiled formula or a value set to test against")
    if not 0.0 <= epsilon < math.inf:  # false for NaN too; JSON has no inf
        raise ValueError("epsilon must be finite and >= 0, got %r" % epsilon)
    variables = tuple(sorted(free_vars(phi), key=lambda v: v.name))
    k = len(variables)
    constants = psi.constants() if psi is not None else ()
    rows = []
    for n in n_grid:
        if n < k:
            raise ValueError("domain size %d cannot host %d distinct parameters" % (n, k))
        hit = functools.partial(_experiment_hit, phi, psi, n, epsilon, value_set, registry,
                                variables, constants)
        exceed, in_set, *near = mc_estimates(net, n, hit, samples, seed * 1_000_003 + n,
                                             workers)
        if psi is None:
            exceed = (None, None)
        if value_set is None:
            in_set = (None, None)
        rows.append(ExperimentRow(n, epsilon, *exceed, [(d, *e) for d, e in zip(constants, near)],
                                  *in_set))
    return ExperimentTable(rows, constants, value_set)


# ---------------------------------------------------------------------------
# Saturation diagnostic
# ---------------------------------------------------------------------------


@dataclass
class SaturationResult:
    frequency: float
    alpha: float
    dim: int
    lower: float
    upper: float
    samples: int


def _saturated(q_formula, node, xs, base_tuples, size, lower, upper, world) -> tuple[bool]:
    """The hit of a world where every base tuple realizing q has an
    extension count inside [lower, upper]: ``node`` is the mean over the
    ``size`` extension tuples of the extension literals' conjunction, so
    the count is its value times ``size``, exactly.  Both formulas are
    evaluated at the first base tuple of each ``assignment_keys`` key."""
    for args in _first_of_each_key(world, (q_formula, node), xs, base_tuples):
        assignment = dict(zip(xs, args))
        if evaluate(world, q_formula, assignment) != 1.0:
            continue
        # am of no tuple raises EmptyAggregationRange
        count = round(evaluate(world, node, assignment) * size) if size else 0
        if not (lower <= count <= upper):
            return (False,)
    return (True,)


def saturation_diagnostic(
    net: PlaNetwork,
    p: AtomicType,
    q: AtomicType,
    delta: float,
    n: int,
    samples: int,
    seed,
    alpha: Optional[float] = None,
) -> SaturationResult:
    """Empirical probability that a sampled world has, for every parameter
    tuple realizing the base type, an extension count within the band
    [alpha/(1+delta), alpha*(1+delta)] * n^dim."""
    _require_aggregation_free(net)
    xs = q.variables
    ys = tuple(v for v in p.variables if v not in set(xs))
    if p.restrict(xs) != q:
        raise ValueError("base type must be the restriction of the extension type")
    dim = dim_y(p.eq, xs, ys)
    if dim == 0:
        raise ValueError("extension type has dimension 0; nothing to saturate")
    if alpha is None:
        gamma = limit_prob_type(net, q)
        if gamma <= 0.0:
            raise PlaError("base type has limit probability 0")
        alpha = limit_prob_type(net, p) / gamma
    lower = alpha / (1.0 + delta) * n ** dim
    upper = alpha * (1.0 + delta) * n ** dim

    base_tuples = list(satisfying_bound_tuples(q.eq, xs, {}, n))
    # a base tuple pins q's classes; the dim others take distinct other elements
    size = math.perm(max(n - len(q.eq.blocks), 0), dim)
    # the literals of p over a class outside xs, averaged over the extensions
    inside = {p.eq.class_index[v] for v in xs}
    _, atoms = type_parts(p.signature, p.eq)
    literals = [atom if sign else Not(atom)
                for atom, ((_, ctuple), sign) in zip(atoms, p.literals)
                if not inside.issuperset(ctuple)]
    node = Agg("am", (conjunction(literals),), ys, p.eq)

    hit = functools.partial(_saturated, q.to_formula(), node, xs, base_tuples, size,
                            lower, upper)
    ((frequency, _),) = mc_estimates(net, n, hit, samples, seed)
    return SaturationResult(frequency, alpha, dim, lower, upper, samples)
