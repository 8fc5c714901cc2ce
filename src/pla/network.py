"""Networks of relation symbols over a DAG, one formula per symbol, and the
world distributions they induce: stratified sampling, exact enumeration of
all worlds with their probabilities, and Monte Carlo event estimates.

Each symbol R of arity k carries a formula theta_R over its parent symbols
with free variables among x1..xk; a world is generated stratum by stratum,
each tuple entering R independently with probability theta_R evaluated on
the lower strata.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
import os
import random
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

from . import aggregators
from . import parser as formula_parser
from .errors import PlaError
from .logic import (
    Formula,
    Signature,
    Structure,
    Variable,
    check_cap,
    check_signature,
    check_size,
    distinct_atoms,
    evaluate,
    free_vars,
    gather,
    has_aggregation,
    product_coordinates,
    relation_symbols,
)

DEFAULT_WORLD_CAP = 2 ** 20


class CycleDetected(PlaError):
    pass


class ThetaUsesNonParent(PlaError):
    pass


class ArityMismatch(PlaError):
    pass


class TooManyWorlds(PlaError):
    pass


@dataclass
class PlaNetwork:
    """A DAG over relation symbols plus one formula per symbol."""

    signature: Signature
    parents: dict[str, tuple[str, ...]]
    theta: dict[str, Formula]

    def theta_variables(self, name: str) -> tuple[Variable, ...]:
        return tuple(Variable("x%d" % (i + 1)) for i in range(self.signature.arity(name)))


@dataclass
class Stratification:
    """Ranks and cumulative strata of a validated network."""

    rank: dict[str, int]
    strata: list[list[str]]  # strata[r] = symbols of rank <= r, signature order
    order: list[str]  # all symbols sorted by (rank, signature position)
    aggregation_free: bool


def validate(net: PlaNetwork) -> Stratification:
    """Check DAG-ness, parent discipline and formula variables; return the
    stratification and whether every formula is aggregation-free."""
    names = net.signature.names()
    for name in names:
        if name not in net.parents:
            raise PlaError("no parent list for symbol %r" % name)
        if name not in net.theta:
            raise PlaError("no formula for symbol %r" % name)
        for p in net.parents[name]:
            if p not in net.signature:
                raise PlaError("unknown parent %r of %r" % (p, name))
    # Kahn's algorithm for ranks; rank 0 iff no parents
    rank: dict[str, int] = {}
    remaining = set(names)
    while remaining:
        ready = [n for n in remaining if all(p in rank for p in net.parents[n])]
        if not ready:
            raise CycleDetected("cycle among symbols %s" % sorted(remaining))
        for n in ready:
            rank[n] = max((rank[p] + 1 for p in net.parents[n]), default=0)
            remaining.discard(n)
    aggregation_free = True
    for name in names:
        theta = net.theta[name]
        allowed_vars = set(net.theta_variables(name))
        if not free_vars(theta) <= allowed_vars:
            extra = sorted(v.name for v in free_vars(theta) - allowed_vars)
            raise ArityMismatch(
                "formula for %s (arity %d) has out-of-range free variables %s"
                % (name, net.signature.arity(name), extra)
            )
        used = relation_symbols(theta)
        if not used <= set(net.parents[name]):
            raise ThetaUsesNonParent(
                "formula for %s mentions non-parent symbols %s"
                % (name, sorted(used - set(net.parents[name])))
            )
        try:
            check_signature(theta, net.signature)
        except PlaError as exc:
            raise ArityMismatch("formula for %s: %s" % (name, exc)) from None
        if has_aggregation(theta):
            aggregation_free = False
    max_rank = max(rank.values(), default=0)
    strata = [[n for n in names if rank[n] <= r] for r in range(max_rank + 1)]
    order = sorted(names, key=lambda n: (rank[n], names.index(n)))
    return Stratification(rank, strata, order, aggregation_free)


class _Step(NamedTuple):
    """One symbol of a sampler's plan, in stratification order.

    ``tuples`` are in lexicographic order, the order of the bytes of the
    symbol's column.  ``gathers`` are theta's distinct atoms in preorder,
    each as its symbol and an ``itemgetter`` that takes that symbol's
    column to the atom's truth value at every tuple of the step.  ``keys``
    code each tuple's equality pattern: bit ``len(gathers) + b`` is set
    when the b-th pair of argument positions i < j holds equal elements.
    ``cache`` maps a key with bit a set where atom a holds to theta; it is
    None, and so are ``keys``, for a symbol with parents whose formula
    aggregates, which is evaluated at every tuple.
    """

    name: str
    theta: Formula
    variables: tuple[Variable, ...]
    tuples: list[tuple[int, ...]]
    keys: Optional[list[int]]
    gathers: tuple[tuple[str, Callable], ...]
    cache: Optional[dict]


class WorldSampler:
    """Draws worlds from the induced distribution at a fixed domain size.

    A drawn relation is a column of the world (see ``Structure``): one byte
    per tuple in lexicographic order, 1 for a member.  An aggregation-free
    theta_R at a tuple depends only on the tuple's equality pattern and the
    truth values there of the distinct atoms it reads; a root's theta reads
    no atoms, so it depends on the pattern alone, with or without
    aggregation.  Those thetas are cached per symbol under that key, a small
    int: the atoms' truth values are gathered from their symbols' columns
    by indices fixed at construction (see ``gather``), so after the first
    evaluation per key a theta list costs a few maps in C over the tuples
    and one dictionary lookup per tuple.  Only a non-root theta that
    contains aggregation is evaluated at every tuple, on one structure per
    theta list, so a counting aggregation node keys the domain once per
    list, not once per tuple.
    """

    def __init__(self, net: PlaNetwork, n: int, registry=None):
        check_size(net.signature, n)
        self.net = net
        self.n = n
        self.registry = registry
        strat = validate(net)
        self._plan: list[_Step] = []
        for name in strat.order:
            theta = net.theta[name]
            variables = net.theta_variables(name)
            tuples = list(itertools.product(range(1, n + 1), repeat=len(variables)))
            if net.parents[name] and has_aggregation(theta):
                self._plan.append(_Step(name, theta, variables, tuples, None, (), None))
                continue
            coordinates = product_coordinates(n, len(variables))
            gathers = tuple(
                (atom.symbol, gather(n, coordinates, list(map(variables.index, atom.args))))
                for atom in distinct_atoms((theta,)))
            keys = [0] * len(tuples)
            pairs = itertools.combinations(coordinates, 2)
            for bit, (left, right) in enumerate(pairs, len(gathers)):
                bits = map(operator.lshift, map(operator.eq, left, right), itertools.repeat(bit))
                keys = list(map(operator.or_, keys, bits))
            self._plan.append(_Step(name, theta, variables, tuples, keys, gathers, {}))

    def _evaluate(self, structure: Structure, step: _Step, args) -> float:
        try:
            return evaluate(structure, step.theta, dict(zip(step.variables, args)),
                            self.registry)
        except PlaError as exc:
            raise PlaError(
                "evaluating formula of %s at %s with n=%d: %s" % (step.name, args, self.n, exc)
            ) from exc

    def _thetas(self, columns: dict[str, bytes], step: _Step) -> list[float]:
        """Theta of the step's symbol at each of its tuples, in order, given
        the columns of the symbols of lower strata, by symbol.  A structure
        of them is built only where theta is evaluated, once per call."""
        if step.cache is None:
            structure = Structure(self.net.signature, self.n, columns)
            return [self._evaluate(structure, step, args) for args in step.tuples]
        keys = step.keys
        for bit, (symbol, getter) in enumerate(step.gathers):
            column = columns[symbol]
            # the bit is shifted into the parent's column, which has no more
            # tuples than the step unless the parent has the larger arity
            if bit:
                column = tuple(map(operator.lshift, column, itertools.repeat(bit)))
            keys = map(operator.or_, keys, getter(column))
        keys = list(keys)
        try:
            return list(map(step.cache.__getitem__, keys))
        except KeyError:
            # a key met for the first time is evaluated at its first tuple
            structure = Structure(self.net.signature, self.n, columns)
            for i, key in enumerate(keys):
                if key not in step.cache:
                    step.cache[key] = self._evaluate(structure, step, step.tuples[i])
            return list(map(step.cache.__getitem__, keys))

    def sample(self, rng: random.Random) -> Structure:
        """A world drawn with ``rng``: one uniform per tuple, step by step
        in plan order and each step's tuples in lexicographic order, the
        tuple entering its relation when the uniform is below theta."""
        columns: dict[str, bytes] = {}
        draw = rng.random
        for step in self._plan:
            thetas = self._thetas(columns, step)
            draws = itertools.starmap(draw, itertools.repeat((), len(thetas)))
            columns[step.name] = bytes(map(operator.gt, thetas, draws))
        return Structure(self.net.signature, self.n, columns)


def sample(net: PlaNetwork, n: int, seed, registry=None) -> Structure:
    """One world drawn from the induced distribution; deterministic given
    the seed."""
    return WorldSampler(net, n, registry).sample(random.Random(seed))


@dataclass
class WorldWeight:
    structure: Structure
    probability: float


def _check_world_cap(net: PlaNetwork, n: int, world_cap: int) -> None:
    """Raise TooManyWorlds when the 2^B worlds at domain size n, B the
    total number of tuples, exceed the cap."""
    check_cap(sum(n ** arity for _, arity in net.signature.symbols), world_cap, "worlds",
              TooManyWorlds)


# L's worlds are weighed in chunks of at most 2^_CHUNK_BITS, so the lists
# of one chunk stay small however many tuples L has
_CHUNK_BITS = 12


def _factors(thetas: list, mask: int) -> list:
    """Per tuple of a step, theta where the mask has the tuple, else 1 - theta."""
    return [p if mask >> j & 1 else 1.0 - p for j, p in enumerate(thetas)]


# the digits of a binary numeral -> the bytes of a column
_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


def _column(mask: int, width: int) -> bytes:
    """The column of a relation bitmask over ``width`` tuples: byte j is
    bit j of the mask."""
    return bin(mask)[:1:-1].ljust(width, "0").encode().translate(_BINARY_DIGITS)


def _enumerate(sampler: WorldSampler) -> Iterator[tuple[tuple[int, ...], Callable, list]]:
    """``(masks, world, probabilities)`` for every world of the sampler's
    network at its domain size, a chunk of worlds at a time.  ``masks`` are
    the relation bitmasks in the sampler's plan order, bit i standing for
    the i-th tuple in lexicographic order.  The worlds are in
    ``itertools.product`` order of the masks, the plan's last step L
    changing fastest; a chunk is a run of at most ``2 ** _CHUNK_BITS``
    consecutive masks of L, the others fixed.  ``probabilities[i]`` is the
    probability of the world whose L mask is ``masks[-1] + i``, and
    ``world(i)``, called before the next chunk, builds that world's
    structure from the masks' columns.

    The probability of a world is the probability of drawing it: the
    product, step by step in the sampler's plan order and over each step's
    tuples in lexicographic order, of theta for each present tuple and
    1 - theta for each absent one.  This is the only place where a world's
    probability is multiplied, and each is the same left fold of the same
    floats as a world-by-world loop.  Per block of L's 2^m worlds, m the
    number of L's tuples:

    - every other step comes before L in the plan and cannot read L, so
      their factors are folded into one prefix, once per block;
    - L's step expands the prefix tuple by tuple as a tree,
      ``leaves = [x * (1 - p) ...] + [x * p ...]``, so bit j of a leaf's
      index is tuple j and each leaf is the left fold: about two
      multiplications per world.  A block larger than a chunk expands its
      low ``_CHUNK_BITS`` tuples once and multiplies in the other
      m - ``_CHUNK_BITS`` per chunk and world, so its lists stay the size
      of a chunk.  Sharing those products too would yield the chunks out
      of world order or take a block of memory, since the highest bit of a
      mask is the tuple multiplied last.

    A theta list is evaluated again only when the mask of one of the
    step's parents changes (``validate`` guarantees that theta reads no
    other symbol), and a column only when its mask does."""
    net, n = sampler.net, sampler.n
    plan = sampler._plan
    if not plan:
        yield (), lambda i: Structure(net.signature, n), [1.0]
        return
    names = [step.name for step in plan]
    last = len(plan) - 1
    # the last plan position among each step's parents; -1 for a root
    last_parent = [max((j for j in range(k) if names[j] in net.parents[step.name]), default=-1)
                   for k, step in enumerate(plan)]
    width = len(plan[last].tuples)
    low = min(width, _CHUNK_BITS)
    masks = [0] * len(plan)
    columns: dict[str, bytes] = {}  # of the steps before L, at their masks
    thetas: list = [None] * len(plan)

    def world(base, i):
        return Structure(net.signature, n, {**columns, names[last]: _column(base + i, width)})

    changed = 0  # masks at positions >= changed differ from the last block's
    while True:
        for k in range(changed, last):
            columns[names[k]] = _column(masks[k], len(plan[k].tuples))
        for k, step in enumerate(plan):
            if thetas[k] is None or last_parent[k] >= changed:
                thetas[k] = sampler._thetas(columns, step)  # no step reads L
        prefix = 1.0
        for k in range(last):
            prefix = functools.reduce(operator.mul, _factors(thetas[k], masks[k]), prefix)
        base_leaves = [prefix]
        for p in thetas[last][:low]:
            base_leaves = [x * (1.0 - p) for x in base_leaves] + [x * p for x in base_leaves]
        for high in range(1 << (width - low)):
            leaves = base_leaves
            for p in _factors(thetas[last][low:], high):
                leaves = [x * p for x in leaves]
            masks[last] = high << low
            yield tuple(masks), functools.partial(world, masks[last]), leaves
        # the next masks of the steps before L, the last changing fastest
        changed = last - 1
        while changed >= 0 and masks[changed] + 1 == 1 << len(plan[changed].tuples):
            masks[changed] = 0
            changed -= 1
        if changed < 0:
            return
        masks[changed] += 1


def exact_distribution(
    net: PlaNetwork,
    n: int,
    world_cap: int = DEFAULT_WORLD_CAP,
    registry=None,
) -> list[WorldWeight]:
    """Every world with its exact probability, in ``_enumerate``'s order:
    by relation bitmask in the sampler's plan order, tuples in
    lexicographic order.  The cap is checked before the first world is
    built."""
    _check_world_cap(net, n, world_cap)
    worlds = []
    for _, world, probabilities in _enumerate(WorldSampler(net, n, registry)):
        worlds += [WorldWeight(world(i), prob) for i, prob in enumerate(probabilities)]
    return worlds


@dataclass(frozen=True)
class ValueSet:
    """Finite union of closed intervals within [0, 1]; points are singleton
    intervals."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for lo, hi in self.intervals:
            # false for NaN too
            if not (0.0 <= lo <= 1.0 and 0.0 <= hi <= 1.0):
                raise PlaError("value set interval [%r, %r] is not within [0, 1]" % (lo, hi))
            if lo > hi:
                raise ValueError("empty interval [%r, %r]" % (lo, hi))

    def contains(self, x: float) -> bool:
        return any(lo <= x <= hi for lo, hi in self.intervals)

    @classmethod
    def point(cls, value: float) -> "ValueSet":
        return cls(((value, value),))

    @classmethod
    def full(cls) -> "ValueSet":
        return cls(((0.0, 1.0),))

    @classmethod
    def parse(cls, text: str, name: str = "value set") -> "ValueSet":
        """Comma-separated points or lo:hi intervals, e.g. ``1`` or
        ``0:0.2,0.8:1``; a PlaError that names ``name`` and quotes the text
        when it is not of that form, and the constructor's errors, of the
        same type, with ``name`` and the text put in front."""
        intervals = []
        try:
            for chunk in text.split(","):
                lo, colon, hi = chunk.partition(":")
                intervals.append((float(lo), float(hi if colon else lo)))
        except ValueError:
            raise PlaError("%s must be comma-separated points or lo:hi intervals, got %r"
                           % (name, text)) from None
        try:
            return cls(tuple(intervals))
        except (PlaError, ValueError) as exc:
            raise type(exc)("%s %r: %s" % (name, text, exc)) from None

    def __str__(self):
        parts = []
        for lo, hi in self.intervals:
            parts.append(repr(lo) if lo == hi else "%r:%r" % (lo, hi))
        return ",".join(parts)


def _in_value_set(phi, assignment, value_set, registry, world) -> tuple[bool]:
    """The hit of the event that the formula's value lands in the value set."""
    return (value_set.contains(evaluate(world, phi, assignment, registry)),)


# memo byte -> 1 for a world whose value lands in the value set, else 0
_SELECTED = bytes([0, 0, 1]).ljust(256, b"\0")


def exact_event_probability(
    net: PlaNetwork,
    n: int,
    phi: Formula,
    assignment=None,
    value_set: ValueSet = None,
    world_cap: int = DEFAULT_WORLD_CAP,
    registry=None,
) -> float:
    """Probability, under the exact world distribution, that the formula's
    value lands in the value set: the sum, in ``_enumerate``'s order, of
    the probabilities of the worlds where it does.

    The formula's value depends only on the relations of the symbols
    it reads, so whether it lands in the set is memoised by their masks:
    the formula is evaluated at the first world with each combination, and
    an error it raises surfaces at the same world as without the memo.  The
    memo is one byte per combination, indexed by the masks as one
    mixed-radix number, so it holds at most as many bytes as there are
    worlds.

    The worlds and their masks come in ``_enumerate``'s order, the
    sampler's plan order.  A chunk is read as one strided slice of the
    memo, the bytes of the plan's last symbol's consecutive masks, or as
    one byte when the formula does not read that symbol.  Its unset bytes
    are filled in mask order, and its selected probabilities are added to
    the total one by one in world order with ``functools.reduce``.
    ``sum()`` would not do: from Python 3.12 on it adds floats with
    compensation, so its result depends on the Python version."""
    if value_set is None:
        value_set = ValueSet.full()
    _check_world_cap(net, n, world_cap)
    sampler = WorldSampler(net, n, registry)
    read = relation_symbols(phi)
    strides = []
    combinations = 1
    for step in sampler._plan:
        strides.append(combinations if step.name in read else 0)
        if step.name in read:
            combinations <<= len(step.tuples)
    memo = bytearray(combinations)  # 0: not yet evaluated, 1: outside the set, 2: inside
    stride = strides[-1] if strides else 0
    in_set = functools.partial(_in_value_set, phi, assignment, value_set, registry)
    total = 0.0
    for masks, world, probabilities in _enumerate(sampler):
        key = sum(map(operator.mul, masks, strides))
        span = (slice(key, key + len(probabilities) * stride, stride) if stride
                else slice(key, key + 1))
        flags = memo[span]
        if 0 in flags:
            for i, flag in enumerate(flags):
                if not flag:
                    (inside,) = in_set(world(i))
                    memo[key + i * stride] = 2 if inside else 1
            flags = memo[span]
        selected = flags.translate(_SELECTED)
        if not stride:
            selected *= len(probabilities)
        total = functools.reduce(operator.add, itertools.compress(probabilities, selected), total)
    return total


def ci_halfwidth(p_hat: float, samples: int) -> float:
    """Half-width of the 95% normal confidence interval of a proportion."""
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / samples)


# worlds per seeded block of a Monte Carlo run
_MC_BLOCK = 1024


def _mc_hits(net, n, hit, registry, blocks) -> tuple[int, ...]:
    """The column sums of ``hit`` over the worlds of ``blocks``, (size,
    seed) pairs, drawn by one sampler from a fresh ``random.Random(seed)``
    per block; the first world's row starts the sums, so exactly the
    blocks' worlds are drawn."""
    sampler = WorldSampler(net, n, registry)
    rows = (hit(sampler.sample(rng))
            for size, seed in blocks for rng in (random.Random(seed),) for _ in range(size))
    return functools.reduce(lambda total, row: tuple(map(operator.add, total, row)), rows)


def mc_estimates(net: PlaNetwork, n: int, hit, samples: int, seed, workers: int = 1,
                 registry=None) -> list[tuple[float, float]]:
    """The one Monte Carlo driver: for each column of the 0/1 tuple
    ``hit(world)``, the fraction of ``samples`` worlds drawn at domain size
    n where it is 1, and the half-width of its 95% confidence interval.

    The worlds are drawn in blocks of ``_MC_BLOCK``, block i from
    ``random.Random(seed + 0x9E3779B9 * i)``, so the estimates depend only
    on the seed and ``samples``.  Worker j sums the hits of blocks j,
    j + workers, ...; with more than one such shard they run in a process
    pool of at most one process per shard and per CPU, and the integer
    sums do not depend on the split.  ``hit`` must be picklable."""
    if samples < 1:  # the CLI checks first, to name --samples
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    if workers < 1:  # the CLI checks first, to name --workers
        raise ValueError("workers must be >= 1, got %d" % workers)
    blocks = [(min(_MC_BLOCK, samples - start), seed + 0x9E3779B9 * i)
              for i, start in enumerate(range(0, samples, _MC_BLOCK))]
    shards = [blocks[j::workers] for j in range(min(workers, len(blocks)))]
    count = functools.partial(_mc_hits, net, n, hit, registry)
    if len(shards) == 1:
        parts = [count(blocks)]
    else:
        from concurrent.futures import ProcessPoolExecutor

        # a process pool starts all its processes at once, so it is sized by the work
        with ProcessPoolExecutor(max_workers=min(len(shards), os.cpu_count() or 1)) as pool:
            parts = list(pool.map(count, shards))
    return [(hits / samples, ci_halfwidth(hits / samples, samples))
            for hits in map(sum, zip(*parts))]


def mc_event_probability(
    net: PlaNetwork,
    n: int,
    phi: Formula,
    assignment=None,
    value_set: ValueSet = None,
    samples: int = 1000,
    seed=0,
    workers: int = 1,
    registry=None,
) -> tuple[float, float]:
    """Monte Carlo estimate of the event probability and the half-width of
    its 95% normal confidence interval (``mc_estimates``): it depends only
    on the seed and ``samples``, not on ``workers``."""
    if value_set is None:
        value_set = ValueSet.full()
    hit = functools.partial(_in_value_set, phi, assignment, value_set, registry)
    (estimate,) = mc_estimates(net, n, hit, samples, seed, workers, registry)
    return estimate


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _relations(doc, fields: dict, required: tuple[str, ...]) -> list[dict]:
    """The 'relations' list of a network or structure document, checked to
    hold objects that have the required keys and whose fields, where
    present, have exactly the given types (so true or false is no int)."""
    relations = doc.get("relations") if isinstance(doc, dict) else None
    if not isinstance(relations, list):
        raise PlaError("document needs a 'relations' list")
    for i, rel in enumerate(relations):
        if not isinstance(rel, dict):
            raise PlaError("relation %d is not an object: %r" % (i, rel))
        named = " (%s)" % rel["name"] if isinstance(rel.get("name"), str) else ""
        for key, kind in fields.items():
            if key in rel and type(rel[key]) is not kind:
                raise PlaError("relation %d%s: %r must be of type %s, got %r"
                               % (i, named, key, kind.__name__, rel[key]))
        missing = [key for key in required if key not in rel]
        if missing:
            raise PlaError("relation %d%s: missing required key %s"
                           % (i, named, ", ".join(repr(key) for key in missing)))
    return relations


def network_from_doc(doc: dict, registry=None) -> PlaNetwork:
    """Build a network from its document form: a list of relations, each
    with name, arity, parents and formula text (free variables x1..xk)."""
    relations = _relations(doc, {"name": str, "arity": int, "parents": list, "theta": str},
                           ("name", "arity", "theta"))
    if registry is None:
        registry = aggregators.DEFAULT_REGISTRY
    symbols = []
    parents = {}
    theta = {}
    for i, rel in enumerate(relations):
        name, arity = rel["name"], rel["arity"]
        symbols.append((name, arity))
        parents[name] = tuple(rel.get("parents", ()))
        try:
            theta[name] = formula_parser.parse_formula(rel["theta"], registry)
        except formula_parser.ParseError as exc:
            raise PlaError("relation %d (%s): theta: %s" % (i, name, exc)) from None
    return PlaNetwork(Signature(tuple(symbols)), parents, theta)


def network_to_doc(net: PlaNetwork) -> dict:
    return {
        "relations": [
            {
                "name": name,
                "arity": arity,
                "parents": list(net.parents[name]),
                "theta": formula_parser.format_formula(net.theta[name]),
            }
            for name, arity in net.signature.symbols
        ]
    }


def load_network(path: str, registry=None) -> PlaNetwork:
    with open(path) as handle:
        return network_from_doc(json.load(handle), registry)


def structure_to_doc(structure: Structure) -> dict:
    return {
        "domain_size": structure.domain_size,
        "relations": [
            {
                "name": name,
                "arity": arity,
                "tuples": [list(t) for t in structure.tuples(name)],
            }
            for name, arity in structure.signature.symbols
        ],
    }


def structure_from_doc(doc: dict) -> Structure:
    relations = _relations(doc, {"name": str, "arity": int, "tuples": list},
                           ("name", "arity", "tuples"))
    if "domain_size" not in doc:
        raise PlaError("structure document: missing required key 'domain_size'")
    size = doc["domain_size"]
    if type(size) is not int:
        raise PlaError("structure document: 'domain_size' must be of type int, got %r" % (size,))
    for rel in relations:
        if not all(isinstance(t, list) and all(type(e) is int for e in t)
                   for t in rel["tuples"]):
            raise PlaError("relation %r: every tuple must be a list of elements" % rel["name"])
    symbols = tuple((rel["name"], rel["arity"]) for rel in relations)
    return Structure.of(Signature(symbols), size,
                        {rel["name"]: [tuple(t) for t in rel["tuples"]] for rel in relations})


def load_structure(path: str) -> Structure:
    with open(path) as handle:
        return structure_from_doc(json.load(handle))
