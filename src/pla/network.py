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
import sys
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional

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
    has_aggregation,
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


# a key of more than 8 bits takes a slot of 2, 4 or 8 bytes per tuple, read
# as one native unsigned int
_SLOT_FORMATS = {2: "H", 4: "I", 8: "Q"}


def _slice_gather(n: int, arity: int, positions) -> tuple[list, Optional[tuple[bytes, bytes]]]:
    """How a column over [n] of arity m = len(positions) is read at every
    tuple of arity ``arity`` over [n], in lexicographic order, when the
    column's argument tuple takes its j-th element from place
    ``positions[j]``.  The column index is linear in the tuple t,
    sum_i c_i (t_i - 1) with c_i = sum of n^(m-1-j) over the j with
    ``positions[j] = i``, so each run of the last place, n tuples, reads
    ``column[base : base + c (n - 1) + 1 : c]``, c the last place's c_i.
    The result is ``(indices, runs)``: the n^(arity-1) slices, runs None;
    or, when c is 0 and a run reads one byte n times, the ints ``base``
    and ``runs``, the runs of n bytes 0 and of n bytes 1 that they stand
    for."""
    coefficients = [0] * arity
    for j, p in enumerate(positions):
        coefficients[p] += n ** (len(positions) - 1 - j)
    bases = [0]
    for c in coefficients[:-1]:
        repeated = itertools.chain.from_iterable(map(itertools.repeat, bases, itertools.repeat(n)))
        offsets = itertools.cycle(list(map(operator.mul, range(n), itertools.repeat(c))))
        bases = list(map(operator.add, repeated, offsets))
    c = coefficients[-1]
    if not c:
        return bases, (bytes(n), b"\1" * n)
    stops = map(operator.add, bases, itertools.repeat(c * (n - 1) + 1))
    return list(map(slice, bases, stops, itertools.repeat(c))), None


def _packed(columns: dict[str, bytes], gathers, stride: int, packed: int = 0) -> int:
    """``packed`` or'd with the bits of the ``gathers`` (see ``_Step``) at
    every tuple, each read by its ``_slice_gather`` from its symbol's 0/1
    column and put in the first byte of the tuple's slot of ``stride``
    bytes."""
    for symbol, shift, indices, runs in gathers:
        pieces = map(columns[symbol].__getitem__, indices)
        gathered = b"".join(pieces if runs is None else map(runs.__getitem__, pieces))
        if stride > 1:
            slots = bytearray(len(gathered) * stride)
            slots[::stride] = gathered
            gathered = slots
        packed |= int.from_bytes(gathered, "little") << shift
    return packed


class _Step(NamedTuple):
    """One symbol of a sampler's plan, in stratification order.

    ``width`` is the number of the symbol's tuples over [n], n^arity, one
    per byte of its column, in lexicographic order.  No list of the tuples
    is kept: where theta is evaluated a tuple is built from its index.
    Theta's key at a tuple has bit a set where theta's a-th distinct atom,
    in preorder, holds there, and bit ``len(gathers) + b`` where the b-th
    pair of argument positions i < j holds equal elements.  The keys of
    the step's tuples are packed in one slot of ``stride`` bytes each, 1,
    2, 4 or 8, which read as a native unsigned int is the key; ``keys``
    are the equality-pattern bits so packed.  ``gathers`` are the atoms,
    each as its symbol, the shift of its bit within the little-endian int
    of the packed keys, and the ``_slice_gather`` that reads it from its
    symbol's column.  ``cache`` maps a key to theta; it is None, and so are
    ``keys``, for a symbol with parents whose formula aggregates, which is
    evaluated at every tuple.
    """

    name: str
    theta: Formula
    variables: tuple[Variable, ...]
    width: int
    stride: int
    keys: Optional[bytes]
    gathers: tuple[tuple[str, int, list, Optional[tuple[bytes, bytes]]], ...]
    cache: Optional[dict]


class WorldSampler:
    """Draws worlds from the induced distribution at a fixed domain size.

    A drawn relation is a column of the world (see ``Structure``): one byte
    per tuple in lexicographic order, 1 for a member.  An aggregation-free
    theta_R at a tuple depends only on the tuple's equality pattern and the
    truth values there of the distinct atoms it reads; a root's theta reads
    no atoms, so it depends on the pattern alone, with or without
    aggregation.  Those thetas are cached per symbol under that key, at
    most 64 bits, one per atom and one per pair of argument positions; a
    theta whose key takes more is refused when the sampler is built.  An
    atom's truth values at all of a step's tuples are gathered from its
    symbol's column as n^(arity-1) slices fixed at construction (see
    ``_slice_gather``), and the keys of all the tuples are packed as one
    int, a bit shift and an or per atom, so after the first evaluation per
    key a step costs a few operations in C over bytes and one dictionary
    lookup per tuple, fed straight into the draws.  Only a non-root theta
    that contains aggregation is evaluated at every tuple, on one structure
    per theta list, so a counting aggregation node keys the domain once per
    list, not once per tuple.  A step keeps its equality-pattern keys,
    ``stride`` bytes per tuple, but no tuple: tuples are built only where
    theta is evaluated.  Thetas are evaluated in ``DEFAULT_REGISTRY``,
    where the network was checked.
    """

    def __init__(self, net: PlaNetwork, n: int):
        check_size(net.signature, n)
        self.net = net
        self.n = n
        strat = validate(net)
        self._plan: list[_Step] = []
        for name in strat.order:
            theta = net.theta[name]
            variables = net.theta_variables(name)
            arity = len(variables)
            width = n ** arity
            if net.parents[name] and has_aggregation(theta):
                self._plan.append(_Step(name, theta, variables, width, 1, None, (), None))
                continue
            atoms = distinct_atoms((theta,))
            pairs = list(itertools.combinations(range(arity), 2))
            bits = len(atoms) + len(pairs)
            if bits > 64:
                raise PlaError("the sampler keys the formula of %s by %d bits, one per atom and "
                               "per pair of argument positions, more than 64" % (name, bits))
            stride = min(s for s in (1, 2, 4, 8) if 8 * s >= bits)
            # a pair of positions reads the n x n column that is 1 where the
            # two elements are equal, under the symbol name None
            reads = [(atom.symbol, list(map(variables.index, atom.args))) for atom in atoms]
            reads += [(None, pair) for pair in pairs]
            # bit b of a key is bit b of its slot read as a native int
            shifts = (range(len(reads)) if sys.byteorder == "little" else
                      [8 * (stride - 1 - bit // 8) + bit % 8 for bit in range(len(reads))])
            gathers = [(symbol, shift, *_slice_gather(n, arity, positions))
                       for shift, (symbol, positions) in zip(shifts, reads)]
            diagonal = (b"\1" + bytes(n)) * (n - 1) + b"\1" if pairs else b""
            packed = _packed({None: diagonal}, gathers[len(atoms):], stride)
            keys = packed.to_bytes(width * stride, "little")
            self._plan.append(
                _Step(name, theta, variables, width, stride, keys, tuple(gathers[:len(atoms)]), {}))

    def _evaluate(self, structure: Structure, step: _Step, args) -> float:
        try:
            return evaluate(structure, step.theta, dict(zip(step.variables, args)))
        except PlaError as exc:
            raise PlaError(
                "evaluating formula of %s at %s with n=%d: %s" % (step.name, args, self.n, exc)
            ) from exc

    def _keys(self, columns: dict[str, bytes], step: _Step):
        """Theta's key at each of the step's tuples, in order, given the
        columns of the symbols of lower strata, by symbol: bytes, or for
        a stride above 1 a ``memoryview`` of native unsigned ints.  Each
        key not yet in the cache is evaluated first, at its first tuple,
        on one structure of the columns."""
        packed = _packed(columns, step.gathers, step.stride, int.from_bytes(step.keys, "little"))
        keys = packed.to_bytes(len(step.keys), "little")
        cache = step.cache
        if step.stride == 1:
            new, position = keys.translate(None, bytes(cache)), keys.index
        else:
            keys = memoryview(keys).cast(_SLOT_FORMATS[step.stride])
            new, position = set(keys).difference(cache), functools.partial(operator.indexOf, keys)
        if new:
            structure = Structure(self.net.signature, self.n, columns)
            for first in sorted(map(position, set(new))):
                args, index = [], first
                for _ in step.variables:
                    index, element = divmod(index, self.n)
                    args.append(element + 1)
                cache[keys[first]] = self._evaluate(structure, step, tuple(reversed(args)))
        return keys

    def _thetas(self, columns: dict[str, bytes], step: _Step) -> list[float]:
        """Theta of the step's symbol at each of its tuples, in order, given
        the columns of the symbols of lower strata, by symbol: a cached
        step's looked up by its ``_keys``, as ``sample`` looks them up
        without the list.  A structure of the columns is built only where
        theta is evaluated, once per call."""
        if step.cache is not None:
            return list(map(step.cache.__getitem__, self._keys(columns, step)))
        structure = Structure(self.net.signature, self.n, columns)
        tuples = itertools.product(range(1, self.n + 1), repeat=len(step.variables))
        return [self._evaluate(structure, step, args) for args in tuples]

    def sample(self, rng: random.Random) -> Structure:
        """A world drawn with ``rng``: one uniform per tuple, step by step
        in plan order and each step's tuples in lexicographic order, the
        tuple entering its relation when the uniform is below theta.  A
        cached step's thetas are looked up by key as the draws consume
        them, with no list of them."""
        columns: dict[str, bytes] = {}
        draw = rng.random
        for step in self._plan:
            if step.cache is None:
                thetas = self._thetas(columns, step)
            else:
                thetas = map(step.cache.__getitem__, self._keys(columns, step))
            draws = itertools.starmap(draw, itertools.repeat((), step.width))
            columns[step.name] = bytes(map(operator.gt, thetas, draws))
        return Structure(self.net.signature, self.n, columns)


def sample(net: PlaNetwork, n: int, seed) -> Structure:
    """One world drawn from the induced distribution; deterministic given
    the seed."""
    return WorldSampler(net, n).sample(random.Random(seed))


@dataclass
class WorldWeight:
    structure: Structure
    probability: float


def _check_world_cap(net: PlaNetwork, n: int, world_cap: int) -> None:
    """Raise TooManyWorlds when the 2^B worlds at domain size n, B the
    total number of tuples, exceed the cap."""
    check_cap(sum(n ** arity for _, arity in net.signature.symbols), world_cap, "worlds",
              TooManyWorlds)


# a step's masks are weighed in chunks of at most 2^_CHUNK_BITS, so the
# lists of one chunk stay small however many tuples the step has
_CHUNK_BITS = 12


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
    1 - theta for each absent one, each the same left fold of the same
    floats as a world-by-world loop.  The worlds are walked depth first,
    one plan step per level, and every step is weighed the same way:

    - ``walk(k, prefix)`` expands ``prefix``, the product of the steps
      before k at their masks, over step k's tuples as a tree,
      ``leaves = [x * (1 - p) ...] + [x * p ...]``, so bit j of a leaf's
      index is tuple j and each leaf is the left fold: about two
      multiplications per mask.  A step of more than ``_CHUNK_BITS``
      tuples expands its low ``_CHUNK_BITS`` tuples once and multiplies in
      the others per chunk and leaf, so its lists stay the size of a chunk;
    - at L each chunk of leaves is yielded; at any other step each leaf
      sets the step's mask and column and is the prefix of the next level.

    A theta list is evaluated once at the start for a root and otherwise
    right after the mask of the step's last parent in plan order is set
    (``validate`` guarantees that theta reads no other symbol), and a
    column only when its mask is set."""
    net, n = sampler.net, sampler.n
    plan = sampler._plan
    if not plan:
        yield (), lambda i: Structure(net.signature, n), [1.0]
        return
    names = [step.name for step in plan]
    last = len(plan) - 1
    # the steps by the plan position of their last parent; -1 for the roots
    children: dict[int, list[int]] = {}
    for k, step in enumerate(plan):
        parent = max((j for j in range(k) if names[j] in net.parents[step.name]), default=-1)
        children.setdefault(parent, []).append(k)
    masks = [0] * len(plan)
    columns: dict[str, bytes] = {}  # of the steps before L, at their masks
    thetas: list = [None] * len(plan)

    def refresh(parent):
        for k in children.get(parent, ()):
            thetas[k] = sampler._thetas(columns, plan[k])  # no step reads L

    def world(base, i):
        return Structure(net.signature, n,
                         {**columns, names[last]: _column(base + i, plan[last].width)})

    def walk(k, prefix):
        ps, width = thetas[k], plan[k].width
        low = min(width, _CHUNK_BITS)
        base_leaves = [prefix]
        for p in ps[:low]:
            base_leaves = [x * (1.0 - p) for x in base_leaves] + [x * p for x in base_leaves]
        for high in range(1 << (width - low)):
            leaves = base_leaves
            for j, p in enumerate(ps[low:]):
                factor = p if high >> j & 1 else 1.0 - p
                leaves = [x * factor for x in leaves]
            if k == last:
                masks[k] = high << low
                yield tuple(masks), functools.partial(world, masks[k]), leaves
                continue
            for mask, leaf in enumerate(leaves, high << low):
                masks[k] = mask
                columns[names[k]] = _column(mask, width)
                refresh(k)
                yield from walk(k + 1, leaf)

    refresh(-1)
    yield from walk(0, 1.0)


def exact_distribution(
    net: PlaNetwork,
    n: int,
    world_cap: int = DEFAULT_WORLD_CAP,
) -> list[WorldWeight]:
    """Every world with its exact probability, in ``_enumerate``'s order:
    by relation bitmask in the sampler's plan order, tuples in
    lexicographic order.  The cap is checked before the first world is
    built."""
    _check_world_cap(net, n, world_cap)
    worlds = []
    for _, world, probabilities in _enumerate(WorldSampler(net, n)):
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


def _binomial(m: int, p: float) -> list[float]:
    """C(m, r) p^r (1 - p)^(m - r) for r = 0, ..., m: the powers are running
    products and C(m, r) an int, so no libm ``pow`` enters and the floats
    are the same on every platform.  A PlaError when some C(m, r) exceeds
    the float range, from about m = 1030 on."""
    ins, outs = [1.0], [1.0]
    for _ in range(m):
        ins.append(ins[-1] * p)
        outs.append(outs[-1] * (1.0 - p))
    try:
        return [math.comb(m, r) * ins[r] * outs[m - r] for r in range(m + 1)]
    except OverflowError:
        raise PlaError("exact inference by counts cannot weigh %d elements in one cell: "
                       "their binomial coefficients exceed the float range" % m) from None


def _representative(sampler: WorldSampler, pinned: list[int], pins: tuple[int, ...],
                    counts: list[tuple[int, int]], steps: int) -> tuple[list[int], Structure]:
    """The cell of each element of [n] in the representative world of a
    ``_count_walk`` state, and the structure of that world's relations of
    the plan's first ``steps`` steps: the ``pinned`` elements are in their
    ``pins`` cells and the others, ascending, fill the cells in the order
    of ``counts``."""
    at = dict(zip(pinned, pins))
    rest = itertools.chain.from_iterable(itertools.starmap(itertools.repeat, counts))
    cells = [at[e] if e in at else next(rest) for e in range(1, sampler.n + 1)]
    return cells, Structure(sampler.net.signature, sampler.n, {
        sampler._plan[j].name: bytes([c >> j & 1 for c in cells]) for j in range(steps)})


def _count_walk(sampler: WorldSampler, pinned: list[int], leaf: Callable) -> None:
    """Calls ``leaf(pins, counts, probability)`` for every orbit of the
    worlds of the sampler's network, whose symbols are all unary, under the
    permutations of [n] that fix the ``pinned`` elements, ascending.

    A cell is an element's truth values under the plan's steps, bit k for
    step k.  An orbit is given by ``pins``, the pinned elements' cells, and
    ``counts``, (cell, count) pairs of the other elements' occupied cells;
    ``probability`` is the sum of its worlds' probabilities, and
    ``_representative`` builds one of its worlds.

    The orbits are walked depth first, one plan step per level, as
    ``_enumerate`` walks the worlds.  Step k splits each pair (c, m) into
    r elements in the step's relation, cell c + 2^k, and m - r outside it,
    with weight ``_binomial(m, theta)[r]``, and sends each pinned element
    in or out with weight theta or 1 - theta; an orbit's probability is
    the left fold of its weights in walk order.  All worlds of an orbit
    are equally likely, and theta is the same at every element whose cell
    has the same bits at the step's parents: it is evaluated once per such
    key, at the first such element of the state's representative world,
    and kept across states unless the formula aggregates over parents
    (``_Step.cache`` is None)."""
    net, plan = sampler.net, sampler._plan
    position = {step.name: k for k, step in enumerate(plan)}
    parent_bits = [sum(1 << position[p] for p in net.parents[step.name]) for step in plan]
    memos = [None if step.cache is None else {} for step in plan]
    binomials = {}  # (m, theta) -> _binomial(m, theta)

    def walk(k, pins, counts, prefix):
        step, bit, parents = plan[k], 1 << k, parent_bits[k]
        # a formula that aggregates over parents is evaluated anew at every state
        thetas = {} if memos[k] is None else memos[k]
        cells = structure = None
        for c in itertools.chain((c for c, _ in counts), pins):
            if (c & parents) not in thetas:
                if structure is None:
                    cells, structure = _representative(sampler, pinned, pins, counts, k)
                thetas[c & parents] = sampler._evaluate(structure, step, (cells.index(c) + 1,))
        # each choice is a part of the next state and its weight: a cell's
        # occupied halves, or a pinned element's cell
        choices = []
        for c, m in counts:
            theta = thetas[c & parents]
            if (m, theta) not in binomials:
                binomials[m, theta] = _binomial(m, theta)
            choices.append([(tuple((c + side, count) for side, count in ((0, m - r), (bit, r))
                                   if count), weight)
                            for r, weight in enumerate(binomials[m, theta])])
        choices += [((c, 1.0 - thetas[c & parents]), (c + bit, thetas[c & parents]))
                    for c in pins]
        # the next level is entered by a call, not through a chain of
        # generators, which would cost each orbit one resumption per level
        descend = leaf if k + 1 == len(plan) else functools.partial(walk, k + 1)
        for choice in itertools.product(*choices):
            parts, weights = zip(*choice)
            descend(parts[len(counts):], list(itertools.chain.from_iterable(parts[:len(counts)])),
                    functools.reduce(operator.mul, weights, prefix))

    others = sampler.n - len(pinned)
    start = ((0,) * len(pinned), [(0, others)] if others else [], 1.0)
    (functools.partial(walk, 0) if plan else leaf)(*start)


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
    value lands in the value set, by one of two walks chosen by the
    network's arities alone, so the result depends only on the network, n,
    the formula, its assignment and the value set; the cap on the worlds is
    checked first either way.  The registry resolves only the formula's
    aggregation nodes; the network's thetas are evaluated in
    ``DEFAULT_REGISTRY``.

    - When every symbol of the network is unary, ``_count_walk`` walks the
      orbits of the worlds under the permutations of [n] that fix the
      elements assigned to the formula's free variables, not the worlds.
      The formula's value is invariant under those permutations, since
      every ``AggregationFunction`` is symmetric, a function of the
      multiset of its arguments, as ``logic._eval_agg``'s grouping by key
      already assumes.  It depends only on the symbols it reads, so whether
      it lands in the set is memoised by the orbit's key: the assigned
      elements' cells and the counts, both projected onto the read
      symbols.  It is evaluated at the first orbit of each key, and the
      probabilities of the orbits where it lands are added in walk order.
      The walk covers the whole network whatever the formula reads, so two
      formulas that land in the set at the same orbits give the same float.
    - Otherwise ``_enumerate`` walks the worlds, and whether the value
      lands is memoised by the masks of the read symbols: one byte per
      combination, indexed by the masks as one mixed-radix number, so never
      more bytes than worlds.  A chunk of worlds reads its bytes as one
      strided slice, the bytes of the plan's last symbol's consecutive
      masks, or as one byte when the formula does not read that symbol; its
      unset bytes are filled in mask order, the formula evaluated at the
      first world of each combination, and its selected probabilities are
      added one by one in world order with ``functools.reduce``.

    Either total is capped at 1, which the rounding of the weights can
    carry a sure event past.  ``sum()`` would not do for either total: from
    Python 3.12 on it adds floats with compensation, so its result depends
    on the Python version."""
    if value_set is None:
        value_set = ValueSet.full()
    _check_world_cap(net, n, world_cap)
    sampler = WorldSampler(net, n)
    read = relation_symbols(phi)
    in_set = functools.partial(_in_value_set, phi, assignment, value_set, registry)
    assigned = {(assignment or {}).get(v) for v in free_vars(phi)}
    pinned = sorted(assigned & set(range(1, n + 1)))
    total = 0.0
    if all(arity == 1 for _, arity in net.signature.symbols):
        read_bits = sum(1 << k for k, step in enumerate(sampler._plan) if step.name in read)
        hits = {}  # orbit key -> whether the value lands in the set

        def leaf(pins, counts, probability):
            nonlocal total
            projected = {}
            for c, m in counts:
                projected[c & read_bits] = projected.get(c & read_bits, 0) + m
            key = tuple(c & read_bits for c in pins), tuple(sorted(projected.items()))
            hit = hits.get(key)
            if hit is None:
                _, world = _representative(sampler, pinned, pins, counts, len(sampler._plan))
                (hit,) = in_set(world)
                hits[key] = hit
            if hit:
                total += probability

        _count_walk(sampler, pinned, leaf)
    else:
        strides = []
        combinations = 1
        for step in sampler._plan:
            strides.append(combinations if step.name in read else 0)
            if step.name in read:
                combinations <<= step.width
        memo = bytearray(combinations)  # 0: not yet evaluated, 1: outside the set, 2: inside
        stride = strides[-1] if strides else 0
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
            total = functools.reduce(operator.add, itertools.compress(probabilities, selected),
                                     total)
    return min(total, 1.0)


def ci_halfwidth(p_hat: float, samples: int) -> float:
    """Half-width of the 95% normal confidence interval of a proportion."""
    return 1.96 * math.sqrt(p_hat * (1.0 - p_hat) / samples)


# worlds per seeded block of a Monte Carlo run
_MC_BLOCK = 1024


def _mc_hits(net, n, hit, blocks) -> tuple[int, ...]:
    """The column sums of ``hit`` over the worlds of ``blocks``, (size,
    seed) pairs, drawn by one sampler from a fresh ``random.Random(seed)``
    per block; the first world's row starts the sums, so exactly the
    blocks' worlds are drawn."""
    sampler = WorldSampler(net, n)
    rows = (hit(sampler.sample(rng))
            for size, seed in blocks for rng in (random.Random(seed),) for _ in range(size))
    return functools.reduce(lambda total, row: tuple(map(operator.add, total, row)), rows)


def mc_estimates(net: PlaNetwork, n: int, hit, samples: int, seed,
                 workers: int = 1) -> list[tuple[float, float]]:
    """The one Monte Carlo driver: for each column of the 0/1 tuple
    ``hit(world)``, the fraction of ``samples`` worlds drawn at domain size
    n where it is 1, and the half-width of its 95% confidence interval.

    The worlds are drawn in blocks of ``_MC_BLOCK``, block i from
    ``random.Random(seed + 0x9E3779B9 * i)``, so the estimates depend only
    on the seed and ``samples``.  Worker j sums the hits of blocks j,
    j + workers, ...; with more than one such shard they run in a process
    pool of at most one process per shard and per CPU, and the integer
    sums do not depend on the split.  ``hit`` must be picklable.  The
    worlds' thetas are evaluated in ``DEFAULT_REGISTRY``; ``hit`` evaluates
    its query in whatever registry it holds."""
    if samples < 1:  # the CLI checks first, to name --samples
        raise ValueError("samples must be >= 1, got %r" % (samples,))
    if workers < 1:  # the CLI checks first, to name --workers
        raise ValueError("workers must be >= 1, got %d" % workers)
    blocks = [(min(_MC_BLOCK, samples - start), seed + 0x9E3779B9 * i)
              for i, start in enumerate(range(0, samples, _MC_BLOCK))]
    shards = [blocks[j::workers] for j in range(min(workers, len(blocks)))]
    count = functools.partial(_mc_hits, net, n, hit)
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
    (estimate,) = mc_estimates(net, n, hit, samples, seed, workers)
    return estimate


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def _relations(doc, fields: dict, required: tuple[str, ...]) -> list[dict]:
    """The 'relations' list of a network or structure document, checked to
    hold objects that have the required keys and whose fields, where
    present, have exactly the given types (so true or false is no int),
    each named by an identifier that a formula can read."""
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
        # "wm(" always opens a weighted mean, so no atom can read a wm relation
        if rel["name"] == "wm" or not formula_parser.is_identifier(rel["name"]):
            raise PlaError("relation %d: name %r is not an identifier other than wm, so no "
                           "formula can read it" % (i, rel["name"]))
    return relations


def network_from_doc(doc: dict) -> PlaNetwork:
    """Build a network from its document form: a list of relations, each
    with name, arity, parents and formula text (free variables x1..xk)."""
    relations = _relations(doc, {"name": str, "arity": int, "parents": list, "theta": str},
                           ("name", "arity", "theta"))
    symbols = []
    parents = {}
    theta = {}
    for i, rel in enumerate(relations):
        name, arity = rel["name"], rel["arity"]
        symbols.append((name, arity))
        parents[name] = tuple(rel.get("parents", ()))
        try:
            theta[name] = formula_parser.parse_formula(rel["theta"])
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


def load_network(path: str) -> PlaNetwork:
    with open(path) as handle:
        return network_from_doc(json.load(handle))


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
