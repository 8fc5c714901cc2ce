"""Core logic: signatures, finite structures, formulas and their [0,1]-valued
semantics, complete atomic types, and folding of aggregation-free formulas
into basic probability formulas.

Truth values live in [0, 1].  The propositional connectives use the
Lukasiewicz semantics (min/max for and/or, ``min(1, 1 - a + b)`` for
implication), which agrees with the classical tables on {0, 1}.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import itemgetter
from typing import Callable, Collection, Iterator, Mapping, Optional, Sequence, Union

from . import aggregators
from .errors import PlaError


class EmptyAggregationRange(PlaError):
    """No bound tuple satisfies the equality constraint and the aggregation
    function declares no empty-input value."""


class NotAggregationFree(PlaError):
    """Operation requires a formula without aggregation nodes."""


class TooManyTypes(PlaError):
    """An equality type has more complete types than the cap allows."""


# ---------------------------------------------------------------------------
# Signatures, structures, variables
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Signature:
    """A finite relational signature: named relation symbols with arity >= 1."""

    symbols: tuple[tuple[str, int], ...]
    # slots(k) by k; kept by the instance, so that it dies with it
    _slots: dict = field(default_factory=dict, init=False, repr=False, compare=False,
                         hash=False)

    def __post_init__(self):
        names = [name for name, _ in self.symbols]
        if len(set(names)) != len(names):
            raise ValueError("duplicate relation symbol names: %r" % (names,))
        for name, arity in self.symbols:
            if arity < 1:
                raise ValueError("arity of %s must be >= 1, got %d" % (name, arity))

    @classmethod
    def of(cls, *symbols: tuple[str, int]) -> "Signature":
        return cls(tuple(symbols))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.symbols)

    def arity(self, name: str) -> int:
        for sym, arity in self.symbols:
            if sym == name:
                return arity
        raise KeyError("unknown relation symbol %r" % name)

    def __contains__(self, name: str) -> bool:
        return any(sym == name for sym, _ in self.symbols)

    def __reduce__(self):
        # a pickle carries the symbols only, not the slot cache
        return type(self), (self.symbols,)

    def slots(self, k: int) -> tuple[Literal, ...]:
        """The relation slots over k equality classes: (symbol, class tuple)
        pairs, ordered by symbol in signature order and then by class tuple,
        lexicographically.  An atomic type has one sign per slot, in this
        order."""
        slots = self._slots.get(k)
        if slots is None:
            slots = self._slots[k] = tuple(
                (name, ctuple)
                for name, arity in self.symbols
                for ctuple in itertools.product(range(k), repeat=arity)
            )
        return slots


TUPLE_CAP = 2 ** 24


def check_size(signature: Signature, n: int) -> None:
    """A ValueError for a domain size below 1; a PlaError for more than
    ``TUPLE_CAP`` tuples over [n], sum of n^arity over the symbols, checked
    from the sizes before any column or list of tuples is built."""
    if n < 1:
        raise ValueError("domain size must be >= 1")
    count = sum(n ** arity for _, arity in signature.symbols)
    if count > TUPLE_CAP:
        raise PlaError("a structure of domain size %d over %s has %d tuples, more than the "
                       "cap %d" % (n, ", ".join("%s/%d" % symbol for symbol in signature.symbols),
                                   count, TUPLE_CAP))


@dataclass
class Structure:
    """A finite structure with domain [n] = {1, ..., n}; a possible world.

    Each relation is a read-only column, one byte per tuple over [n] of the
    symbol's arity m, in ``itertools.product`` order, 1 for a member: tuple
    e has index sum_j (e_j - 1) * n^(m-1-j).  A symbol given no column has
    an empty relation."""

    signature: Signature
    domain_size: int
    columns: dict[str, bytes] = field(default_factory=dict)
    # per-world state that ``evaluate`` keeps across calls; valid for as
    # long as the structure, since its columns cannot change
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_size(self.signature, self.domain_size)
        given, n = self.columns, self.domain_size
        self.columns = {name: given[name] if name in given else bytes(n ** arity)
                        for name, arity in self.signature.symbols}

    @classmethod
    def of(cls, signature: Signature, n: int,
           tuples_by_symbol: Mapping[str, Collection[Sequence[int]]]) -> "Structure":
        """The structure whose relations hold the given tuples, by symbol;
        a ValueError names a tuple of the wrong arity or outside [n]."""
        check_size(signature, n)
        columns = {}
        for name, tuples in tuples_by_symbol.items():
            arity = signature.arity(name)
            for tup in tuples:
                if len(tup) != arity:
                    raise ValueError("tuple %r has wrong arity for %s" % (tup, name))
                if any(not (1 <= e <= n) for e in tup):
                    raise ValueError("tuple %r outside domain [%d]" % (tup, n))
            members = set(map(tuple, tuples))
            columns[name] = bytes(map(members.__contains__,
                                      itertools.product(range(1, n + 1), repeat=arity)))
        return cls(signature, n, columns)

    def holds(self, name: str, args: Sequence[int]) -> int:
        """The byte of the tuple ``args`` in the symbol's column: 1 for a
        member; 0 for a non-member, a tuple with an element outside [n] or
        one of the wrong arity, which read no other tuple's byte."""
        n, index = self.domain_size, 0
        if len(args) != self.signature.arity(name):
            return 0
        for e in args:
            if not 0 < e <= n:
                return 0
            index = index * n + e - 1
        return self.columns[name][index]

    def tuples(self, name: str) -> Iterator[tuple[int, ...]]:
        """The members of the symbol's relation, in column order."""
        every = itertools.product(range(1, self.domain_size + 1), repeat=self.signature.arity(name))
        return itertools.compress(every, self.columns[name])


@dataclass(frozen=True)
class Variable:
    name: str

    def __repr__(self):
        return "Variable(%r)" % self.name


Assignment = Mapping[Variable, int]


def _var_key(v: Variable) -> str:
    return v.name


# ---------------------------------------------------------------------------
# Equality types and atomic types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EqualityType:
    """A complete description of equalities among a tuple of variables,
    i.e. a partition of the variables into equality classes.

    Blocks are kept in canonical order: sorted by first occurrence of a
    member in ``variables``, members in ``variables`` order.
    """

    variables: tuple[Variable, ...]
    blocks: tuple[tuple[Variable, ...], ...]

    @classmethod
    def from_blocks(
        cls, variables: Sequence[Variable], blocks: Sequence[Sequence[Variable]]
    ) -> "EqualityType":
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError("variables must be distinct")
        seen: set[Variable] = set()
        for block in blocks:
            for v in block:
                if v in seen:
                    raise ValueError("variable %s in two blocks" % v.name)
                seen.add(v)
        if seen != set(variables):
            raise ValueError("blocks must partition the variables")
        pos = {v: i for i, v in enumerate(variables)}
        norm = tuple(
            tuple(sorted(block, key=pos.get))
            for block in sorted(blocks, key=lambda b: min(pos[v] for v in b))
        )
        return cls(variables, norm)

    @classmethod
    def all_distinct(cls, variables: Sequence[Variable]) -> "EqualityType":
        return cls.from_blocks(variables, [[v] for v in variables])

    @classmethod
    def all_partitions(cls, variables: Sequence[Variable]) -> list["EqualityType"]:
        """All complete equality types over ``variables`` in a deterministic
        order (restricted-growth strings, lexicographically)."""
        variables = tuple(variables)
        # a prefix with m classes extends by each old class or a new one
        patterns = [()]
        for _ in variables:
            patterns = [p + (c,) for p in patterns for c in range(len(set(p)) + 1)]
        return [
            cls.from_blocks(variables, [
                [v for v, c in zip(variables, p) if c == block] for block in range(len(set(p)))])
            for p in patterns
        ]

    @cached_property
    def class_index(self) -> dict[Variable, int]:
        return {v: i for i, block in enumerate(self.blocks) for v in block}

    def restrict(self, variables: Sequence[Variable]) -> "EqualityType":
        wanted = set(variables)
        keep = [v for v in self.variables if v in wanted]
        blocks = [[v for v in block if v in wanted] for block in self.blocks]
        return EqualityType.from_blocks(keep, [b for b in blocks if b])

    def pattern(self) -> tuple[int, ...]:
        """Class index per variable; equal tuples mean isomorphic patterns."""
        return tuple(self.class_index[v] for v in self.variables)


def equality_pattern(values: Sequence[int]) -> tuple[int, ...]:
    """Canonical equality pattern of a concrete tuple (restricted-growth string)."""
    seen: dict[int, int] = {}
    out = []
    for v in values:
        out.append(seen.setdefault(v, len(seen)))
    return tuple(out)


Literal = tuple[str, tuple[int, ...]]  # relation name, tuple of class indices


@dataclass(frozen=True)
class AtomicType:
    """A complete atomic type over a signature: an equality type plus one
    sign per relation slot (symbol + tuple of equality classes) of
    ``signature.slots``, in that order, True for a positive literal and
    False for a negative one; no literal is left undecided."""

    signature: Signature
    eq: EqualityType
    signs: tuple[bool, ...]

    def __post_init__(self):
        slots = self.signature.slots(len(self.eq.blocks))
        if len(self.signs) != len(slots):
            raise ValueError("%d signs for the %d slots over %d classes of the signature"
                             % (len(self.signs), len(slots), len(self.eq.blocks)))

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self.eq.variables

    @property
    def literals(self) -> tuple[tuple[Literal, bool], ...]:
        """Each slot of ``signature.slots`` with its sign."""
        return tuple(zip(self.signature.slots(len(self.eq.blocks)), self.signs))

    def restrict(self, variables: Sequence[Variable]) -> "AtomicType":
        """The complete type over ``variables`` that this type implies: the
        literals whose classes all keep a member in ``variables``."""
        eq, positions = restriction(self.signature, self.eq, variables)
        return AtomicType(self.signature, eq, tuple([self.signs[i] for i in positions]))

    def to_formula(self) -> "Formula":
        """The conjunction of the type's equalities and inequalities, then
        one literal per slot, on the first member of each class."""
        equalities, atoms = type_parts(self.signature, self.eq)
        return conjunction([*equalities,
                            *(atom if sign else Not(atom) for atom, sign in zip(atoms, self.signs))])


def structure_of_type(signature: Signature, k: int, signs: Sequence[bool]) -> Structure:
    """The canonical structure of a complete type over ``signature`` with k
    equality classes and these signs: a smallest structure realizing it,
    with element i+1 for class i, each column a slice of the signs, since
    ``signature.slots(k)`` is in column order (at k = 0, one element)."""
    columns, start = {}, 0
    for name, arity in signature.symbols:
        columns[name] = bytes(signs[start:start + k ** arity])
        start += k ** arity
    return Structure(signature, k, columns) if k else Structure(signature, 1)


def slot_positions(signature: Signature, k: int, slots: Sequence[Literal]) -> tuple[int, ...]:
    """The position of each given slot in ``signature.slots(k)``, which is
    also its position in the sign vector of a complete type over k equality
    classes.  Raises KeyError for a pair that is not such a slot."""
    position = {slot: i for i, slot in enumerate(signature.slots(k))}
    return tuple([position[slot] for slot in slots])


def restriction(signature: Signature, eq: EqualityType,
                variables: Sequence[Variable]) -> tuple[EqualityType, tuple[int, ...]]:
    """``AtomicType.restrict`` for every type with the equality type ``eq``
    at once: the restriction's equality type, and per slot of the
    restriction the position in such a type's sign vector of its sign."""
    restricted = eq.restrict(variables)
    # each class of the restriction is a class of ``eq`` minus the dropped
    # variables: its first member names the old class
    old = [eq.class_index[block[0]] for block in restricted.blocks]
    return restricted, slot_positions(signature, len(eq.blocks), [
        (name, tuple([old[c] for c in ctuple]))
        for name, ctuple in signature.slots(len(restricted.blocks))])


def type_parts(signature: Signature, eq: EqualityType) -> tuple[tuple["Formula", ...],
                                                                 tuple["Atom", ...]]:
    """The parts of ``AtomicType.to_formula`` for a type with equality type
    ``eq``: an equality or inequality per pair of its variables, in order,
    and the atom of each slot of ``signature.slots``, on the first member of
    each class."""
    vs = eq.variables
    equalities = tuple(
        Eq(u, v) if eq.class_index[u] == eq.class_index[v] else Not(Eq(u, v))
        for i, u in enumerate(vs) for v in vs[i + 1 :])
    reps = [block[0] for block in eq.blocks]
    atoms = tuple(Atom(name, tuple(reps[c] for c in ctuple))
                  for name, ctuple in signature.slots(len(eq.blocks)))
    return equalities, atoms


DEFAULT_TYPE_CAP = 2 ** 22


def check_cap(bits: int, cap: int, what: str, error: type[PlaError]) -> None:
    """Raise ``error`` when 2^bits ``what`` exceed the cap, building no 2^bits:
    for a cap of at least 1, 2^bits > cap exactly when bits >= cap.bit_length()."""
    if bits >= max(cap, 0).bit_length():
        raise error("2^%d %s exceed the cap %d" % (bits, what, cap))


def enumerate_complete_types(
    signature: Signature,
    variables: Sequence[Variable],
    eq: Optional[EqualityType] = None,
    cap: int = DEFAULT_TYPE_CAP,
) -> list[AtomicType]:
    """All complete atomic types over ``variables``, or only those whose
    equality type is ``eq``, in a deterministic order: equality partition
    first (as ``EqualityType.all_partitions`` lists them), then the sign
    vector over the partition's ``signature.slots``, False before True.
    Raises TooManyTypes, before building any type, when an equality type
    has more than ``cap`` types."""
    if eq is None:
        partitions = EqualityType.all_partitions(variables)
    elif eq.variables != tuple(variables):
        raise ValueError("the equality type must be over the enumerated variables")
    else:
        partitions = [eq]
    widths = [len(signature.slots(len(p.blocks))) for p in partitions]
    check_cap(max(widths), cap, "complete types", TooManyTypes)
    return [
        AtomicType(signature, p, signs)
        for p, width in zip(partitions, widths)
        for signs in itertools.product((False, True), repeat=width)
    ]


def index_bits(m: int) -> list[int]:
    """Slot j's bit, 2^(m - 1 - j), in the index of a complete type over m
    slots, which numbers the types of one equality type in
    ``enumerate_complete_types`` order."""
    return [1 << (m - 1 - j) for j in range(m)]


def index_keys(m: int, positions: Sequence[int]) -> list[int]:
    """Per index over m slots, in ascending order, the number its bits at
    the positions form, the first position's bit the most significant."""
    bit_of = dict(zip(positions, index_bits(len(positions))))
    keys = [0]
    for j in reversed(range(m)):  # from an index's lowest bit, slot m - 1's
        keys += [key | bit_of[j] for key in keys] if j in bit_of else keys
    return keys


def index_to_signs(index: int, m: int) -> tuple[bool, ...]:
    """The sign vector over m slots of the type with this index."""
    return tuple([index & bit != 0 for bit in index_bits(m)])


def signs_to_index(signs: Sequence[bool]) -> int:
    """The index of the type with this sign vector."""
    return sum(bit for bit, sign in zip(index_bits(len(signs)), signs) if sign)


# ---------------------------------------------------------------------------
# Formulas
# ---------------------------------------------------------------------------


class _Node:
    """The base of the formula classes: facts that ``_eval`` reads, each
    computed once and kept by the node, so they pickle with it."""

    @cached_property
    def _aggregation_free(self) -> bool:
        """No subformula aggregates, so evaluating this one raises no
        aggregation error: ``_eval`` may skip it."""
        return not has_aggregation(self)

    @cached_property
    def _spine(self) -> tuple["Formula", ...]:
        """For an ``&`` or ``|`` node, the operands of the left-nested chain
        of its connective below it (the parser's shape for ``p & q & ...``),
        left to right, walked in a loop so its length costs no stack depth."""
        rights = []
        phi = self
        while isinstance(phi, type(self)):
            rights.append(phi.right)
            phi = phi.left
        return (phi, *reversed(rights))

    @cached_property
    def _free_from(self) -> int:
        """The position in ``_spine`` from which every operand is
        aggregation-free; read only once a stop value is reached."""
        operands = self._spine
        i = len(operands)
        while i > 1 and operands[i - 1]._aggregation_free:
            i -= 1
        return i


@dataclass(frozen=True)
class Const(_Node):
    value: float

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError("constant %r outside [0, 1]" % (self.value,))


@dataclass(frozen=True)
class Eq(_Node):
    left: Variable
    right: Variable


@dataclass(frozen=True)
class Atom(_Node):
    symbol: str
    args: tuple[Variable, ...]


@dataclass(frozen=True)
class Not(_Node):
    sub: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class WeightedMean(_Node):
    """weight*left + (1 - weight)*right, all three being formulas."""

    weight: "Formula"
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Agg(_Node):
    """Aggregation node: apply the named function to the tuples of body
    values collected over all bound tuples satisfying the equality type.

    ``eq_type`` is complete over the union of the node's free and bound
    variables; the free variables are exactly ``eq_type.variables`` minus
    ``bound``.
    """

    func: str
    bodies: tuple["Formula", ...]
    bound: tuple[Variable, ...]
    eq_type: EqualityType

    def __post_init__(self):
        if not self.bodies:
            raise ValueError("aggregation needs at least one body")
        if not self.bound:
            raise ValueError("aggregation must bind at least one variable")
        if len(set(self.bound)) != len(self.bound):
            raise ValueError("bound variables must be distinct")
        eq_vars = set(self.eq_type.variables)
        if not set(self.bound) <= eq_vars:
            raise ValueError("bound variables must appear in the equality type")
        for body in self.bodies:
            if not free_vars(body) <= eq_vars:
                raise ValueError("body free variables must appear in the equality type")
        # canonical variable order: free variables sorted by name, then the
        # bound variables in binder order
        bound = set(self.bound)
        canonical = tuple(
            sorted((v for v in self.eq_type.variables if v not in bound), key=_var_key)
        ) + tuple(self.bound)
        if canonical != self.eq_type.variables:
            object.__setattr__(
                self,
                "eq_type",
                EqualityType.from_blocks(canonical, self.eq_type.blocks),
            )

    @property
    def params(self) -> tuple[Variable, ...]:
        """The node's free variables, in equality-type order."""
        bound = set(self.bound)
        return tuple(v for v in self.eq_type.variables if v not in bound)

    @cached_property
    def _body_table(self) -> Optional[tuple[tuple["Atom", ...], dict]]:
        """``(atoms, table)`` when no body aggregates, else None.

        ``eq_type`` is complete over ``params + bound``, so every bound tuple
        the node visits, at any assignment and domain size, has the same
        equality pattern, and an aggregation-free body's value there is a
        function of the truth values of its atoms alone.  ``atoms`` are the
        distinct atoms of all bodies; ``table`` maps their ``atom_keys`` to
        the tuple of body values, filled by ``_eval_bodies_by_count`` with
        one ``_eval`` per key, whichever way the node counts its keys (see
        ``_counting``).  Both parts pickle, so formulas still travel to
        worker processes.
        """
        if not all(body._aggregation_free for body in self.bodies):
            return None
        return distinct_atoms(self.bodies), {}

    @cached_property
    def _counting(self) -> Optional[EqualityType]:
        """``eq_type`` restricted to ``bound`` when the node keys and counts
        its domain elements once per world, else None: a node with a
        ``_body_table`` then counts the keys of each call's bound tuples
        (see ``_eval_bodies_by_count``).

        The node qualifies when it has a ``_body_table``, one equality class
        is exactly the bound variables and every body atom reads bound
        variables only (an equality may read a parameter: its value is
        fixed by ``eq_type``).  A bound tuple is then one domain element e
        repeated, and the bodies' values there depend on e alone.
        """
        bound = set(self.bound)
        if (self._body_table is None
                or bound not in map(set, self.eq_type.blocks)
                or any(not bound.issuperset(f.args) for body in self.bodies
                       for f in subformulas(body) if isinstance(f, Atom))):
            return None
        return self.eq_type.restrict(self.bound)

    @cached_property
    def _pin_plan(self) -> tuple[tuple[int, tuple[Variable, ...]], ...]:
        """``pin_plan`` of the node's equality type and bound variables."""
        return pin_plan(self.eq_type, self.bound)


Formula = Union[Const, Eq, Atom, Not, And, Or, Implies, WeightedMean, Agg]


def children(phi: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas, in constructor-argument order."""
    if isinstance(phi, (Const, Eq, Atom)):
        return ()
    if isinstance(phi, Not):
        return (phi.sub,)
    if isinstance(phi, (And, Or, Implies)):
        return (phi.left, phi.right)
    if isinstance(phi, WeightedMean):
        return (phi.weight, phi.left, phi.right)
    if isinstance(phi, Agg):
        return phi.bodies
    raise TypeError("not a formula: %r" % (phi,))


def conjunction(parts: Sequence[Formula]) -> Formula:
    """The left-nested conjunction of the parts; the constant 1 when empty."""
    return reduce(And, parts) if parts else Const(1.0)


def free_vars(phi: Formula) -> frozenset[Variable]:
    out: set[Variable] = set()
    stack = [phi]
    while stack:
        f = stack.pop()
        if isinstance(f, Eq):
            out.update((f.left, f.right))
        elif isinstance(f, Atom):
            out.update(f.args)
        elif isinstance(f, Agg):
            out.update(f.params)
        else:
            stack.extend(children(f))
    return frozenset(out)


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Every subformula, in preorder, left to right."""
    stack = [phi]
    while stack:
        f = stack.pop()
        yield f
        stack.extend(reversed(children(f)))


def relation_symbols(phi: Formula) -> set[str]:
    return {f.symbol for f in subformulas(phi) if isinstance(f, Atom)}


def has_aggregation(phi: Formula) -> bool:
    return any(isinstance(f, Agg) for f in subformulas(phi))


def function_rank(phi: Formula) -> int:
    """0 for aggregation-free formulas; an aggregation node adds the number
    of variables it binds on top of its deepest body."""
    rank = 0
    stack = [(phi, 0)]
    while stack:
        f, above = stack.pop()
        if isinstance(f, Agg):
            above += len(f.bound)
        rank = max(rank, above)
        stack.extend((c, above) for c in children(f))
    return rank


def distinct_atoms(formulas: Sequence[Formula]) -> tuple[Atom, ...]:
    """The distinct atoms of the formulas, in preorder."""
    return tuple(dict.fromkeys(
        f for phi in formulas for f in subformulas(phi) if isinstance(f, Atom)))


def product_coordinates(n: int, arity: int) -> list[list[int]]:
    """Per argument position i, the elements minus 1 at position i of all
    the tuples over [n] in lexicographic order: runs of n^(arity-1-i) of
    each of ``range(n)``, repeated n^i times, all sharing its ints."""
    return [list(itertools.chain.from_iterable(
                map(itertools.repeat, range(n), itertools.repeat(n ** (arity - 1 - i))))) * n ** i
            for i in range(arity)]


def gather(n: int, coordinates: Sequence[Sequence[int]], positions: Sequence[int]) -> Callable:
    """The one way atoms are keyed: an ``itemgetter`` that takes a column
    over [n] of arity m = len(positions) to its byte at every tuple of a
    list.  ``coordinates`` holds, per place in those tuples, their elements
    minus 1 there, each in [0, n); the column's argument tuple takes its
    j-th element from place ``positions[j]``, so it has index
    sum_j (element_j - 1) * n^(m-1-j).  The list must not be empty."""
    index = coordinates[positions[-1]]
    for j, p in enumerate(reversed(positions[:-1]), 1):
        index = list(map(operator.add, index,
                         map(operator.mul, coordinates[p], itertools.repeat(n ** j))))
    if len(index) == 1:  # itemgetter of one index gives a bare item
        return itemgetter(slice(index[0], index[0] + 1))
    return itemgetter(*index)


def atom_keys(structure: Structure, atoms: Sequence[Atom], variables: Sequence[Variable],
              tuples: Sequence[tuple]) -> list[tuple]:
    """Per tuple of elements of [n], the values of ``variables`` in order,
    the truth value, 0 or 1, of each atom there: its symbol's column
    gathered (see ``gather``), so every part is a map in C over the tuples.
    An atom of the wrong arity is 0 at every tuple."""
    n, variables = structure.domain_size, tuple(variables)
    coordinates = [list(map(operator.sub, map(itemgetter(i), tuples), itertools.repeat(1)))
                   for i in range(len(variables))]
    truths = []
    for atom in atoms:
        if len(atom.args) == structure.signature.arity(atom.symbol):
            positions = list(map(variables.index, atom.args))
            truths.append(gather(n, coordinates, positions)(structure.columns[atom.symbol]))
        else:
            truths.append(bytes(len(tuples)))
    return list(zip(*truths)) if truths else [()] * len(tuples)


def assignment_keys(structure: Structure, formulas, variables: Sequence[Variable],
                    tuples: Sequence[tuple]) -> list[tuple]:
    """Per tuple of domain values of ``variables``, a key such that each
    formula's value at the tuple is a function of the key: ``evaluate``'s
    for a formula over ``variables``, ``value_on``'s for a basic
    probability formula over them.  The key is the equality of each pair
    of positions, the truth value of each atom outside any aggregation
    node and of each atom at a basic probability formula's table positions
    (see ``BasicProbabilityFormula._atoms``), and for each outermost
    counting aggregation node (see ``Agg._counting``) the key of each
    parameter's element, as ``_element_counts`` keys it.  An outermost node
    that does not count makes the key the tuple itself.  Every part is a
    map in C over the tuples, which must be over [n]."""
    variables = tuple(variables)
    atoms, counting = [], []
    for phi in formulas:
        if isinstance(phi, BasicProbabilityFormula):
            atoms += phi._atoms
            continue
        stack = [phi]
        while stack:
            f = stack.pop()
            if isinstance(f, Agg):
                if f._counting is None:
                    return list(tuples)
                counting.append(f)
            elif isinstance(f, Atom):
                atoms.append(f)
            else:
                stack.extend(children(f))
    columns = [list(map(itemgetter(i), tuples)) for i in range(len(variables))]
    parts = [map(operator.eq, columns[i], columns[j])
             for i, j in itertools.combinations(range(len(variables)), 2)]
    for node in counting:
        key_of = [None, *_element_counts(structure, node)[1]].__getitem__
        parts += [map(key_of, columns[variables.index(v)]) for v in node.params]
    parts.append(atom_keys(structure, distinct_atoms(atoms), variables, tuples))
    return list(zip(*parts))


def check_signature(phi: Formula, signature: Signature) -> None:
    """Every atom of the formula names a symbol of the signature and has
    that symbol's arity."""
    for atom in subformulas(phi):
        if not isinstance(atom, Atom):
            continue
        used = "the formula uses %s with arity %d" % (atom.symbol, len(atom.args))
        if atom.symbol not in signature:
            known = ", ".join("%s/%d" % symbol for symbol in signature.symbols) or "none"
            raise PlaError("%s, but the signature has no symbol %s (it has %s)"
                           % (used, atom.symbol, known))
        arity = signature.arity(atom.symbol)
        if len(atom.args) != arity:
            raise PlaError("%s, but %s has arity %d" % (used, atom.symbol, arity))


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def pin_plan(eq_type: EqualityType,
             bound: Sequence[Variable]) -> tuple[tuple[int, tuple[Variable, ...]], ...]:
    """Per class of the equality type that holds a free variable (one not
    in ``bound``), its index and its free variables, which ``_pins`` reads."""
    bound = set(bound)
    plan = []
    for i, block in enumerate(eq_type.blocks):
        free = tuple(v for v in block if v not in bound)
        if free:
            plan.append((i, free))
    return tuple(plan)


def _pins(plan, assignment: Assignment) -> Optional[dict[int, int]]:
    """The value, by class index, of each class of a ``pin_plan``: its free
    variables' value under the assignment.  None when the assignment
    violates the equality type: one class gets two values, or two classes
    one value."""
    pins: dict[int, int] = {}
    for i, free in plan:
        value = assignment[free[0]]
        for v in free:
            if assignment[v] != value:
                return None
        pins[i] = value
    if len(set(pins.values())) != len(pins):
        return None
    return pins


def satisfying_bound_tuples(
    eq_type: EqualityType,
    bound: Sequence[Variable],
    assignment: Assignment,
    n: int,
) -> Iterator[tuple[int, ...]]:
    """Values of the bound variables, as tuples in ``bound`` order, for
    which the combined assignment satisfies the equality type.

    Classes containing a free variable are pinned to its assigned value
    (the equality type may equate bound with free variables); the remaining
    classes range injectively over the unused domain elements.
    """
    pins = _pins(pin_plan(eq_type, bound), assignment)
    if pins is None:
        return
    open_classes = [i for i in range(len(eq_type.blocks)) if i not in pins]
    pinned_values = set(pins.values())
    available = [e for e in range(1, n + 1) if e not in pinned_values]
    combos = itertools.permutations(available, len(open_classes))
    classes = [eq_type.class_index[v] for v in bound]
    if classes == open_classes:
        yield from combos  # each bound variable alone in its class
        return
    class_value = dict(pins)
    for combo in combos:
        class_value.update(zip(open_classes, combo))
        yield tuple([class_value[c] for c in classes])


def aggregation_function(phi: Agg, registry) -> aggregators.AggregationFunction:
    """The registry's function of the node, which must take its number of bodies."""
    func = registry.get(phi.func)
    if len(phi.bodies) != func.arity:
        raise PlaError("%s takes %d bodies, got %d" % (func.name, func.arity, len(phi.bodies)))
    return func


def evaluate(
    structure: Structure,
    phi: Formula,
    assignment: Optional[Assignment] = None,
    registry=None,
) -> float:
    """The value of the formula in the structure under the assignment,
    per the [0,1]-valued semantics.

    A counting aggregation node (see ``Agg._counting``) keys every domain
    element once per world and counts the keys.  Its value at an assignment
    then depends only on the world, its aggregation function and the keys
    of the domain elements its parameters pin.  The structure keeps in its
    ``memo`` the counts and each such value, by the node, the function and
    the sorted tuple of pinned keys, so when one world is evaluated at many
    assignments the function is applied once per tuple of pinned keys (for
    ``am[R(y) : y : y != x]``, twice).  A caller with many assignments keys
    them first (see ``assignment_keys``) and evaluates once per key: the
    Monte Carlo harnesses call this once or twice per key, not once per
    parameter tuple.
    """
    if registry is None:
        registry = aggregators.DEFAULT_REGISTRY
    return _eval(structure, phi, dict(assignment or {}), registry)


def _eval(structure: Structure, phi: Formula, a: dict, registry) -> float:
    # the stops are exact for values in [0, 1]; they skip only
    # aggregation-free operands, so an aggregation error still surfaces
    if isinstance(phi, Atom):
        return float(structure.holds(phi.symbol, [a[v] for v in phi.args]))
    if isinstance(phi, Const):
        return phi.value
    if isinstance(phi, And):
        return _eval_spine(structure, phi, a, registry, min, 0.0)
    if isinstance(phi, Or):
        return _eval_spine(structure, phi, a, registry, max, 1.0)
    if isinstance(phi, Not):
        return 1.0 - _eval(structure, phi.sub, a, registry)
    if isinstance(phi, Implies):
        left = _eval(structure, phi.left, a, registry)
        if left == 0.0 and phi.right._aggregation_free:
            return 1.0
        return min(1.0, 1.0 - left + _eval(structure, phi.right, a, registry))
    if isinstance(phi, Eq):
        return 1.0 if a[phi.left] == a[phi.right] else 0.0
    if isinstance(phi, WeightedMean):
        w = _eval(structure, phi.weight, a, registry)
        if w == 0.0 and phi.left._aggregation_free:
            return _eval(structure, phi.right, a, registry)
        if w == 1.0 and phi.right._aggregation_free:
            return _eval(structure, phi.left, a, registry)
        return w * _eval(structure, phi.left, a, registry) + (1.0 - w) * _eval(
            structure, phi.right, a, registry
        )
    if isinstance(phi, Agg):
        func = aggregation_function(phi, registry)
        n, key = structure.domain_size, None
        if phi._counting is not None:
            _, keys, _ = _element_counts(structure, phi)
            pins = _pins(phi._pin_plan, a)
            key = (id(phi), func, None if pins is None else tuple(sorted(
                [keys[e - 1] for e in pins.values() if 0 < e <= n])))
            value = structure.memo.get(key)
            if value is not None:
                return value
        saved = {v: a.get(v) for v in phi.bound}
        # a parameter outside [n] has no column byte: evaluate tuple by tuple
        if phi._body_table is None or (phi._counting is None
                                       and not all(0 < a[v] <= n for v in phi.params)):
            seqs = [[] for _ in phi.bodies]
            for combo in satisfying_bound_tuples(phi.eq_type, phi.bound, a, n):
                a.update(zip(phi.bound, combo))
                for i, body in enumerate(phi.bodies):
                    seqs[i].append(_eval(structure, body, a, registry))
        else:
            seqs = _eval_bodies_by_count(structure, phi, a, registry)
        for v, old in saved.items():
            if old is None:
                a.pop(v, None)
            else:
                a[v] = old
        if seqs[0]:
            value = aggregators.apply(func, *seqs)
        elif func.empty_value is not None:
            value = func.empty_value
        else:
            raise EmptyAggregationRange(
                "no bound tuple satisfies the equality constraint of %s[...] "
                "at domain size %d" % (phi.func, n)
            )
        if key is not None:
            structure.memo[key] = value
        return value
    raise TypeError("not a formula: %r" % (phi,))


_BLOCK = 4096  # bound tuples keyed per batch, bounding the memory of a large range


def _element_counts(structure: Structure, phi: Agg) -> tuple[Agg, list, Counter]:
    """A counting node's per-world state, kept in the structure's ``memo``
    by the node's id: the node, the key of each domain element in order,
    and the count of each key.  Holding the node keeps its id from being
    reused while the memo lives."""
    state = structure.memo.get(id(phi))
    if state is None:
        elements = list(satisfying_bound_tuples(phi._counting, phi.bound, {},
                                                structure.domain_size))
        keys = atom_keys(structure, phi._body_table[0], phi.bound, elements)
        state = structure.memo[id(phi)] = (phi, keys, Counter(keys))
    return state


def _eval_bodies_by_count(structure: Structure, phi: Agg, a: dict, registry):
    """The body values of an aggregation node with a ``_body_table`` over
    its bound tuples, one list per body, grouped by key in order of the
    key's first occurrence.

    A counting node (see ``Agg._counting``) takes the per-world key counts
    of ``_element_counts`` and subtracts the keys of the elements its
    parameters pin, so the lists depend only on the world and those keys;
    ``_eval`` stores the node's value and calls this once per world and
    tuple of pinned keys (see ``evaluate``).  Any other node keys the bound
    tuples of the call, whose parameters lie in [n], ``_BLOCK`` at a time,
    and counts them.  A key not yet in the table is evaluated once, at a
    bound tuple with that key (for a counting node, one no parameter pins),
    and each key's row of body values is repeated by its count, so no body
    is evaluated unless its key is new.  The aggregation functions are
    symmetric, so the grouping changes no value.
    """
    atoms, table = phi._body_table
    if phi._counting is None:
        params = tuple(a[v] for v in phi.params)
        counts = Counter()
        witness = {}  # key -> a bound tuple with it, for every key the table lacks
        tuples = satisfying_bound_tuples(phi.eq_type, phi.bound, a, structure.domain_size)
        for block in iter(lambda: list(itertools.islice(tuples, _BLOCK)), []):
            keys = atom_keys(structure, atoms, phi.eq_type.variables,
                             list(map(params.__add__, block)) if params else block)
            counts.update(keys)
            if counts.keys() - table.keys() - witness.keys():
                witness.update(zip(keys, block))
        tuple_with = witness.__getitem__
    else:
        _, keys, total = _element_counts(structure, phi)
        pins = _pins(phi._pin_plan, a)
        if pins is None:
            return [[] for _ in phi.bodies]
        pinned = set(pins.values())
        counts = dict(total)
        for e in pinned:
            if 0 < e <= len(keys):
                counts[keys[e - 1]] -= 1

        def tuple_with(key):
            e = next(i for i, k in enumerate(keys, 1) if k == key and i not in pinned)
            return (e,) * len(phi.bound)
    seqs: list[list[float]] = [[] for _ in phi.bodies]
    for key, count in counts.items():
        if not count:  # every element of the key is pinned
            continue
        row = table.get(key)
        if row is None:
            a.update(zip(phi.bound, tuple_with(key)))
            row = table[key] = tuple(_eval(structure, body, a, registry)
                                     for body in phi.bodies)
        for seq, value in zip(seqs, row):
            seq += [value] * count
    return seqs


def _eval_spine(structure: Structure, phi: Formula, a: dict, registry,
                combine, stop: float) -> float:
    """An ``&`` or ``|`` node by its ``_spine``.  Operands are evaluated and
    combined left to right, so values match the nested binary definition
    bit for bit.  Once the value is ``stop``, which ``combine`` keeps
    whatever the operand in [0, 1], and every operand left is
    aggregation-free, the rest is skipped."""
    operands = phi._spine
    value = _eval(structure, operands[0], a, registry)
    for i in range(1, len(operands)):
        if value == stop and i >= phi._free_from:
            return value
        value = combine(value, _eval(structure, operands[i], a, registry))
    return value


# ---------------------------------------------------------------------------
# Basic probability formulas and folding
# ---------------------------------------------------------------------------


Table = tuple[EqualityType, tuple[int, ...], tuple[float, ...]]


@dataclass(frozen=True)
class BasicProbabilityFormula:
    """Conjunction of (complete type -> constant) implications; the
    aggregation-free normal form.  It holds a ``Table`` per equality type of
    ``variables``: the equality type, the positions in its types' sign
    vectors that the constant reads, none twice, and the constant at each
    sign vector there, by index (see ``index_bits``)."""

    signature: Signature
    variables: tuple[Variable, ...]
    tables: tuple[Table, ...]

    def __post_init__(self):
        eqs = [eq for eq, _, _ in self.tables]
        # each equality type of the variables has one table, any other none
        for eq in dict.fromkeys([*EqualityType.all_partitions(self.variables), *eqs]):
            if eqs.count(eq) != (eq.variables == self.variables):
                raise ValueError("%d tables of the equality type %s over %s in a formula over %s"
                                 % (eqs.count(eq), eq.pattern(), [v.name for v in eq.variables],
                                    [v.name for v in self.variables]))
        for eq, positions, values in self.tables:
            m = len(self.signature.slots(len(eq.blocks)))
            if len(set(positions)) != len(positions) or not set(positions) <= set(range(m)):
                raise ValueError("positions %r are not distinct among %d slots" % (positions, m))
            if len(values) != 2 ** len(positions):
                raise ValueError("%d values for %d positions" % (len(values), len(positions)))

    @cached_property
    def conjuncts(self) -> tuple[tuple[AtomicType, float], ...]:
        """Every complete type over ``variables`` with its constant: one
        table at a time, each in ``enumerate_complete_types`` order."""
        out = []
        for eq, positions, values in self.tables:
            m = len(self.signature.slots(len(eq.blocks)))
            out += [(AtomicType(self.signature, eq, signs), values[key]) for signs, key in
                    zip(itertools.product((False, True), repeat=m), index_keys(m, positions))]
        return tuple(out)

    def constants(self) -> tuple[float, ...]:
        seen: list[float] = []
        for _, c in self.conjuncts:
            if not any(abs(c - s) <= 1e-12 for s in seen):
                seen.append(c)
        return tuple(sorted(seen))

    @cached_property
    def _by_pattern(self) -> dict[tuple[int, ...], tuple[list[Literal], tuple[float, ...]]]:
        """Per table, keyed by its equality type's pattern, the slots at its
        positions and its values."""
        return {eq.pattern(): ([self.signature.slots(len(eq.blocks))[i] for i in positions], values)
                for eq, positions, values in self.tables}

    @cached_property
    def _atoms(self) -> tuple[Atom, ...]:
        """The atom of each table's slot at each of its positions, on the
        first member of each class: ``value_on`` reads their truth values
        and the equality pattern of ``variables``, nothing else."""
        return tuple(type_parts(self.signature, eq)[1][i]
                     for eq, positions, _ in self.tables for i in positions)

    def value_on(self, structure: Structure, assignment: Assignment) -> float:
        """Same value as evaluating ``to_formula()``: exactly one complete
        type is realized, and the value is its table's, read at the index
        that one column byte per position forms."""
        values = [assignment[v] for v in self.variables]
        reps = tuple(dict.fromkeys(values))  # one element per equality class
        slots, table = self._by_pattern[equality_pattern(values)]
        index = 0
        for name, ctuple in slots:  # the first position's bit is the most significant
            index = 2 * index + structure.holds(name, [reps[c] for c in ctuple])
        return table[index]

    def sign_reader(self) -> TypeReader:
        """``value_on`` on the canonical structures of complete types over
        ``signature``, as a ``TypeReader``: the table of the pattern of
        ``variables``' classes, its positions mapped to the caller's
        classes."""
        def at(k, classes):
            values = _classes_of(self.variables, classes)
            reps = tuple(dict.fromkeys(values))
            slots, table = self._by_pattern[equality_pattern(values)]
            positions = slot_positions(self.signature, k, [
                (name, tuple([reps[c] for c in ctuple])) for name, ctuple in slots])
            return positions, lambda signs: table[signs_to_index(signs)]

        return at

    def to_formula(self) -> Formula:
        return conjunction([Implies(atype.to_formula(), Const(c)) for atype, c in self.conjuncts])


# ``at(k, classes)``: a compiled formula on the complete types with k equality
# classes, at v -> classes[v] + 1, as the positions in a type's sign vector
# that it reads, none twice, and a function of the type's signs there, in order
TypeReader = Callable[[int, Mapping[Variable, int]],
                      tuple[tuple[int, ...], Callable[[tuple[bool, ...]], float]]]


def _classes_of(variables: Sequence[Variable], classes: Mapping[Variable, int]) -> list[int]:
    """The class of each variable; a ValueError names those without one."""
    stray = sorted(v.name for v in variables if v not in classes)
    if stray:
        raise ValueError("variables %s are not among the type's variables" % stray)
    return [classes[v] for v in variables]


def type_reader(phi: Formula, signature: Signature) -> TypeReader:
    """The ``TypeReader`` of an aggregation-free formula: its value on a
    type's canonical structure (``structure_of_type``), where it reads only
    the pattern of its free variables' classes and the type's signs at its
    atoms' slots.  So it is evaluated once per such key for the reader's
    lifetime, whatever k and classes; an atom of the wrong arity reads no
    slot and is false on every type."""
    if has_aggregation(phi):
        raise NotAggregationFree("formula contains aggregation nodes")
    variables = sorted(free_vars(phi), key=_var_key)
    atoms = [f for f in dict.fromkeys(subformulas(phi)) if isinstance(f, Atom)
             and f.symbol in signature and len(f.args) == signature.arity(f.symbol)]
    values: dict[tuple, float] = {}

    def at(k, classes):
        pattern = equality_pattern(_classes_of(variables, classes))
        # atoms on one slot read one sign; the pattern fixes which atoms share one
        positions = tuple(dict.fromkeys(slot_positions(signature, k, [
            (atom.symbol, tuple([classes[v] for v in atom.args])) for atom in atoms])))
        assignment = {v: classes[v] + 1 for v in variables}

        def read(signs: tuple[bool, ...]) -> float:
            value = values.get((pattern, signs))
            if value is None:
                given = dict(zip(positions, signs))  # phi reads no other slot
                full = [given.get(i, False) for i in range(len(signature.slots(k)))]
                value = values[pattern, signs] = evaluate(structure_of_type(signature, k, full),
                                                          phi, assignment)
            return value

        return positions, read

    return at


def tabulate(reader: TypeReader, eq: EqualityType) -> Table:
    """The reader's ``Table`` on the complete types with the equality type
    ``eq``: read once per sign vector of the positions it reads."""
    positions, read = reader(len(eq.blocks), eq.class_index)
    return eq, positions, tuple([read(signs) for signs in
                                 itertools.product((False, True), repeat=len(positions))])


def fold(
    signature: Signature,
    variables: Sequence[Variable],
    reader: TypeReader,
    cap: int = DEFAULT_TYPE_CAP,
) -> BasicProbabilityFormula:
    """The formula over ``variables`` whose constant on each complete type
    is the reader's value there: the reader's table of each equality type,
    in ``EqualityType.all_partitions`` order.  ``reader`` is called once per
    equality type, and no structure or type is built.  Raises TooManyTypes
    when an equality type has more than ``cap`` complete types."""
    variables = tuple(variables)
    # the equality type with every variable apart has the most slots
    check_cap(len(signature.slots(len(variables))), cap, "complete types", TooManyTypes)
    return BasicProbabilityFormula(signature, variables, tuple(
        tabulate(reader, eq) for eq in EqualityType.all_partitions(variables)))


def fold_to_bpf(phi: Formula, signature: Signature) -> BasicProbabilityFormula:
    """Fold an aggregation-free formula into an exactly equivalent basic
    probability formula: one conjunct per complete atomic type over the free
    variables, carrying the constant value the formula takes on that type."""
    return fold(signature, sorted(free_vars(phi), key=_var_key), type_reader(phi, signature))
