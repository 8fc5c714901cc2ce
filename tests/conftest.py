"""Shared fixtures: golden networks and random formula/structure generators."""

import itertools
import math
import random

import pytest

from pla import (
    Agg,
    And,
    Atom,
    AtomicType,
    Const,
    Eq,
    EqualityType,
    Implies,
    Not,
    Or,
    Signature,
    Structure,
    Variable,
    WeightedMean,
    free_vars,
)
from pla.aggregators import SupportSpectrum
from pla.eliminate import AlphaRow, AlphaTable, _limit_blocks, _row_spectra, dim_y
from pla.errors import PlaError
from pla.logic import (
    DEFAULT_TYPE_CAP,
    TooManyTypes,
    check_cap,
    equality_pattern,
    evaluate,
    has_aggregation,
    index_keys,
    index_to_signs,
    restriction,
    structure_of_type,
    subformulas,
    tabulate,
)
from pla.network import network_from_doc, validate

PR_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
        {
            "name": "R",
            "arity": 1,
            "parents": ["P"],
            "theta": "(P(x1) -> 0.9) & (!P(x1) -> 0.2)",
        },
    ]
}

REMARK_DOC = {
    "relations": [
        {
            "name": "R",
            "arity": 1,
            "parents": [],
            "theta": "invlen[x1 = x1 & y = y : y : y != x1]",
        }
    ]
}

BINARY_DOC = {
    "relations": [
        {"name": "E", "arity": 2, "parents": [], "theta": "wm(x1 = x2; 0.9; 0.3)"}
    ]
}

PSE_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.3"},
        {"name": "S", "arity": 1, "parents": ["P"], "theta": "wm(P(x1); 0.7; 0.2)"},
        {"name": "E", "arity": 2, "parents": ["P"], "theta": "wm(P(x1) & P(x2); 0.8; 0.1)"},
    ]
}

# F reads its binary parent E at swapped arguments and tests an equality,
# so the sampler's theta cache must key on argument order and on the
# equality pattern
PEF_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.4"},
        {"name": "E", "arity": 2, "parents": [], "theta": "wm(x1 = x2; 0.6; 0.3)"},
        {"name": "F", "arity": 2, "parents": ["E", "P"],
         "theta": "wm(E(x2, x1) & !(x1 = x2); 0.9; wm(P(x2); 0.5; 0.1))"},
    ]
}

# P -> E, F: two binary children of P; am[E(x, y) & F(y, z) : y, z : distinct]
# has 21 slots over its 3 classes, so 2^21 complete types
EF_FORK_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.3"},
        {"name": "E", "arity": 2, "parents": ["P"], "theta": "wm(P(x1) & P(x2); 0.8; 0.1)"},
        {"name": "F", "arity": 2, "parents": ["P"], "theta": "wm(P(x1); 0.6; 0.2)"},
    ]
}

# a chain P -> R -> S of unary symbols
CHAIN_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
        {
            "name": "R",
            "arity": 1,
            "parents": ["P"],
            "theta": "(P(x1) -> 0.9) & (!P(x1) -> 0.2)",
        },
        {
            "name": "S",
            "arity": 1,
            "parents": ["R"],
            "theta": "(R(x1) -> 0.7) & (!R(x1) -> 0.1)",
        },
    ]
}

# the signature lists each child before its parent, so the sampler's plan
# (P, Q, R), in which worlds are enumerated, runs against the signature
# order (R, Q, P): R is the last step, weighed as one block, Q's theta list
# changes with P's mask and R's with Q's
CHILD_FIRST_DOC = {
    "relations": [
        {"name": "R", "arity": 1, "parents": ["Q"], "theta": "wm(Q(x1); 0.7; 0.2)"},
        {"name": "Q", "arity": 1, "parents": ["P"], "theta": "wm(P(x1); 0.9; 0.25)"},
        {"name": "P", "arity": 1, "parents": [], "theta": "0.4"},
    ]
}

# a non-root theta that aggregates over its parent: the sampler evaluates it
# at every tuple, all of one theta list on one world
NON_ROOT_AGGREGATION_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
        {"name": "R", "arity": 1, "parents": ["P"],
         "theta": "wm(P(x1); am[P(y) : y : y != x1]; 0.1)"},
    ]
}

# Q reads E at a repeated argument; T is ternary, reads E at permuted and
# repeated arguments and tests an equality, so its sampler keys take 5
# equality patterns
TERNARY_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.4"},
        {"name": "E", "arity": 2, "parents": [], "theta": "wm(x1 = x2; 0.6; 0.3)"},
        {"name": "Q", "arity": 1, "parents": ["E"], "theta": "wm(E(x1, x1); 0.8; 0.2)"},
        {"name": "T", "arity": 3, "parents": ["E", "P"],
         "theta": "wm(E(x3, x1) & !E(x2, x2); 0.7; wm(x1 = x3; 0.4; P(x2)))"},
    ]
}

# P always holds, so every type with !P(x) has limit probability 0
ZERO_GAMMA_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "1.0"},
        {
            "name": "R",
            "arity": 1,
            "parents": ["P"],
            "theta": "(P(x1) -> 0.9) & (!P(x1) -> 0.2)",
        },
    ]
}


# every network above, by name
NETWORK_DOCS = {
    "pr": PR_DOC, "remark": REMARK_DOC, "binary": BINARY_DOC, "pse": PSE_DOC, "pef": PEF_DOC,
    "ef-fork": EF_FORK_DOC, "chain": CHAIN_DOC, "child-first": CHILD_FIRST_DOC,
    "non-root-aggregation": NON_ROOT_AGGREGATION_DOC, "zero-gamma": ZERO_GAMMA_DOC,
    "ternary": TERNARY_DOC,
}


def reference_sample(net, n: int, rng: random.Random, registry=None) -> Structure:
    """A world drawn tuple by tuple, as ``WorldSampler.sample`` draws it
    with no gathers: in stratification order, theta at each tuple is read
    from a cache keyed by the tuple's equality pattern and the truth values
    of theta's atoms there, each read from the structure of the tuples
    chosen so far, one byte at a time (a non-root theta that aggregates is
    evaluated at every tuple), then one uniform per tuple decides its
    membership."""
    chosen = {}
    for name in validate(net).order:
        structure = Structure.of(net.signature, n, chosen)
        theta, variables = net.theta[name], net.theta_variables(name)
        tuples = list(itertools.product(range(1, n + 1), repeat=len(variables)))
        aggregating = net.parents[name] and has_aggregation(theta)
        atoms = () if aggregating else dict.fromkeys(
            f for f in subformulas(theta) if isinstance(f, Atom))
        cache = {}
        thetas = []
        for args in tuples:
            key = (equality_pattern(args),
                   *(structure.holds(atom.symbol, [args[variables.index(v)] for v in atom.args])
                     for atom in atoms))
            if aggregating or key not in cache:
                try:
                    cache[key] = evaluate(structure, theta, dict(zip(variables, args)), registry)
                except PlaError as exc:
                    raise PlaError("evaluating formula of %s at %s with n=%d: %s"
                                   % (name, args, n, exc)) from exc
            thetas.append(cache[key])
        chosen[name] = [args for args, p in zip(tuples, thetas) if rng.random() < p]
    return Structure.of(net.signature, n, chosen)


def reference_experiment_hit(phi, psi, n, epsilon, value_set, registry, variables, constants,
                             world) -> tuple:
    """``eliminate._experiment_hit`` tuple by tuple: phi and psi are
    evaluated at every parameter tuple, in ``itertools.product`` order, up
    to the first that separates them by more than epsilon."""
    canonical = tuple(range(1, len(variables) + 1))
    value_at_canonical = None
    exceeds = False
    if psi is not None:
        for args in itertools.product(range(1, n + 1), repeat=len(variables)):
            assignment = dict(zip(variables, args))
            value = evaluate(world, phi, assignment, registry)
            if value_at_canonical is None and args == canonical:
                value_at_canonical = value
            if abs(value - psi.value_on(world, assignment)) > epsilon:
                exceeds = True
                break
    if value_at_canonical is None:
        value_at_canonical = evaluate(world, phi, dict(zip(variables, canonical)), registry)
    in_set = value_set is not None and value_set.contains(value_at_canonical)
    return (exceeds, in_set, *(abs(value_at_canonical - d) <= epsilon for d in constants))


def reference_saturated(q_formula, node, xs, base_tuples, size, lower, upper, world) -> tuple:
    """``eliminate._saturated`` tuple by tuple: q and the extension count
    are evaluated at every base tuple, up to the first count outside the
    band."""
    for args in base_tuples:
        assignment = dict(zip(xs, args))
        if evaluate(world, q_formula, assignment) != 1.0:
            continue
        count = round(evaluate(world, node, assignment) * size) if size else 0
        if not (lower <= count <= upper):
            return (False,)
    return (True,)


def reference_alphas(net, xs, ys, p_eq, bodies, type_cap=DEFAULT_TYPE_CAP, *, block=None):
    """``eliminate.alphas`` over every slot of the signature: each row is a
    complete type over the parameters, and its extensions are the complete
    types of ``p_eq`` that restrict to it, each weighed by the network's
    full block.  Its table has the same shape, with every slot in the
    closure and every slot over the parameters in the base, so
    ``eliminate`` compiles with it in place of ``alphas``."""
    block = _limit_blocks(net) if block is None else block
    dim = dim_y(p_eq, xs, ys)
    if dim == 0:
        raise PlaError("degenerate aggregation (dimension 0) has no alpha table")
    sig = net.signature
    m = len(sig.slots(len(p_eq.blocks)))
    check_cap(m, type_cap, "complete types", TooManyTypes)
    base_eq, base_positions = restriction(sig, p_eq, xs)
    columns = [list(map(values.__getitem__, index_keys(m, positions)))
               for _, positions, values in (tabulate(body, p_eq) for body in bodies)]
    groups = {}
    for i, r in enumerate(index_keys(m, base_positions)):
        groups.setdefault(r, []).append(i)
    (_, betas), (_, gammas) = block(p_eq), block(base_eq)
    rows = []
    for r, indices in sorted(groups.items()):
        gamma = gammas[r]
        row_betas = [betas[i] for i in indices]
        row_alphas = [beta / gamma if gamma > 0.0 else None for beta in row_betas]
        values = tuple([column[i] for i in indices] for column in columns)
        rows.append(AlphaRow(index_to_signs(r, len(base_positions)), gamma, indices, values,
                             row_betas, row_alphas))
    return AlphaTable(sig, tuple(xs), tuple(ys), p_eq, dim, tuple(range(m)),
                      tuple(range(len(base_positions))), rows)


def assert_merges_reference(table, reference, tol=1e-12):
    """Each row of a closure table is the gamma-weighted merge of the rows
    of ``reference_alphas``'s table whose signs at the closure's base
    positions are the row's: its gamma is their sum, and each body's merged
    support spectrum is the merge of theirs, each proportion scaled by the
    reference row's gamma over the row's."""
    m = len(reference.signature.slots(len(reference.eq.blocks)))
    assert reference.closure == tuple(range(m))
    assert len(reference.rows) == 2 ** len(reference.base)
    for row in table.rows:
        group = [ref for ref in reference.rows
                 if tuple(ref.base[j] for j in table.base) == row.base]
        assert len(group) == 2 ** (len(reference.base) - len(table.base))
        assert abs(row.gamma - math.fsum(ref.gamma for ref in group)) <= tol, row.base
        if row.gamma <= 0.0:
            assert all(ref.gamma == 0.0 for ref in group)
            continue
        spectra = _row_spectra(row)
        parts = [(ref.gamma / row.gamma, _row_spectra(ref)) for ref in group if ref.gamma > 0.0]
        for b, spectrum in enumerate(spectra):
            expected = SupportSpectrum(tuple(
                (value, alpha * weight) for weight, ref_spectra in parts
                for value, alpha in ref_spectra[b].points)).merged()
            assert len(spectrum.points) == len(expected.points), (row.base, spectrum, expected)
            for (value, alpha), (ref_value, ref_alpha) in zip(spectrum.points, expected.points):
                assert abs(value - ref_value) <= tol and abs(alpha - ref_alpha) <= tol, (
                    row.base, spectrum, expected)


@pytest.fixture
def pr_net():
    return network_from_doc(PR_DOC)


@pytest.fixture
def remark_net():
    return network_from_doc(REMARK_DOC)


@pytest.fixture
def binary_net():
    return network_from_doc(BINARY_DOC)


TEST_SIG = Signature.of(("P", 1), ("Q", 1), ("E", 2))

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def complete_type(signature: Signature, variables, blocks, positive=()) -> AtomicType:
    """The complete type whose given relation literals, (symbol, variables)
    pairs, are positive and every other slot negative."""
    eq = EqualityType.from_blocks(variables, blocks)
    slots = signature.slots(len(eq.blocks))
    chosen = {(name, tuple(eq.class_index[v] for v in args)) for name, args in positive}
    stray = chosen.difference(slots)
    if stray:
        raise ValueError("literals %r are not slots over %d classes of the signature"
                         % (sorted(stray), len(eq.blocks)))
    return AtomicType(signature, eq, tuple(slot in chosen for slot in slots))


def canonical_structure(atype: AtomicType) -> tuple[Structure, dict]:
    """``structure_of_type`` of the type, and an assignment realizing it."""
    assignment = {v: atype.eq.class_index[v] + 1 for v in atype.eq.variables}
    return structure_of_type(atype.signature, len(atype.eq.blocks), atype.signs), assignment


def satisfied_by(eq: EqualityType, assignment) -> bool:
    """The assignment gives each class of the equality type one value, and
    distinct classes distinct values."""
    values = []
    for block in eq.blocks:
        val = assignment[block[0]]
        if any(assignment[v] != val for v in block[1:]):
            return False
        values.append(val)
    return len(set(values)) == len(values)


def fresh(structure: Structure) -> Structure:
    """A structure with the same columns and an empty ``memo``: evaluating
    it counts afresh."""
    return Structure(structure.signature, structure.domain_size, structure.columns)


def realized_by(atype: AtomicType, structure: Structure, assignment) -> bool:
    """The assignment realizes the complete type in the structure."""
    if not satisfied_by(atype.eq, assignment):
        return False
    values = [assignment[block[0]] for block in atype.eq.blocks]
    for (name, ctuple), sign in atype.literals:
        args = tuple(values[c] for c in ctuple)
        if structure.holds(name, args) != sign:
            return False
    return True


def permuted(structure: Structure, perm) -> Structure:
    """The isomorphic copy of the structure under a domain permutation."""
    return Structure.of(structure.signature, structure.domain_size, {
        name: [tuple(perm[e] for e in tup) for tup in structure.tuples(name)]
        for name in structure.signature.names()
    })


def world_key(structure: Structure) -> tuple:
    """Canonical hashable form of a structure, e.g. for counting sampled worlds."""
    return tuple((name, structure.columns[name]) for name in structure.signature.names())


def random_structure(rng: random.Random, sig: Signature, n: int) -> Structure:
    tuples = {}
    for name, arity in sig.symbols:
        tuples[name] = [
            args
            for args in itertools.product(range(1, n + 1), repeat=arity)
            if rng.random() < 0.5
        ]
    return Structure.of(sig, n, tuples)


def random_agg_free(rng: random.Random, sig: Signature, variables, depth: int):
    """Random aggregation-free formula with free variables among the pool."""
    if depth == 0 or rng.random() < 0.3:
        kind = rng.choice(("const", "atom", "eq"))
        if kind == "const":
            return Const(round(rng.uniform(0.0, 1.0), 3))
        if kind == "eq":
            return Eq(rng.choice(variables), rng.choice(variables))
        name, arity = rng.choice(sig.symbols)
        return Atom(name, tuple(rng.choice(variables) for _ in range(arity)))
    kind = rng.choice(("not", "and", "or", "implies", "wm"))
    if kind == "not":
        return Not(random_agg_free(rng, sig, variables, depth - 1))
    left = random_agg_free(rng, sig, variables, depth - 1)
    right = random_agg_free(rng, sig, variables, depth - 1)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    if kind == "implies":
        return Implies(left, right)
    return WeightedMean(random_agg_free(rng, sig, variables, depth - 1), left, right)


def random_formula(rng: random.Random, sig: Signature, variables, depth: int,
                   agg_funcs=("am", "gm", "max", "min", "noisy-or", "invlen")):
    """Random formula that may contain aggregation nodes.  Aggregations bind
    one fresh variable over a body mentioning at most one outer variable, so
    the bound range is nonempty whenever the domain has >= 2 elements."""
    if depth > 0 and rng.random() < 0.25:
        bound = Variable("b%d" % rng.randrange(10 ** 6))
        outer = rng.choice(variables)
        body = random_formula(rng, sig, [outer, bound], depth - 1, agg_funcs)
        if bound not in free_vars(body):
            name, _ = rng.choice([s for s in sig.symbols if s[1] == 1])
            body = And(body, Or(Atom(name, (bound,)), Not(Atom(name, (bound,)))))
        pool = sorted(free_vars(body) - {bound}, key=lambda v: v.name)
        if pool and rng.random() < 0.5:
            eq = EqualityType.from_blocks(pool + [bound], [[v] for v in pool] + [[bound]])
        elif pool:
            eq = EqualityType.from_blocks(pool + [bound], [[pool[0], bound]] + [[v] for v in pool[1:]])
        else:
            eq = EqualityType.from_blocks([bound], [[bound]])
        return Agg(rng.choice(agg_funcs), (body,), (bound,), eq)
    return random_agg_free(rng, sig, variables, max(depth - 1, 0))
