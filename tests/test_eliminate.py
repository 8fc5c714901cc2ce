"""Compiler pass: type limit probabilities, alpha tables, elimination,
convergence experiment, saturation diagnostic."""

import functools
import gc
import itertools
import math
import random
import sys

import pytest

from pla import (
    Agg,
    And,
    AtomicType,
    BasicProbabilityFormula,
    Const,
    EqualityType,
    Implies,
    Not,
    Or,
    Signature,
    ValueSet,
    Variable,
    WeightedMean,
    enumerate_complete_types,
    fold_to_bpf,
    parse_formula,
)
from pla.aggregators import NoLimitMethod
from pla.errors import PlaError
from pla.eliminate import (
    COLLAPSE_TOL,
    AlphaRow,
    NetworkHasAggregation,
    _limit_blocks,
    _type_text,
    alphas,
    convergence_experiment,
    dim_y,
    eliminate,
    limit_prob_type,
    saturation_diagnostic,
)
from pla.logic import (
    EmptyAggregationRange,
    TooManyTypes,
    children,
    conjunction,
    evaluate,
    free_vars,
    has_aggregation,
    index_keys,
    index_to_signs,
    relation_symbols,
    restriction,
    signs_to_index,
    subformulas,
    type_parts,
    type_reader,
)
from pla.network import (
    PlaNetwork,
    WorldSampler,
    exact_distribution,
    exact_event_probability,
    mc_event_probability,
    network_from_doc,
    validate,
)
from pla.parser import format_formula

from conftest import (
    BINARY_DOC,
    CHAIN_DOC,
    CHILD_FIRST_DOC,
    NETWORK_DOCS,
    PEF_DOC,
    PR_DOC,
    PSE_DOC,
    TEST_SIG,
    X,
    Y,
    Z,
    ZERO_GAMMA_DOC,
    assert_merges_reference,
    canonical_structure,
    complete_type,
    random_agg_free,
    random_structure,
    realized_by,
    reference_alphas,
    reference_experiment_hit,
    reference_saturated,
)
from test_golden import GOLDEN

PR_SIG = Signature.of(("P", 1), ("R", 1))

# the module; the package's attribute of that name is the function
COMPILER = sys.modules["pla.eliminate"]

# networks whose thetas exercise each part of the limit-probability memo's
# key: the equality pattern, the order of an atom's arguments, every atom
# rather than the first, an atom read twice and a constant root theta; and
# symbols declared before their parents, so theta reads a later slot
THETA_KEY_DOCS = {
    "P/R": PR_DOC,
    "P/S/E": PSE_DOC,
    "P/E/F": PEF_DOC,
    "binary": BINARY_DOC,
    "equality": {"relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.3"},
        {"name": "E", "arity": 2, "parents": ["P"],
         "theta": "wm(x1 = x2; wm(P(x1); 0.9; 0.2); wm(P(x1) & P(x2); 0.7; 0.05))"},
    ]},
    "repeated atom": {"relations": [
        {"name": "E", "arity": 2, "parents": [], "theta": "0.4"},
        {"name": "F", "arity": 2, "parents": ["E"],
         "theta": "wm(E(x1, x2) & E(x2, x1); 0.9; wm(E(x1, x2); 0.5; 0.1))"},
    ]},
    "root constant": {"relations": [{"name": "C", "arity": 2, "parents": [], "theta": "0.7"}]},
    "child-first": CHILD_FIRST_DOC,
}


def _theta_key_types(net):
    """The complete types over x, y, z and each prefix of them, skipping a
    variable count whose all-distinct partition has over 2^10 sign vectors."""
    return [p for k in (1, 2, 3) if len(net.signature.slots(k)) <= 10
            for p in _complete_types(net.signature, (X, Y, Z)[:k])]


def _limit_prob_reference(net, p):
    """The product of theta or its complement over the type's literals, each
    theta evaluated on the type's canonical structure."""
    struct, _ = canonical_structure(p)
    prob = 1.0
    for (name, ctuple), sign in p.literals:
        assignment = {v: c + 1 for v, c in zip(net.theta_variables(name), ctuple)}
        v = evaluate(struct, net.theta[name], assignment)
        prob *= v if sign else 1.0 - v
    return prob


def pr_type(blocks, positive):
    variables = sorted({v for b in blocks for v in b}, key=lambda v: v.name)
    return complete_type(PR_SIG, variables, blocks, positive)


class TestDimY:
    def test_single_bound_distinct(self):
        eq = EqualityType.all_distinct([X, Y])
        assert dim_y(eq, [X], [Y]) == 1

    def test_two_bound_equated(self):
        y1, y2 = Variable("y1"), Variable("y2")
        eq = EqualityType.from_blocks([X, y1, y2], [[X], [y1, y2]])
        assert dim_y(eq, [X], [y1, y2]) == 1

    def test_bound_equal_to_free(self):
        eq = EqualityType.from_blocks([X, Y], [[X, Y]])
        assert dim_y(eq, [X], [Y]) == 0


class TestLimitProbType:
    def test_positive_type(self, pr_net):
        p = pr_type([[X]], [("P", (X,)), ("R", (X,))])
        assert limit_prob_type(pr_net, p) == pytest.approx(0.45, abs=1e-12)

    def test_negative_type(self, pr_net):
        p = pr_type([[X]], [])
        assert limit_prob_type(pr_net, p) == pytest.approx(0.4, abs=1e-12)

    def test_empty_signature(self):
        net = PlaNetwork(Signature(()), {}, {})
        p = complete_type(Signature(()), [X, Y], [[X], [Y]])
        assert limit_prob_type(net, p) == 1.0

    def test_rejects_network_with_aggregation(self, remark_net):
        p = complete_type(remark_net.signature, [X], [[X]])
        with pytest.raises(NetworkHasAggregation):
            limit_prob_type(remark_net, p)

    def test_rejects_type_over_another_signature(self, pr_net):
        # a type over P alone, with one slot where a type over P/R has two
        p = complete_type(Signature.of(("P", 1)), [X], [[X]], [("P", (X,))])
        with pytest.raises(ValueError, match="type signature does not match the network"):
            limit_prob_type(pr_net, p)

    def test_type_beyond_the_cap_is_refused(self):
        # the type is read off its equality type's block: 5 classes give E
        # 25 slots, 2^25 types, which no block of the default cap holds
        net = network_from_doc({"relations": [{"name": "E", "arity": 2, "parents": [],
                                               "theta": "0.5"}]})
        variables = [Variable("v%d" % i) for i in range(5)]
        p = complete_type(net.signature, variables, [[v] for v in variables])
        with pytest.raises(TooManyTypes, match="2\\^25 complete types exceed the cap"):
            limit_prob_type(net, p)

    @pytest.mark.parametrize("call", ["alphas", "saturation", "saturation with alpha"])
    def test_other_entry_points_refuse_aggregation_first(self, remark_net, call):
        # p has dimension 0, which alphas and the diagnostic also refuse,
        # but only after the network
        p = complete_type(remark_net.signature, [X, Y], [[X, Y]])
        with pytest.raises(NetworkHasAggregation):
            if call == "alphas":
                alphas(remark_net, (X,), (Y,), p.eq, [])
            else:
                saturation_diagnostic(remark_net, p, p.restrict([X]), delta=0.5, n=4,
                                      samples=10, seed=1,
                                      alpha=0.5 if call == "saturation with alpha" else None)

    def test_rejects_incomplete_type(self):
        # a type has one sign per slot, so one without signs is not built
        with pytest.raises(ValueError, match="0 signs for the 2 slots"):
            AtomicType(PR_SIG, EqualityType.all_distinct([X]), ())

    @pytest.mark.parametrize("doc", THETA_KEY_DOCS.values(), ids=THETA_KEY_DOCS.keys())
    def test_memoised_thetas_give_the_literal_product(self, doc):
        net = network_from_doc(doc)
        for p in _theta_key_types(net):
            assert limit_prob_type(net, p) == _limit_prob_reference(net, p), p

    @pytest.mark.parametrize("doc", THETA_KEY_DOCS.values(), ids=THETA_KEY_DOCS.keys())
    def test_one_memo_serves_every_class_count(self, doc):
        # blocks of the most classes first, then fewer, and back: a value
        # cached for one class count is read by blocks of the others
        net = network_from_doc(doc)
        eqs = [eq for k in (1, 2, 3) for eq in EqualityType.all_partitions((X, Y, Z)[:k])
               if len(net.signature.slots(len(eq.blocks))) <= 10]
        block = _limit_blocks(net)
        for eq in eqs[::-1] + eqs:
            types = enumerate_complete_types(net.signature, eq.variables, eq)
            assert block(eq)[1] == [_limit_prob_reference(net, p) for p in types], eq

    @pytest.mark.parametrize("doc", THETA_KEY_DOCS.values(), ids=THETA_KEY_DOCS.keys())
    def test_block_is_the_literal_product(self, doc):
        # the tree's leaves are the same floats as the type-by-type fold, for
        # every equality type over at most 3 variables with at most 2^10 types
        net = network_from_doc(doc)
        block = _limit_blocks(net)
        for k in (0, 1, 2, 3):
            for eq in EqualityType.all_partitions((X, Y, Z)[:k]):
                if len(net.signature.slots(len(eq.blocks))) <= 10:
                    types = enumerate_complete_types(net.signature, eq.variables, eq)
                    assert block(eq) == (tuple(range(len(types[0].signs))), [
                        _limit_prob_reference(net, p) for p in types]), eq

    @pytest.mark.parametrize("doc", THETA_KEY_DOCS.values(), ids=THETA_KEY_DOCS.keys())
    def test_closure_block_is_the_marginal_of_the_full_block(self, doc):
        # over the parent closure of one slot, each leaf is the sum of the
        # full block's leaves with its signs there: the other slots sum out
        net = network_from_doc(doc)
        block = _limit_blocks(net)
        for k in (1, 2, 3):
            for eq in EqualityType.all_partitions((X, Y, Z)[:k]):
                m = len(net.signature.slots(len(eq.blocks)))
                if m > 10:
                    continue
                _, full = block(eq)
                for j in range(m):
                    closure, leaves = block(eq, [j])
                    assert j in closure
                    parts = [[] for _ in leaves]
                    for key, leaf in zip(index_keys(m, closure), full):
                        parts[key].append(leaf)
                    assert leaves == pytest.approx(list(map(math.fsum, parts)), abs=1e-12), (
                        eq, j)

    def test_n_independence_against_marginals(self, pr_net, binary_net):
        # the product formula equals the exact marginal at every n where the
        # type's variables fit
        for net, vars_, blocks in (
            (pr_net, [X], [[X]]),
            (binary_net, [X, Y], [[X], [Y]]),
        ):
            sig = net.signature
            for p in [
                t
                for t in _complete_types(sig, vars_)
                if [sorted(v.name for v in b) for b in t.eq.blocks]
                == [sorted(v.name for v in b) for b in EqualityType.from_blocks(vars_, blocks).blocks]
            ]:
                product = limit_prob_type(net, p)
                for n in (2, 3):
                    if net is binary_net and n == 3:
                        continue  # 512 worlds; keep it fast
                    dist = exact_distribution(net, n)
                    args = {v: i + 1 for i, v in enumerate(p.variables)}
                    marginal = sum(
                        w.probability
                        for w in dist
                        if realized_by(p, w.structure, args)
                    )
                    assert abs(marginal - product) <= 1e-9


def _complete_types(sig, variables):
    from pla import enumerate_complete_types

    return enumerate_complete_types(sig, variables)


class TestTypeText:
    @pytest.mark.parametrize("sig", [Signature.of(("P", 1)), Signature.of(("P", 1), ("E", 2))])
    def test_joined_parts_format_the_type_formula(self, sig):
        for k in range(4):
            for p in _complete_types(sig, (X, Y, Z)[:k]):
                assert _type_text(p) == format_formula(p.to_formula())

    def test_no_part_and_one_part(self):
        sig = Signature.of(("P", 1))
        (top,) = _complete_types(sig, ())
        assert _type_text(top) == "1.0"
        assert [_type_text(p) for p in _complete_types(sig, (X,))] == ["!P(x)", "P(x)"]


def _alphas_reference(net, xs, p_eq, bodies):
    """The rows of ``reference_alphas`` computed type by type: extensions
    numbered by their place in ``enumerate_complete_types`` and grouped by
    ``restrict``, each body valued by ``value_on`` on the extension's
    canonical structure, beta and gamma from ``_limit_prob_reference``."""
    groups = {}
    for index, p in enumerate(enumerate_complete_types(net.signature, p_eq.variables, p_eq)):
        groups.setdefault(p.restrict(xs), []).append((index, p))
    rows = []
    for base, extensions in sorted(groups.items(), key=lambda item: item[0].signs):
        gamma = _limit_prob_reference(net, base)
        betas = [_limit_prob_reference(net, p) for _, p in extensions]
        values = tuple([b.value_on(*canonical_structure(p)) for _, p in extensions]
                       for b in bodies)
        rows.append(AlphaRow(base.signs, gamma, [index for index, _ in extensions], values, betas,
                             [beta / gamma if gamma > 0.0 else None for beta in betas]))
    return rows


def _partial_reference(net, eq, positions, signs):
    """The type with the equality type ``eq``, these signs at these
    positions and no other atom, and the product of theta or its
    complement over those positions' literals alone, each theta evaluated
    on the type's canonical structure."""
    slots = net.signature.slots(len(eq.blocks))
    given = dict(zip(positions, signs))
    p = AtomicType(net.signature, eq, tuple(given.get(i, False) for i in range(len(slots))))
    struct, _ = canonical_structure(p)
    prob = 1.0
    for i, sign in given.items():
        name, ctuple = slots[i]
        v = evaluate(struct, net.theta[name],
                     {v: c + 1 for v, c in zip(net.theta_variables(name), ctuple)})
        prob *= v if sign else 1.0 - v
    return p, prob


def _closure_reference(net, table, bodies):
    """The rows of a closure table computed type by type: each extension is
    a sign vector over ``table.closure``, its beta and the gamma of its row,
    a sign vector at ``table.base``, from ``_partial_reference``, and each
    body valued by ``value_on`` on the extension's canonical structure."""
    base_eq, restricted = restriction(net.signature, table.eq, table.xs)
    # each base position's place in the closure
    where = [table.closure.index(restricted[j]) for j in table.base]
    rows = []
    for r in range(2 ** len(table.base)):
        base = index_to_signs(r, len(table.base))
        _, gamma = _partial_reference(net, base_eq, table.base, base)
        entries, betas, types = [], [], []
        for index in range(2 ** len(table.closure)):
            signs = index_to_signs(index, len(table.closure))
            if tuple(signs[t] for t in where) == base:
                p, beta = _partial_reference(net, table.eq, table.closure, signs)
                entries.append(index)
                betas.append(beta)
                types.append(p)
        values = tuple([b.value_on(*canonical_structure(p)) for p in types] for b in bodies)
        rows.append(AlphaRow(base, gamma, entries, values, betas,
                             [beta / gamma if gamma > 0.0 else None for beta in betas]))
    return rows


def _assert_rows_match(rows, reference):
    """Alpha table rows equal the per-type computation's, array by array."""
    assert len(rows) == len(reference)
    for row, expected in zip(rows, reference):
        assert row.base == expected.base
        assert row.gamma == expected.gamma
        assert row.entries == expected.entries
        assert row.values == expected.values, row.base
        assert row.betas == expected.betas
        assert row.alphas == expected.alphas


def _assert_parent_closed(net, table, bodies):
    """The closure holds every position a body reads and every position
    theta reads at a slot in it, and nothing else."""
    k = len(table.eq.blocks)
    reads = {i for body in bodies for i in body(k, table.eq.class_index)[0]}
    closure = set()
    while reads - closure:
        closure |= reads
        reads = {i for name, ctuple in (net.signature.slots(k)[j] for j in closure)
                 for i in type_reader(net.theta[name], net.signature)(
                     k, dict(zip(net.theta_variables(name), ctuple)))[0]}
    assert table.closure == tuple(sorted(closure))


# (network, formula) of the compile benchmark's two formulas and of every
# golden ``eliminate`` run
ELIMINATE_CASES = [(NETWORK_DOCS[net_id], text) for net_id, text in dict.fromkeys(
    [("pse", "am[E(x, y) : y : y != x]"), ("pse", "am[S(y) & E(y, x) : y : y != x]")]
    + [(net_id, argv[argv.index("--formula") + 1])
       for _, argv, net_id, _, _ in GOLDEN if argv[0] == "eliminate"])]

# alpha table cases with 0, 1 and 2 parameters: (xs, ys, equality type),
# the equality type's variables out of name order
ALPHA_CASES = {
    "0 params": ((), (Y, X), EqualityType.all_distinct([Y, X])),
    "1 param": ((X,), (Y,), EqualityType.all_distinct([Y, X])),
    "2 equal params": ((X, Y), (Z,), EqualityType.from_blocks([X, Z, Y], [[X, Y], [Z]])),
    "2 params": ((X, Y), (Z,), EqualityType.all_distinct([Z, Y, X])),
}

ALPHA_DOCS = {"P/R": PR_DOC, "P/S/E": PSE_DOC, "P/E/F": PEF_DOC, "binary": BINARY_DOC,
              "chain": CHAIN_DOC}

ALPHA_BODIES = ("E(y, x)", "S(y) & E(y, x)", "R(y)", "0.3", "wm(x = y; 0.9; 0.2)",
                "wm(x = y; 0.9; 0.2) & !(z = x)", "R(y) | P(x)", "E(x, x) & E(y, x)")


class TestAlphas:
    # every pair of a network and a case with at most 2^10 complete types
    @pytest.mark.parametrize("doc, case", [
        pytest.param(doc, case, id="%s-%s" % (doc_id, case_id))
        for doc_id, doc in ALPHA_DOCS.items() for case_id, case in ALPHA_CASES.items()
        if len(network_from_doc(doc).signature.slots(len(case[2].blocks))) <= 10])
    def test_rows_match_the_per_type_computation(self, doc, case):
        net = network_from_doc(doc)
        sig = net.signature
        xs, ys, p_eq = case
        # the bodies over the network's symbols and the aggregation's
        # variables, whose fold has at most 2^12 types per equality type
        formulas = [phi for phi in map(parse_formula, ALPHA_BODIES)
                    if relation_symbols(phi) <= set(sig.names()) and free_vars(phi) <= {*xs, *ys}
                    and len(sig.slots(len(free_vars(phi)))) <= 12]
        readers = [type_reader(phi, sig) for phi in formulas]
        bpfs = [fold_to_bpf(phi, sig) for phi in formulas]
        table = alphas(net, xs, ys, p_eq, readers)
        _assert_parent_closed(net, table, readers)
        _assert_rows_match(table.rows, _closure_reference(net, table, bpfs))
        # the full-signature table is the type-by-type one, and each closure
        # row merges the full rows that restrict to it
        reference = reference_alphas(net, xs, ys, p_eq, readers)
        _assert_rows_match(reference.rows, _alphas_reference(net, xs, p_eq, bpfs))
        assert_merges_reference(table, reference)
        # the full table names each extension by its literals at the closure
        equalities, atoms = type_parts(sig, p_eq)
        for row, out in zip(table.rows, table.to_dict(full_table=True)["rows"]):
            assert out["sum_alpha"] == row.sum_alpha()
            assert [e["extension"] for e in out["entries"]] == [format_formula(conjunction([
                *equalities, *(atoms[i] if sign else Not(atoms[i]) for i, sign in zip(
                    table.closure, index_to_signs(index, len(table.closure))))]))
                for index in row.entries]

    def test_no_type_is_weighed_alone(self):
        # the alpha tables eliminate builds, each weighed in blocks over
        # its closure, match the type-by-type computation
        runs = []
        for doc, text in ELIMINATE_CASES:
            net, phi = network_from_doc(doc), parse_formula(text)
            runs.append((net, phi, eliminate(net, phi)[1]))
        tables = 0
        for net, phi, report in runs:
            # no aggregation nests in another, so the nodes compile in preorder
            nodes = [f for f in subformulas(phi) if isinstance(f, Agg)]
            assert len(nodes) == len(report.agg_nodes)
            for node, record in zip(nodes, report.agg_nodes):
                if record.table is not None:
                    bodies = [fold_to_bpf(body, net.signature) for body in node.bodies]
                    _assert_rows_match(record.table.rows,
                                       _closure_reference(net, record.table, bodies))
                    tables += 1
        assert tables == 6

    def test_no_type_is_built_per_extension(self):
        # every type eliminate leaves alive is one of the report's conjunct
        # types, all over the parameters; a row's entries are the
        # extensions' indices
        def live_types():
            return {id(o): o for o in gc.get_objects() if type(o) is AtomicType}

        tables = 0
        for doc, text in ELIMINATE_CASES:
            net, phi = network_from_doc(doc), parse_formula(text)
            before = live_types()
            bpf, report = eliminate(net, phi)
            after = live_types()
            built = {after[i] for i in after.keys() - before.keys()}
            assert built <= {t for record in report.agg_nodes for t, _ in record.limits} | {
                t for t, _ in bpf.conjuncts}, text
            records = [record for record in report.agg_nodes if record.table is not None]
            assert all(type(index) is int for record in records
                       for row in record.table.rows for index in row.entries)
            tables += len(records)
        assert tables == 6

    @pytest.mark.parametrize("reader", ["type_reader", "sign_reader"])
    def test_body_over_a_variable_outside_the_aggregation_is_refused(self, pr_net, reader):
        phi = parse_formula("R(y) & P(z)")
        body = (type_reader(phi, PR_SIG) if reader == "type_reader"
                else fold_to_bpf(phi, PR_SIG).sign_reader())
        with pytest.raises(ValueError, match=r"variables \['z'\]"):
            alphas(pr_net, [X], [Y], EqualityType.all_distinct([X, Y]), [body])

    def test_unary_body_spectrum(self, pr_net):
        # R(y) reads R(y) and, through theta, P(y): none of x's slots, so
        # one row holds the four extensions over them; the four rows of the
        # full-signature table, one per type of x, each take its spectrum
        body = type_reader(parse_formula("R(y)"), PR_SIG)
        eq = EqualityType.all_distinct([X, Y])
        table = alphas(pr_net, [X], [Y], eq, [body])
        reference = reference_alphas(pr_net, [X], [Y], eq, [body])
        assert table.dim == 1
        assert (len(table.rows), len(reference.rows)) == (1, 4)
        assert [len(row.entries) for row in table.rows] == [4]
        for row in table.rows + reference.rows:
            assert row.sum_alpha() == pytest.approx(1.0, abs=1e-9)
            spectrum = {}
            for value, alpha in zip(row.values[0], row.alphas):
                spectrum[value] = spectrum.get(value, 0.0) + alpha
            assert spectrum[1.0] == pytest.approx(0.55, abs=1e-9)
            assert spectrum[0.0] == pytest.approx(0.45, abs=1e-9)
        assert_merges_reference(table, reference)

    def test_gamma_equals_sum_of_betas(self, pr_net, binary_net):
        for net in (pr_net, binary_net):
            sig = net.signature
            body = type_reader(Const(0.5), sig)
            eq = EqualityType.all_distinct([X, Y])
            table = alphas(net, [X], [Y], eq, [body])
            for row in table.rows:
                assert abs(row.gamma - math.fsum(row.betas)) <= 1e-9

    def test_constant_body_gives_point_spectrum(self, pr_net):
        body = type_reader(Const(0.3), PR_SIG)
        eq = EqualityType.all_distinct([X, Y])
        table = alphas(pr_net, [X], [Y], eq, [body])
        for row in table.rows:
            assert row.values == ([0.3] * len(row.entries),)


class TestEliminate:
    def test_am_collapses_to_constant(self, pr_net):
        bpf, report = eliminate(pr_net, parse_formula("am[R(y) : y : distinct]"))
        assert len(bpf.conjuncts) == 1
        atype, value = bpf.conjuncts[0]
        assert value == 0.55  # exact closed form
        assert atype.variables == ()
        assert not report.warnings

    def test_gm_and_max_and_min(self, pr_net):
        for text, expected in (
            ("gm[R(y) : y : distinct]", 0.0),
            ("max[R(y) : y : distinct]", 1.0),
            ("min[R(y) : y : distinct]", 0.0),
        ):
            bpf, _ = eliminate(pr_net, parse_formula(text))
            assert [c for _, c in bpf.conjuncts] == [expected]

    def test_free_parameter_still_collapses(self, pr_net):
        # R(y)'s closure holds none of x's slots: one row of gamma 1, the
        # sum of the full-signature table's four rows, one per type of x
        phi = parse_formula("am[R(y) : y : y != x]")
        bpf, report = eliminate(pr_net, phi)
        assert [c for _, c in bpf.conjuncts] == [0.55]
        table = report.agg_nodes[0].table
        assert [(row.base, row.gamma) for row in table.rows] == [((), 1.0)]
        reference = reference_alphas(pr_net, phi.params, phi.bound, phi.eq_type,
                                     [type_reader(phi.bodies[0], PR_SIG)])
        assert sorted(row.gamma for row in reference.rows) == pytest.approx(
            [0.05, 0.1, 0.4, 0.45], abs=1e-9
        )
        assert_merges_reference(table, reference)

    def test_output_is_aggregation_free_and_idempotent(self, pr_net):
        for text in (
            "am[R(y) : y : distinct]",
            "am[R(y) : y : y != x] & P(x)",
            "wm(P(x); max[R(y) : y : y != x]; 0.2)",
        ):
            bpf, _ = eliminate(pr_net, parse_formula(text))
            psi = bpf.to_formula()
            assert not has_aggregation(psi)
            again, _ = eliminate(pr_net, psi)
            assert set(again.conjuncts) == set(
                fold_to_bpf(psi, pr_net.signature).conjuncts
            )

    def test_connective_folding_matches_semantics(self, pr_net):
        # the compiled form of an aggregation-free formula has exactly the
        # value function of its direct fold (conjuncts may collapse)
        rng = random.Random(3)
        for _ in range(30):
            phi = random_agg_free(rng, PR_SIG, [X, Y], 3)
            via_eliminate, _ = eliminate(pr_net, phi)
            direct = fold_to_bpf(phi, PR_SIG)
            for _ in range(5):
                n = rng.randint(1, 3)
                A = random_structure(rng, PR_SIG, n)
                a = {X: rng.randint(1, n), Y: rng.randint(1, n)}
                assert via_eliminate.value_on(A, a) == direct.value_on(A, a)

    def test_oracle_agreement_for_aggregation_free_formulas(self, pr_net):
        rng = random.Random(4)
        sets = [ValueSet.point(1.0), ValueSet.point(0.0), ValueSet.parse("0.2:0.8")]
        for _ in range(20):
            phi = random_agg_free(rng, PR_SIG, [X], 2)
            bpf, _ = eliminate(pr_net, phi)
            psi = bpf.to_formula()
            for n in (1, 2):
                for vs in sets:
                    a = exact_event_probability(pr_net, n, phi, {X: 1}, vs)
                    b = exact_event_probability(pr_net, n, psi, {X: 1}, vs)
                    assert a == b

    def test_mc_oracle_concentrates_at_compiled_constant(self, pr_net):
        phi = parse_formula("am[R(y) : y : distinct]")
        bpf, _ = eliminate(pr_net, phi)
        d = bpf.conjuncts[0][1]
        est, _ = mc_event_probability(
            pr_net, 200, phi, {}, ValueSet.parse("%r:%r" % (d - 0.1, d + 0.1)),
            samples=400, seed=9,
        )
        assert est >= 0.95

    def test_degenerate_dimension_zero_is_exact(self, pr_net):
        phi = parse_formula("am[R(y) : y : y = x]")
        bpf, report = eliminate(pr_net, phi)
        assert report.agg_nodes[0].dim == 0
        for n in (1, 2):
            for vs in (ValueSet.point(1.0), ValueSet.point(0.0)):
                a = exact_event_probability(pr_net, n, phi, {X: 1}, vs)
                b = exact_event_probability(pr_net, n, bpf.to_formula(), {X: 1}, vs)
                assert a == b

    def test_binary_aggregation_builds_one_spectrum_per_slot(self, pr_net):
        # mean gap between two bodies: admissible, with the closed form
        # |am_limit(slot 1) - am_limit(slot 2)|
        import math as _math

        from pla.aggregators import AggregationFunction, Registry, BUILTINS

        def mean_gap(r, rho):
            return abs(_math.fsum(r) / len(r) - _math.fsum(rho) / len(rho))

        def mean_gap_limit(spectra):
            one, two = spectra
            return abs(
                _math.fsum(a * c for c, a in one.points)
                - _math.fsum(a * c for c, a in two.points)
            )

        registry = Registry(BUILTINS)
        registry.register(
            AggregationFunction(
                "mean-gap", 2, mean_gap, limit_method="closed_form",
                closed_form=mean_gap_limit,
            )
        )
        phi = parse_formula("mean-gap[R(y), P(y) : y : distinct]", registry)
        bpf, report = eliminate(pr_net, phi, registry=registry)
        # R holds with limit frequency 0.55, P with 0.5
        assert [c for _, c in bpf.conjuncts] == [pytest.approx(0.05, abs=1e-12)]
        table = report.agg_nodes[0].table
        for row in table.rows:
            assert [len(column) for column in row.values] == [len(row.entries)] * 2

    def test_nested_aggregations(self, binary_net):
        # inner mean over neighbours of x, outer max over x
        phi = parse_formula("max[am[E(x, y) : y : y != x] : x : x = x]")
        bpf, report = eliminate(binary_net, phi)
        assert len(report.agg_nodes) == 2
        assert bpf.variables == ()
        # off-diagonal edges appear with probability 0.3 regardless of the
        # endpoint types, so the inner mean tends to 0.3 and so does the max
        assert [c for _, c in bpf.conjuncts] == [pytest.approx(0.3, abs=1e-12)]

    def test_rejects_network_with_aggregation(self, remark_net):
        with pytest.raises(NetworkHasAggregation):
            eliminate(remark_net, parse_formula("max[R(x) : x : x = x]"))

    def test_no_limit_method(self, pr_net):
        with pytest.raises(NoLimitMethod):
            eliminate(pr_net, parse_formula("noisy-or[R(y) : y : distinct]"))

    def test_wrong_body_count_is_refused_by_evaluate_and_eliminate(self, pr_net):
        # the parser checks a known function's arity; a hand-built node
        # reaches the evaluator and the compiler unchecked
        phi = Agg("am", (parse_formula("R(y)"), parse_formula("P(y)")), (Y,),
                  EqualityType.all_distinct([X, Y]))
        world = WorldSampler(pr_net, 3).sample(random.Random(1))
        with pytest.raises(PlaError, match="am takes 1 bodies, got 2"):
            evaluate(world, phi, {X: 1})
        with pytest.raises(PlaError, match="am takes 1 bodies, got 2"):
            eliminate(pr_net, phi)

    def test_zero_gamma_rows_warn_and_compile_to_one(self):
        # P always holds; a body that reads P(x) has a row !P(x) of gamma 0
        net = network_from_doc(ZERO_GAMMA_DOC)
        bpf, report = eliminate(net, parse_formula("am[R(y) | P(x) : y : y != x]"))
        assert report.warnings == ["type !P(x) has limit probability 0; its compiled value 1 "
                                   "is arbitrary"]
        table = report.agg_nodes[0].table
        zero_rows = [r for r in table.rows if r.gamma == 0.0]
        assert [row.base for row in zero_rows] == [(False,)]
        compiled = [value for t, value in report.agg_nodes[0].limits
                    if tuple(t.signs[j] for j in table.base) == zero_rows[0].base]
        assert compiled == [1.0, 1.0]
        # a body that reads none of x's slots has one row, of gamma 1: the
        # types !P(x), of limit probability 0, take its constant, unflagged
        bpf, report = eliminate(net, parse_formula("am[R(y) : y : y != x]"))
        assert not report.warnings
        assert [(row.base, row.gamma) for row in report.agg_nodes[0].table.rows] == [((), 1.0)]
        assert [c for _, c in bpf.conjuncts] == [0.9]

    def test_merged_proportions_past_one_compile_to_one(self):
        # the merged spectrum of R(y) | !R(y) sums to 1 + 1 ulp here
        doc = {
            "relations": [
                {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
                {
                    "name": "R",
                    "arity": 1,
                    "parents": ["P"],
                    "theta": "(P(x1) -> 0.45) & (!P(x1) -> 0.2)",
                },
            ]
        }
        net = network_from_doc(doc)
        bpf, report = eliminate(net, parse_formula("am[R(y) | !R(y) : y : y != x]"))
        assert [c for _, c in bpf.conjuncts] == [1.0]
        assert all(d == 1.0 for _, d in report.agg_nodes[0].limits)
        assert report.to_dict()["output_conjuncts"] == [{"type": "1.0", "value": 1.0}]

    def test_incompatible_equality_types_complete_to_one(self, pr_net):
        # parameters forced distinct: the x1 = x2 type cannot occur and is
        # completed with value 1 plus a warning
        phi = parse_formula("am[R(y) : y : y != x1, y != x2, x1 != x2]")
        bpf, report = eliminate(pr_net, phi)
        assert any("outside the aggregation" in w for w in report.warnings)
        merged = [
            (t, c) for t, c in bpf.conjuncts if len(t.eq.blocks) == 1
        ]
        assert merged and all(c == 1.0 for _, c in merged)


# per aggregation-free network of conftest.NETWORK_DOCS, aggregations whose
# bodies read bound and parameter slots, and slots whose theta reads others
CLOSURE_FORMULAS = {
    "pr": ["am[R(y) : y : y != x]", "max[R(y) & !R(x) | P(x) : y : y != x]"],
    "binary": ["am[E(x, y) | E(x, x) : y : y != x]", "min[E(y, y) -> E(y, x) : y : y != x]"],
    "pse": ["am[S(y) & E(y, x) | S(x) : y : y != x]"],
    "pef": ["gm[wm(F(x, y); 0.9; 0.4) | E(y, x) : y : y != x]", "am[F(y, x) & P(x) : y : y != x]"],
    "ef-fork": ["am[E(x, y) & F(y, x) : y : y != x]"],
    "chain": ["am[S(y) | R(x) : y : y != x]"],
    "child-first": ["am[R(y) & !Q(x) : y : y != x]"],
    "zero-gamma": ["am[R(y) | P(x) : y : y != x]", "am[R(y) : y : y != x]"],
    "ternary": ["am[T(x, y, x) | Q(y) : y : y != x]"],
}

CLOSURE_CASES = list(dict.fromkeys(
    [(net_id, text) for net_id, texts in CLOSURE_FORMULAS.items() for text in texts]
    + [(net_id, argv[argv.index("--formula") + 1])
       for _, argv, net_id, _, _ in GOLDEN if argv[0] == "eliminate"]))


class TestParentClosure:
    """Alpha tables over the parent closure of the bodies' slots against
    ``conftest.reference_alphas``, the tables over every slot."""

    def test_every_aggregation_free_network_has_cases(self):
        assert set(CLOSURE_FORMULAS) == {
            net_id for net_id, doc in NETWORK_DOCS.items()
            if validate(network_from_doc(doc)).aggregation_free}

    @pytest.mark.parametrize("net_id, text", CLOSURE_CASES,
                             ids=["%s: %s" % case for case in CLOSURE_CASES])
    def test_rows_merge_and_constants_match_the_full_signature(self, monkeypatch, net_id, text):
        net, phi = network_from_doc(NETWORK_DOCS[net_id]), parse_formula(text)
        bpf, report = eliminate(net, phi)
        monkeypatch.setattr(COMPILER, "alphas", reference_alphas)
        reference_bpf, reference_report = eliminate(net, phi)
        block = _limit_blocks(net)

        def positive(t):
            return block(t.eq)[1][signs_to_index(t.signs)] > 0.0

        for record, reference in zip(report.agg_nodes, reference_report.agg_nodes, strict=True):
            if record.table is not None:
                assert_merges_reference(record.table, reference.table)
            ours = [(t, c) for t, c in record.limits if positive(t)]
            theirs = [(t, d) for t, d in reference.limits if positive(t)]
            assert ours and [t for t, _ in ours] == [t for t, _ in theirs]
            for (t, c), (_, d) in zip(ours, theirs):
                assert abs(c - d) <= 1e-12, (_type_text(t), c, d)
        # either output collapses to one constant when every type's is one
        outputs = (bpf, reference_bpf)
        for t, _ in max(outputs, key=lambda f: len(f.conjuncts)).conjuncts:
            if positive(t):
                c, d = (f.conjuncts[0][1] if f.variables == () else dict(f.conjuncts)[t]
                        for f in outputs)
                assert abs(c - d) <= 1e-12, (_type_text(t), c, d)

    def test_eliminate_validates_the_network_once(self, monkeypatch):
        # one weigher serves both nodes of the formula
        calls = []
        monkeypatch.setattr(COMPILER, "validate",
                            lambda net: calls.append(net) or validate(net))
        net = network_from_doc(PSE_DOC)
        phi = parse_formula(
            "!am[S(y) & E(y, x) : y : y != x] | wm(P(x); max[E(x, y) : y : y != x]; 0.25)")
        _, report = eliminate(net, phi)
        assert len(report.agg_nodes) == 2
        assert calls == [net]


# aggregation nodes of dimension 0, alone and under a connective: the bound
# variable joins the first parameter or a later one, and exists_at_least
# takes two bodies
DIMENSION_0_CASES = [
    (PR_DOC, "am[R(y) : y : y = x]"),
    (PR_DOC, "max[R(y) & !P(x) : y : y = x] | P(x)"),
    (PSE_DOC, "am[E(y, x) : y : y = z, x != z]"),
    (PSE_DOC, "min[S(y) -> E(x, y) : y : y = x] & !P(x)"),
    (PEF_DOC, "exists_at_least(0.5)[E(x, y), F(y, x) | P(y) : y : y = x]"),
    (PEF_DOC, "exists_at_least(0.5)[E(x, y), F(y, z) | P(y) : y : y = z, x != z]"),
]

# the leaves of random connectives, each a function of its parameters'
# type: most connectives over them are over (x, y), so they fold over two
# equality types
CONNECTIVE_LEAVES = [
    (PR_DOC, ["am[R(z) & P(x) : z : z != x]", "max[R(z) & !P(y) : z : z != y]",
              "am[P(z) | R(x) : z : z != x, z != y, x != y]"]),
    (PSE_DOC, ["am[E(x, z) : z : z != x]", "am[S(z) & E(z, y) : z : z != y]",
               "min[E(z, x) | S(x) : z : z != x]"]),
]


def _random_connective(rng, leaves):
    """A random tree of !, &, |, -> and wm over the leaves, which it holds
    once each, left to right."""
    items = [Not(leaf) if rng.random() < 0.3 else leaf for leaf in leaves]
    while len(items) > 1:
        i = rng.randrange(len(items) - 1)
        left, right = items[i], items.pop(i + 1)
        weight = Const(rng.choice([0.0, 0.25, 0.6, 1.0]))
        items[i] = rng.choice([And(left, right), Or(left, right), Implies(left, right),
                               WeightedMean(left, right, weight), WeightedMean(weight, left, right)])
        if rng.random() < 0.3:
            items[i] = Not(items[i])
    return items[0]


def _replace_aggregations(phi, values):
    """The formula with each aggregation node, left to right, replaced by
    the next constant of ``values``."""
    if isinstance(phi, Agg):
        return Const(next(values))
    parts = children(phi)
    return type(phi)(*(_replace_aggregations(c, values) for c in parts)) if parts else phi


class TestSignReadingFolds:
    """``eliminate`` reads compiled subformulas by their signs alone; the
    oracles read them on each type's canonical structure instead."""

    @pytest.mark.parametrize("doc, text", DIMENSION_0_CASES)
    def test_dimension_0_is_the_formula_on_each_canonical_structure(self, doc, text):
        net = network_from_doc(doc)
        phi = parse_formula(text)
        node = next(f for f in subformulas(phi) if isinstance(f, Agg))
        bpf, report = eliminate(net, phi)
        assert report.agg_nodes[0].dim == 0
        variables = tuple(sorted(free_vars(phi), key=lambda v: v.name))
        assert bpf.variables == variables  # no collapse
        types = enumerate_complete_types(net.signature, variables)
        assert len(bpf.conjuncts) == len(types) and {t for t, _ in bpf.conjuncts} == set(types)
        covered = node.eq_type.restrict(node.params)
        for t, c in bpf.conjuncts:
            if t.restrict(node.params).eq == covered:
                # the one bound tuple is a renaming, so this is exact at every n
                struct, assignment = canonical_structure(t)
                assert c == evaluate(struct, phi, assignment), (text, _type_text(t))
            else:  # outside the node's equality constraint: completed with 1
                assert node is phi and c == 1.0

    @pytest.mark.parametrize("case", range(len(CONNECTIVE_LEAVES)))
    def test_connectives_combine_the_children_read_on_each_canonical_structure(self, case):
        doc, pool = CONNECTIVE_LEAVES[case]
        net = network_from_doc(doc)
        rng = random.Random(100 + case)
        for _ in range(12):
            leaves = [parse_formula(t) for t in rng.sample(pool, rng.choice([2, 3]))]
            phi = _random_connective(rng, leaves)
            bpf, report = eliminate(net, phi)
            # the records come in compile order, so one per leaf, left to right
            nodes = [r.limits for r in report.agg_nodes]
            assert len(nodes) == len(leaves)
            variables = tuple(sorted(free_vars(phi), key=lambda v: v.name))
            types = enumerate_complete_types(net.signature, variables)
            if bpf.variables == ():  # collapsed to one constant
                constants, tolerance = [bpf.conjuncts[0][1]] * len(types), COLLAPSE_TOL
            else:
                assert [t for t, _ in bpf.conjuncts] == types
                constants, tolerance = [c for _, c in bpf.conjuncts], 0.0
            for t, c in zip(types, constants):
                struct, assignment = canonical_structure(t)
                # the one type over the node's parameters that t realizes
                values = iter([next(d for q, d in limits if realized_by(q, struct, assignment))
                               for limits in nodes])
                expected = evaluate(struct, _replace_aggregations(phi, values), assignment)
                assert abs(c - expected) <= tolerance, (format_formula(phi), _type_text(t))

    # a compiled formula is tables, and alpha tables number their types by
    # index, so no complete type is enumerated, and no intermediate
    # subformula is folded
    @pytest.mark.parametrize("doc, text", [
        (PSE_DOC, "!am[S(y) & E(y, x) : y : y != x] | wm(P(x); max[E(x, y) : y : y != x]; 0.25)"),
        (PR_DOC, "(am[R(y) : y : y != x] -> R(x)) & gm[R(y) | P(x) : y : distinct]"),
        (PR_DOC, "am[R(y) : y : y = x]"),
        (PR_DOC, "wm(P(x); R(x); 0.4) -> !R(x)"),
        # the compile benchmark's formulas
        (PSE_DOC, "am[E(x, y) : y : y != x]"),
        (PSE_DOC, "am[S(y) & E(y, x) : y : y != x]"),
    ])
    def test_compiler_never_reads_a_compiled_formula_on_a_structure(self, doc, text,
                                                                    monkeypatch):
        def refuse(*args):
            raise AssertionError("value_on called while compiling")

        def refuse_types(*args):
            raise AssertionError("complete types enumerated while compiling")

        monkeypatch.setattr(BasicProbabilityFormula, "value_on", refuse)
        monkeypatch.setattr(sys.modules["pla.logic"], "enumerate_complete_types", refuse_types)
        eliminate(network_from_doc(doc), parse_formula(text))


def _criterion_5_folds(count):
    """The first ``count`` formulas that acceptance criterion 5 folds, by
    replaying its generator: 50 structures, then per formula the formula and
    two parameter values per structure."""
    rng = random.Random(505)
    sizes = []
    for _ in range(50):
        sizes.append(rng.randint(1, 4))
        random_structure(rng, TEST_SIG, sizes[-1])
    formulas = []
    for _ in range(count):
        formulas.append(random_agg_free(rng, TEST_SIG, [X, Y], 3))
        for n in sizes:
            rng.randint(1, n), rng.randint(1, n)
    return formulas


class TestCompiledTables:
    """A compiled formula's tables against its definition, the conjunction
    of (type -> constant) implications: ``value_on`` against ``evaluate`` of
    ``to_formula()`` on random worlds, and ``sign_reader`` and ``value_on``
    against each conjunct's constant on its type's canonical structure."""

    @staticmethod
    def assert_tables_match_conjuncts(bpf, seed):
        rng = random.Random(seed)
        psi = bpf.to_formula()
        for n in (1, 2, 3, 4):
            for _ in range(2):
                world = random_structure(rng, bpf.signature, n)
                for _ in range(4):
                    a = {v: rng.randint(1, n) for v in bpf.variables}
                    assert bpf.value_on(world, a) == evaluate(world, psi, a), (n, a)
        reader = bpf.sign_reader()
        for t, c in bpf.conjuncts:
            positions, read = reader(len(t.eq.blocks), t.eq.class_index)
            assert read(tuple([t.signs[i] for i in positions])) == c, _type_text(t)
            assert bpf.value_on(*canonical_structure(t)) == c, _type_text(t)

    @pytest.mark.parametrize("doc, text", ELIMINATE_CASES)
    def test_eliminate_outputs(self, doc, text):
        bpf, _ = eliminate(network_from_doc(doc), parse_formula(text))
        self.assert_tables_match_conjuncts(bpf, text)

    def test_criterion_5_folds(self):
        for i, phi in enumerate(_criterion_5_folds(20)):
            self.assert_tables_match_conjuncts(fold_to_bpf(phi, TEST_SIG), i)


class TestConvergenceExperiment:
    def test_exceedance_shrinks_with_n(self, pr_net):
        phi = parse_formula("am[R(y) : y : distinct]")
        psi, _ = eliminate(pr_net, phi)
        table = convergence_experiment(
            pr_net, phi, psi, n_grid=(20, 200), epsilon=0.1, samples=600, seed=21
        )
        first, last = table.rows[0], table.rows[-1]
        assert last.p_exceed <= 0.02
        assert last.p_exceed < first.p_exceed - (first.ci_exceed + last.ci_exceed)

    def test_epsilon_one_never_exceeds(self, pr_net):
        phi = parse_formula("am[R(y) : y : distinct]")
        psi, _ = eliminate(pr_net, phi)
        table = convergence_experiment(
            pr_net, phi, psi, n_grid=(5, 10), epsilon=1.0, samples=100, seed=2
        )
        assert all(row.p_exceed == 0.0 for row in table.rows)

    def test_value_set_mode_on_remark_network(self, remark_net):
        phi = parse_formula("max[R(x) : x : x = x]")
        table = convergence_experiment(
            remark_net, phi, None, n_grid=(50,), epsilon=0.1, samples=800,
            seed=5, value_set=ValueSet.point(1.0),
        )
        row = table.rows[0]
        target = 1.0 - (1.0 - 1.0 / 49.0) ** 50
        assert abs(row.p_in_set - target) <= 3 * max(row.ci_in_set, 1e-3)

    def test_near_columns_track_compiled_constants(self, pr_net):
        phi = parse_formula("am[R(y) : y : distinct]")
        psi, _ = eliminate(pr_net, phi)
        table = convergence_experiment(
            pr_net, phi, psi, n_grid=(100,), epsilon=0.1, samples=300, seed=8
        )
        (d, p_near, _), = table.rows[0].near
        assert d == 0.55
        assert p_near >= 0.95

    def test_csv_shape(self, pr_net):
        phi = parse_formula("am[R(y) : y : distinct]")
        psi, _ = eliminate(pr_net, phi)
        table = convergence_experiment(
            pr_net, phi, psi, n_grid=(5, 10), epsilon=0.25, samples=50, seed=3
        )
        lines = table.to_csv().strip().splitlines()
        assert lines[0] == "n,epsilon,p_exceed,ci_exceed,d_0,p_near_0,ci_0"
        assert len(lines) == 3

    def test_counting_node_applies_its_function_once_per_pinned_key(self, pr_net, monkeypatch):
        # on one world am[R(y) : y : y != x] takes one value per
        # truth value of R(x), so the mean is taken at most twice per world,
        # not once at each of the n values of x
        import pla.aggregators

        phi = parse_formula("am[R(y) : y : y != x]")
        psi, _ = eliminate(pr_net, phi)
        calls = []
        apply = pla.aggregators.apply

        def counted(func, *seqs):
            calls.append(func.name)
            return apply(func, *seqs)

        monkeypatch.setattr(pla.aggregators, "apply", counted)
        samples = 20
        convergence_experiment(pr_net, phi, psi, n_grid=(50,), epsilon=0.2, samples=samples,
                               seed=4)
        assert samples <= len(calls) <= 2 * samples

    @pytest.mark.parametrize("epsilon", [-1.0, -1e-9, math.nan, math.inf])
    def test_rejects_negative_or_nan_epsilon(self, pr_net, epsilon):
        phi = parse_formula("am[R(y) : y : distinct]")
        psi, _ = eliminate(pr_net, phi)
        with pytest.raises(ValueError, match="epsilon"):
            convergence_experiment(pr_net, phi, psi, n_grid=(5,), epsilon=epsilon,
                                   samples=10, seed=1)


class TestSaturation:
    def test_pr_band_holds_at_moderate_size(self, pr_net):
        p = pr_type([[X], [Y]], [("P", (X,)), ("R", (X,)), ("P", (Y,)), ("R", (Y,))])
        q = p.restrict([X])
        result = saturation_diagnostic(pr_net, p, q, delta=0.5, n=60, samples=300, seed=13)
        assert result.alpha == pytest.approx(0.45, abs=1e-9)
        assert result.dim == 1
        assert result.frequency >= 0.95

    def test_huge_delta_always_inside(self, pr_net):
        p = pr_type([[X], [Y]], [("P", (X,)), ("R", (X,)), ("P", (Y,)), ("R", (Y,))])
        q = p.restrict([X])
        result = saturation_diagnostic(pr_net, p, q, delta=1e6, n=30, samples=200, seed=17)
        assert result.frequency == 1.0

    def test_tight_band_at_tiny_domain(self, pr_net):
        # a single candidate extension cannot land in a width-zero band, so
        # the diagnostic only passes when no parameter realizes the base type
        p = pr_type([[X], [Y]], [("P", (X,)), ("R", (X,)), ("P", (Y,)), ("R", (Y,))])
        q = p.restrict([X])
        result = saturation_diagnostic(pr_net, p, q, delta=0.01, n=2, samples=2000, seed=19)
        vacuous = 0.55 ** 2  # no element satisfies P and R
        sigma = math.sqrt(vacuous * (1 - vacuous) / 2000)
        assert abs(result.frequency - vacuous) <= 3 * sigma

    @pytest.mark.parametrize("case", ["pr", "pr-no-extension-tuple", "pse-binary",
                                      "no-extension-literals"])
    def test_frequency_matches_counting_by_realized_by(self, pr_net, case):
        # the diagnostic counts extensions through the evaluator's mean of
        # the extension literals; the reference counts, per base tuple, the
        # extension tuples that realize p outright
        if case.startswith("pr"):
            net = pr_net
            p = pr_type([[X], [Y]], [("P", (X,)), ("R", (X,)), ("P", (Y,)), ("R", (Y,))])
            alpha, delta, n, samples, seed = 0.45, 0.5, 8, 60, 21
            if case == "pr-no-extension-tuple":
                # at n = 1 no y differs from x: a world hits when no element
                # realizes the base type
                n, samples, seed = 1, 300, 3
        elif case == "pse-binary":
            net = network_from_doc(PSE_DOC)
            positive = [("P", (X,)), ("S", (X,)), ("E", (X, X)), ("P", (Y,)), ("S", (Y,)),
                        ("E", (X, Y)), ("E", (Y, X)), ("E", (Y, Y))]
            p = complete_type(net.signature, [X, Y], [[X], [Y]], positive)
            alpha, delta, n, samples, seed = 0.3 * 0.7 * 0.8 ** 3, 1.0, 10, 60, 22
        else:
            # a type over the empty signature has no literal on y: every base
            # tuple has its n - 1 extensions, inside the band at this alpha
            net = pr_net
            p = complete_type(Signature(()), [X, Y], [[X], [Y]])
            alpha, delta, n, samples, seed = 0.75, 0.1, 4, 200, 23
        q = p.restrict([X])
        result = saturation_diagnostic(net, p, q, delta=delta, n=n, samples=samples,
                                       seed=seed, alpha=alpha)
        lower, upper = alpha / (1.0 + delta) * n, alpha * (1.0 + delta) * n
        xs, ys, domain = q.variables, (Y,), range(1, n + 1)
        sampler, rng, hits = WorldSampler(net, n), random.Random(seed), 0
        for _ in range(samples):
            world = sampler.sample(rng)
            counts = [
                sum(realized_by(p, world, dict(zip(xs + ys, args + ext)))
                    for ext in itertools.product(domain, repeat=len(ys)))
                for args in itertools.product(domain, repeat=len(xs))
                if realized_by(q, world, dict(zip(xs, args)))
            ]
            hits += all(lower <= count <= upper for count in counts)
        assert (result.lower, result.upper) == (lower, upper)
        assert result.frequency == hits / samples
        if case == "no-extension-literals":
            assert result.frequency == 1.0
        else:
            assert 0 < result.frequency < 1

    @pytest.mark.parametrize("samples", [0, -1])
    def test_samples_below_one_are_rejected(self, pr_net, samples):
        p = pr_type([[X], [Y]], [("P", (X,)), ("R", (X,)), ("P", (Y,)), ("R", (Y,))])
        with pytest.raises(ValueError, match="samples"):
            saturation_diagnostic(pr_net, p, p.restrict([X]), delta=0.5, n=10,
                                  samples=samples, seed=1)

    def test_requires_restriction_relationship(self, pr_net):
        p = pr_type([[X], [Y]], [("P", (X,))])
        other = pr_type([[X]], [("P", (X,)), ("R", (X,))])
        with pytest.raises(ValueError):
            saturation_diagnostic(pr_net, p, other, delta=0.5, n=10, samples=10, seed=1)


class TestKeyedHarnessesMatchPerTuple:
    """The Monte Carlo harnesses evaluate at the first parameter tuple of
    each ``assignment_keys`` key; on every sampled world their hits, or the
    error they raise, must be those of the per-tuple harnesses in
    ``conftest``."""

    @pytest.fixture
    def outcomes(self, monkeypatch):
        """Wraps ``mc_estimates`` so that each world's hit is checked
        against the reference harness; collects the outcomes."""
        module = sys.modules["pla.eliminate"]
        seen = []
        estimates = module.mc_estimates
        references = {"_experiment_hit": reference_experiment_hit,
                      "_saturated": reference_saturated}

        def checked(net, n, hit, samples, seed, workers=1, registry=None):
            reference = functools.partial(references[hit.func.__name__], *hit.args)

            def both(world):
                got, want = self.outcome(hit, world), self.outcome(reference, world)
                assert got == want
                seen.append(got)
                return hit(world)

            return estimates(net, n, both, samples, seed, 1, registry)

        monkeypatch.setattr(module, "mc_estimates", checked)
        return seen

    @staticmethod
    def outcome(hit, world):
        try:
            return hit(world)
        except PlaError as exc:
            return type(exc), str(exc)

    @pytest.mark.parametrize("doc, text, grid, epsilon", [
        (PR_DOC, "am[R(y) : y : y != x]", (2, 5, 30), 0.2),
        (PR_DOC, "wm(x = z; am[R(y) : y : y != x]; P(z) & R(x))", (2, 4, 9), 0.3),
        (PSE_DOC, "am[S(y) & E(y, x) : y : y != x]", (3, 12), 0.15),
        (PSE_DOC, "am[S(y) : y : y != x] & !E(x, x)", (2, 6, 20), 0.1),
        (PSE_DOC, "wm(x = z; am[P(y) : y : y != z]; max[S(y) : y : y != x] -> E(z, x))",
         (2, 3, 7), 0.2),
    ], ids=["P/R", "P/R-two-variables", "P/S/E-reads-x", "P/S/E-counting", "P/S/E-x=z"])
    def test_convergence_hits(self, outcomes, doc, text, grid, epsilon):
        net = network_from_doc(doc)
        phi = parse_formula(text)
        psi, _ = eliminate(net, phi)
        convergence_experiment(net, phi, psi, n_grid=grid, epsilon=epsilon, samples=40,
                               seed=61, value_set=ValueSet.point(1.0))
        assert len(outcomes) == 40 * len(grid)
        assert {hits[0] for hits in outcomes} == {False, True}  # some worlds exceed

    def test_psi_over_two_variables_at_tuples_with_x_equal_to_z(self, outcomes, pr_net):
        # psi's table of the pattern x = z reads R(x) alone; the keys of
        # tuples with x = z must not mix with those of x != z
        phi = parse_formula("wm(x = z; R(x); am[R(y) : y : y != x])")
        psi, _ = eliminate(pr_net, phi)
        assert len(psi.tables) == 2 and len(psi.variables) == 2
        convergence_experiment(pr_net, phi, psi, n_grid=(3, 10), epsilon=0.3, samples=60,
                               seed=62)
        assert {hits[0] for hits in outcomes} == {False, True}

    def test_empty_range_raises_at_the_same_world(self, outcomes, pr_net):
        phi = parse_formula("am[R(y) : y : y != x]")
        psi, _ = eliminate(pr_net, phi)
        with pytest.raises(EmptyAggregationRange):
            convergence_experiment(pr_net, phi, psi, n_grid=(1,), epsilon=0.2, samples=5,
                                   seed=63)
        assert outcomes[0][0] is EmptyAggregationRange

    @pytest.mark.parametrize("case", ["P/R", "P/R-no-extension-tuple", "P/S/E-binary",
                                      "P/S/E-counting"])
    def test_saturation_hits(self, outcomes, pr_net, case):
        if case.startswith("P/R"):
            net = pr_net
            p = pr_type([[X], [Y]], [("P", (X,)), ("R", (X,)), ("P", (Y,)), ("R", (Y,))])
            n, delta = (1, 0.5) if case.endswith("tuple") else (12, 0.3)
        else:
            net = network_from_doc(PSE_DOC)
            binary = [("E", (X, Y)), ("E", (Y, X))] if case.endswith("binary") else []
            p = complete_type(net.signature, [X, Y], [[X], [Y]],
                              [("P", (X,)), ("S", (X,)), ("P", (Y,)), ("S", (Y,)), *binary])
            n, delta = 12, 1.5
        saturation_diagnostic(net, p, p.restrict([X]), delta=delta, n=n, samples=60, seed=64)
        assert len(outcomes) == 60
        if n > 1:
            assert set(outcomes) == {(False,), (True,)}
