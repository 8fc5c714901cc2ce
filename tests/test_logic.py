"""Core logic: free variables, evaluation, type enumeration, folding."""

import gc
import itertools
import pickle
import random
import weakref

import pytest

from pla import (
    Agg,
    And,
    Atom,
    AtomicType,
    BasicProbabilityFormula,
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
    enumerate_complete_types,
    evaluate,
    fold_to_bpf,
    free_vars,
    function_rank,
)
from pla.eliminate import eliminate
from pla.network import network_from_doc
from pla.logic import (EmptyAggregationRange, NotAggregationFree, assignment_keys, children,
                       subformulas)
from pla.parser import parse_formula

from conftest import (PSE_DOC, TEST_SIG, X, Y, Z, canonical_structure, complete_type, fresh,
                      permuted, random_agg_free, random_formula, random_structure, realized_by,
                      satisfied_by)


SIG_R = Signature.of(("R", 1))
SIG_R2 = Signature.of(("R", 2))


class TestFreeVars:
    def test_const(self):
        assert free_vars(Const(0.3)) == frozenset()

    def test_atom(self):
        assert free_vars(Atom("R", (X, Y))) == {X, Y}

    def test_agg_binds(self):
        eq = EqualityType.all_distinct([X, Y])
        phi = Agg("am", (Atom("R", (X, Y)),), (Y,), eq)
        assert free_vars(phi) == {X}

    def test_eqspec_can_add_free_variables(self):
        # the equality constraint mentions x although no body does
        eq = EqualityType.all_distinct([X, Y])
        phi = Agg("am", (Atom("R", (Y,)),), (Y,), eq)
        assert free_vars(phi) == {X}

    def test_function_rank(self):
        eq = EqualityType.all_distinct([Y])
        agg = Agg("am", (Atom("R", (Y,)),), (Y,), eq)
        assert function_rank(agg) == 1
        assert function_rank(And(agg, Const(0.2))) == 1
        assert function_rank(Atom("R", (X,))) == 0


class TestEvaluate:
    def test_implies_constants(self):
        A = Structure(SIG_R, 1)
        assert evaluate(A, Implies(Const(0.7), Const(0.4))) == pytest.approx(0.7, abs=1e-15)

    def test_not(self):
        A = Structure(SIG_R, 1)
        assert evaluate(A, Not(Const(0.3))) == 0.7

    def test_weighted_mean(self):
        A = Structure(SIG_R, 1)
        phi = WeightedMean(Const(0.25), Const(1.0), Const(0.0))
        assert evaluate(A, phi) == 0.25

    def test_eq(self):
        A = Structure(SIG_R, 2)
        assert evaluate(A, Eq(X, Y), {X: 1, Y: 1}) == 1.0
        assert evaluate(A, Eq(X, Y), {X: 1, Y: 2}) == 0.0

    def test_agg_mean_excluding_parameter(self):
        A = Structure.of(SIG_R, 3, {"R": {(1,)}})
        eq = EqualityType.all_distinct([X, Y])
        phi = Agg("am", (Atom("R", (Y,)),), (Y,), eq)
        # y ranges over {1, 3}: values (1, 0)
        assert evaluate(A, phi, {X: 2}) == 0.5

    def test_agg_bound_equal_to_free(self):
        A = Structure.of(SIG_R, 3, {"R": {(2,)}})
        eq = EqualityType.from_blocks([X, Y], [[X, Y]])
        phi = Agg("am", (Atom("R", (Y,)),), (Y,), eq)
        assert evaluate(A, phi, {X: 2}) == 1.0
        assert evaluate(A, phi, {X: 3}) == 0.0

    def test_atom_outside_the_domain_or_of_wrong_arity_reads_0(self):
        # at n = 3, R(2, 1) has index 3, the index that R(1, 4), R(0, 7),
        # R(4) and R(1, 1, 4) would compute; R(3, 3) has index -1 and R(1, 2)
        # index 1, which R(0, 3) and a unary R(y) at y = 2 would compute
        A = Structure.of(SIG_R2, 3, {"R": {(2, 1), (3, 3), (1, 2)}})
        assert evaluate(A, Atom("R", (X, Y)), {X: 2, Y: 1}) == 1.0
        for a in ({X: 1, Y: 4}, {X: 0, Y: 7}, {X: 0, Y: 3}):
            assert evaluate(A, Atom("R", (X, Y)), a) == 0.0
        assert evaluate(A, Atom("R", (X,)), {X: 4}) == 0.0
        assert evaluate(A, Atom("R", (X, Y, Z)), {X: 1, Y: 1, Z: 4}) == 0.0
        assert fold_to_bpf(Atom("R", (X, Y)), SIG_R2).value_on(A, {X: 1, Y: 4}) == 0.0
        # through an aggregation node: a parameter outside the domain, and
        # an atom of the wrong arity in a counting node's body
        edge = Agg("am", (Atom("R", (X, Y)),), (Y,), EqualityType.all_distinct([X, Y]))
        for x in (0, 4):
            assert evaluate(A, edge, {X: x}) == 0.0
        for args in ((Y,), (Y, Y, Y)):  # R(2, 2, 2) would have index 13, past the column
            node = Agg("am", (Atom("R", args),), (Y,), EqualityType.all_distinct([X, Y]))
            assert evaluate(A, node, {X: 1}) == 0.0

    def test_empty_range_raises(self):
        A = Structure(SIG_R, 1)
        eq = EqualityType.all_distinct([X, Y])
        phi = Agg("am", (Atom("R", (Y,)),), (Y,), eq)
        with pytest.raises(EmptyAggregationRange):
            evaluate(A, phi, {X: 1})  # no y distinct from x in a 1-element domain

    def test_empty_range_uses_declared_empty_value(self):
        from pla.aggregators import AggregationFunction, Registry

        registry = Registry([AggregationFunction("amz", 1, lambda r: 0.5, empty_value=1.0)])
        A = Structure(SIG_R, 1)
        eq = EqualityType.all_distinct([X, Y])
        phi = Agg("amz", (Atom("R", (Y,)),), (Y,), eq)
        assert evaluate(A, phi, {X: 1}, registry) == 1.0

    def test_unknown_aggregation_function(self):
        from pla.aggregators import UnknownAggregationFunction

        A = Structure(SIG_R, 2)
        eq = EqualityType.all_distinct([Y])
        phi = Agg("frobnicate", (Atom("R", (Y,)),), (Y,), eq)
        with pytest.raises(UnknownAggregationFunction):
            evaluate(A, phi)

    def test_boundary_agreement_with_classical_tables(self):
        A = Structure(SIG_R, 1)
        for a, b in itertools.product((0.0, 1.0), repeat=2):
            assert evaluate(A, And(Const(a), Const(b))) == float(a and b)
            assert evaluate(A, Or(Const(a), Const(b))) == float(a or b)
            assert evaluate(A, Implies(Const(a), Const(b))) == float((not a) or b)
        assert evaluate(A, Not(Const(0.0))) == 1.0
        assert evaluate(A, Not(Const(1.0))) == 0.0

    def test_stops_skip_only_aggregation_free_operands(self):
        # y is unassigned, so an operand that reads it raises KeyError when
        # evaluated: past a stop, an aggregation-free one is skipped
        A = Structure.of(TEST_SIG, 1, {"P": {(1,)}})
        for text, value in (("Q(x) & P(y)", 0.0), ("Q(x) & P(x) & P(y) & P(x)", 0.0),
                            ("P(x) | Q(y)", 1.0), ("Q(x) -> P(y)", 1.0),
                            ("wm(Q(x); P(y); 0.3)", 0.3), ("wm(P(x); 0.6; P(y))", 0.6)):
            assert evaluate(A, parse_formula(text), {X: 1}) == value, text
        # at n = 1 no z differs from x, so the node raises wherever it stands
        for text in ("Q(x) & %s", "Q(x) & P(x) & %s & P(y)", "P(x) | %s", "Q(x) -> %s",
                     "wm(Q(x); %s; 0.3)", "wm(P(x); 0.3; %s)"):
            with pytest.raises(EmptyAggregationRange):
                evaluate(A, parse_formula(text % "am[P(z) : z : z != x]"), {X: 1})

    def test_stops_match_the_definition(self):
        rng = random.Random(43)
        leaves = [Const(0.0), Const(1.0), Atom("P", (X,)), Atom("E", (X, Y))]
        for _ in range(300):
            parts = [rng.choice(leaves) if rng.random() < 0.5
                     else random_formula(rng, TEST_SIG, [X, Y], 2) for _ in range(4)]
            phi = rng.choice([And, Or, Implies])(rng.choice([And, Or])(parts[0], parts[1]),
                                                 WeightedMean(*parts[1:]))
            n = rng.randint(2, 3)
            A = random_structure(rng, TEST_SIG, n)
            a = {X: rng.randint(1, n), Y: rng.randint(1, n)}
            assert evaluate(A, phi, a) == per_tuple_value(A, phi, a)

    def test_value_range_random(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(2, 4)
            A = random_structure(rng, TEST_SIG, n)
            phi = random_formula(rng, TEST_SIG, [X, Y], 3)
            value = evaluate(A, phi, {X: rng.randint(1, n), Y: rng.randint(1, n)})
            assert 0.0 <= value <= 1.0


class TestIsomorphismInvariance:
    def test_permuted_structures_give_equal_values(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(2, 4)
            A = random_structure(rng, TEST_SIG, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            mapping = {i + 1: perm[i] for i in range(n)}
            B = permuted(A, mapping)
            phi = random_formula(rng, TEST_SIG, [X, Y], 3)
            a = {X: rng.randint(1, n), Y: rng.randint(1, n)}
            b = {v: mapping[e] for v, e in a.items()}
            assert evaluate(A, phi, a) == evaluate(B, phi, b)


class TestTypeEnumeration:
    def test_single_unary_symbol(self):
        types = enumerate_complete_types(Signature.of(("P", 1)), [X])
        assert len(types) == 2
        marks = sorted(t.literals[0][1] for t in types)
        assert marks == [False, True]

    def test_two_unary_symbols_distinct_constraint(self):
        sig = Signature.of(("P", 1), ("R", 1))
        types = enumerate_complete_types(sig, [X, Y], EqualityType.all_distinct([X, Y]))
        assert len(types) == 16

    def test_empty_signature(self):
        types = enumerate_complete_types(Signature(()), [X, Y])
        assert len(types) == 2
        assert sorted(len(t.eq.blocks) for t in types) == [1, 2]

    def test_exactly_one_type_realized(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 4)
            A = random_structure(rng, TEST_SIG, n)
            assignment = {X: rng.randint(1, n), Y: rng.randint(1, n)}
            realized = [
                t
                for t in enumerate_complete_types(TEST_SIG, [X, Y])
                if realized_by(t, A, assignment)
            ]
            assert len(realized) == 1

    def test_restriction_of_complete_type_is_complete(self):
        for t in enumerate_complete_types(TEST_SIG, [X, Y]):
            q = t.restrict([X])
            assert q.variables == (X,)
        # the restriction of the realized type is the type realized by the
        # restricted assignment, also when the kept variables are no prefix
        # and a class loses its first member
        rng = random.Random(13)
        by_eq = {}
        for t in enumerate_complete_types(TEST_SIG, [X, Y, Z]):
            by_eq.setdefault(t.eq, []).append(t)
        for _ in range(60):
            n = rng.randint(1, 4)
            A = random_structure(rng, TEST_SIG, n)
            a = {X: rng.randint(1, n), Y: rng.randint(1, n), Z: rng.randint(1, n)}
            # realized_by tests the equality type first, so no type outside
            # the one group whose equality type the draw satisfies is realized
            [types] = [types for eq, types in by_eq.items() if satisfied_by(eq, a)]
            [t] = [t for t in types if realized_by(t, A, a)]
            for keep in ([X], [Y], [Z], [X, Y], [X, Z], [Y, Z], [X, Y, Z]):
                q = t.restrict(keep)
                assert q.variables == tuple(keep)
                assert realized_by(q, A, {v: a[v] for v in keep})

    def test_types_list_the_signature_slots(self):
        for sig in random_signatures(1):
            names = sig.names()
            for k in range(4):
                # the slot order written out: symbols in signature order, then
                # class tuples lexicographically
                expected = sorted(
                    ((name, ctuple) for name, arity in sig.symbols
                     for ctuple in itertools.product(range(k), repeat=arity)),
                    key=lambda slot: (names.index(slot[0]), slot[1]))
                assert sig.slots(k) == tuple(expected)
            for variables in ([], [X], [X, Y], [X, Y, Z]):
                types = enumerate_complete_types(sig, variables)
                for t in types:
                    assert tuple(lit for lit, _ in t.literals) == sig.slots(len(t.eq.blocks))
                # every sign vector once per equality type
                for eq in EqualityType.all_partitions(variables):
                    signs = {tuple(sign for _, sign in t.literals) for t in types if t.eq == eq}
                    assert len(signs) == 2 ** len(sig.slots(len(eq.blocks)))

    def test_slot_cache_dies_with_its_signature(self):
        sig = Signature.of(("Fresh", 1), ("Edge", 2))
        slots = sig.slots(2)
        assert sig.slots(2) is slots
        # the cache changes neither equality, hashing nor pickling
        other = Signature.of(("Fresh", 1), ("Edge", 2))
        assert (sig, hash(sig)) == (other, hash(other))
        assert pickle.dumps(sig) == pickle.dumps(other)
        copy = pickle.loads(pickle.dumps(sig))
        assert copy == sig and copy.slots(2) == slots
        ref = weakref.ref(sig)
        del sig, copy
        gc.collect()
        assert ref() is None

    def test_complete_signs_follow_slots(self):
        rng = random.Random(12)
        for sig in random_signatures(2):
            for variables in ([], [X], [X, Y], [X, Y, Z]):
                for eq in EqualityType.all_partitions(variables):
                    slots = sig.slots(len(eq.blocks))
                    reps = [block[0] for block in eq.blocks]
                    positive = [slot for slot in slots if rng.random() < 0.5]
                    t = complete_type(sig, variables, eq.blocks, [
                        (name, [reps[c] for c in ctuple]) for name, ctuple in positive])
                    assert t.signs == tuple(slot in positive for slot in slots)
                    assert t.literals == tuple(zip(slots, t.signs))
                    # one sign per slot: a missing or an extra sign is rejected
                    for signs in (t.signs[:-1], t.signs + (True,)):
                        if len(signs) != len(slots):
                            with pytest.raises(ValueError, match="signs for the"):
                                AtomicType(sig, eq, signs)

    def test_enumeration_with_an_equality_type_filters(self):
        for sig in random_signatures(3):
            for variables in ([], [X], [X, Y], [X, Y, Z]):
                every = enumerate_complete_types(sig, variables)
                for eq in EqualityType.all_partitions(variables):
                    assert enumerate_complete_types(sig, variables, eq) == [
                        t for t in every if t.eq == eq]
        with pytest.raises(ValueError):
            enumerate_complete_types(TEST_SIG, [X, Y], EqualityType.all_distinct([X]))

    def test_complete_orders_literals_by_slot_and_rejects_others(self):
        t = complete_type(TEST_SIG, [X, Y], [[X], [Y]], [("E", (Y, X)), ("P", (X,))])
        assert t.literals == (
            (("P", (0,)), True), (("P", (1,)), False), (("Q", (0,)), False),
            (("Q", (1,)), False), (("E", (0, 0)), False),
            (("E", (0, 1)), False), (("E", (1, 0)), True), (("E", (1, 1)), False))
        for stray in (("R", (X,)), ("E", (X,)), ("P", (X, Y))):
            with pytest.raises(ValueError, match="not slots"):
                complete_type(TEST_SIG, [X, Y], [[X], [Y]], [stray])

    def test_all_partitions_are_the_restricted_growth_strings_in_order(self):
        variables = [Variable("v%d" % i) for i in range(6)]
        for k in range(7):
            # every class tuple whose first occurrences read 0, 1, 2, ...,
            # in lexicographic order
            strings = [p for p in itertools.product(range(k), repeat=k)
                       if all(c <= max(p[:i], default=-1) + 1 for i, c in enumerate(p))]
            expected = [
                tuple(tuple(v for v, c in zip(variables, p) if c == b) for b in sorted(set(p)))
                for p in strings
            ]
            partitions = EqualityType.all_partitions(variables[:k])
            assert [e.blocks for e in partitions] == expected
            assert all(e.variables == tuple(variables[:k]) for e in partitions)
        assert [len(EqualityType.all_partitions(variables[:k])) for k in range(7)] == [
            1, 1, 2, 5, 15, 52, 203]


class TestRealizes:
    def test_positive(self):
        A = Structure.of(SIG_R, 2, {"R": {(1,)}})
        p = complete_type(SIG_R, [X], [[X]], positive=[("R", (X,))])
        assert realized_by(p, A, {X: 1})
        assert not realized_by(p, A, {X: 2})

    def test_negative(self):
        A = Structure.of(SIG_R, 2, {"R": {(1,)}})
        p = complete_type(SIG_R, [X], [[X]])
        assert not realized_by(p, A, {X: 1})
        assert realized_by(p, A, {X: 2})

    def test_equality_violation(self):
        A = Structure(SIG_R, 2)
        p = complete_type(SIG_R, [X, Y], [[X, Y]], positive=[])
        assert not realized_by(p, A, {X: 1, Y: 2})


class TestFold:
    def test_constant(self):
        bpf = fold_to_bpf(Const(0.4), Signature(()))
        assert len(bpf.conjuncts) == 1
        atype, value = bpf.conjuncts[0]
        assert value == 0.4
        assert atype.variables == ()

    def test_cpt_shape(self):
        sig = Signature.of(("P", 1))
        phi = And(
            Implies(Atom("P", (X,)), Const(0.9)),
            Implies(Not(Atom("P", (X,))), Const(0.2)),
        )
        bpf = fold_to_bpf(phi, sig)
        values = {t.literals[0][1]: c for t, c in bpf.conjuncts}
        assert values[True] == pytest.approx(0.9, abs=0)
        assert values[False] == pytest.approx(0.2, abs=0)

    def test_equality_formula(self):
        bpf = fold_to_bpf(Eq(X, Y), Signature(()))
        values = {len(t.eq.blocks): c for t, c in bpf.conjuncts}
        assert values == {1: 1.0, 2: 0.0}

    def test_rejects_aggregation(self):
        eq = EqualityType.all_distinct([Y])
        phi = Agg("am", (Atom("R", (Y,)),), (Y,), eq)
        with pytest.raises(NotAggregationFree):
            fold_to_bpf(phi, SIG_R)

    def test_fold_matches_formula_exactly(self):
        rng = random.Random(11)
        for _ in range(60):
            phi = random_agg_free(rng, TEST_SIG, [X, Y], 3)
            bpf = fold_to_bpf(phi, TEST_SIG)
            psi = bpf.to_formula()
            for _ in range(5):
                n = rng.randint(1, 4)
                A = random_structure(rng, TEST_SIG, n)
                a = {X: rng.randint(1, n), Y: rng.randint(1, n)}
                assert abs(evaluate(A, phi, a) - evaluate(A, psi, a)) <= 1e-12
                assert evaluate(A, psi, a) == bpf.value_on(A, a)

    @staticmethod
    def _fold_by_evaluate(phi, sig):
        """The conjuncts of ``fold_to_bpf`` by its definition: the formula
        evaluated on every complete type's canonical structure."""
        variables = sorted(free_vars(phi), key=lambda v: v.name)
        conjuncts = []
        for atype in enumerate_complete_types(sig, variables):
            struct, assignment = canonical_structure(atype)
            conjuncts.append((atype, evaluate(struct, phi, assignment)))
        return tuple(conjuncts)

    def test_memoised_fold_matches_evaluating_every_type(self):
        rng = random.Random(23)
        formulas = [random_agg_free(rng, TEST_SIG, [X, Y], 3) for _ in range(40)]
        formulas += [
            parse_formula("wm(x = y; P(x); E(x, y))"),  # an equality
            parse_formula("E(x, y) & !E(x, y) | wm(E(x, y); Q(y); 0.4)"),  # a repeated atom
            parse_formula("E(y, x) & !E(x, y)"),  # swapped arguments
            Or(Atom("E", (X,)), Atom("P", (Y,))),  # an atom of the wrong arity
            Not(Atom("P", (X, Y, X))),
        ]
        for phi in formulas:
            assert fold_to_bpf(phi, TEST_SIG).conjuncts == self._fold_by_evaluate(phi, TEST_SIG), phi

    def test_symbol_outside_the_signature_raises_as_evaluate_does(self):
        phi = And(Atom("P", (X,)), Atom("U", (X, Y)))
        with pytest.raises(Exception) as expected:
            self._fold_by_evaluate(phi, TEST_SIG)
        with pytest.raises(expected.type) as got:
            fold_to_bpf(phi, TEST_SIG)
        assert str(got.value) == str(expected.value)


def random_signatures(seed, count=12):
    """Random signatures of up to three symbols of arity 1 or 2, small
    enough to enumerate every complete type over three variables."""
    rng = random.Random(seed)
    out = [Signature(())]
    while len(out) < count:
        arities = [rng.randint(1, 2) for _ in range(rng.randint(1, 3))]
        names = rng.sample(["E", "P", "Q", "R"], len(arities))  # not in name order
        sig = Signature(tuple(zip(names, arities)))
        if len(sig.slots(3)) <= 12:
            out.append(sig)
    return out


def scan_value(bpf, structure, assignment):
    """The value of a basic probability formula by its definition: the
    least constant of the conjuncts whose type the assignment realizes,
    and 1 when that is smaller or none is realized."""
    return min([1.0] + [c for t, c in bpf.conjuncts if realized_by(t, structure, assignment)])


def all_assignments(variables, n):
    for args in itertools.product(range(1, n + 1), repeat=len(variables)):
        yield dict(zip(variables, args))


class TestValueOn:
    """``value_on`` reads the one realized complete type in its table; it
    must agree with the definition.  A formula is refused unless it has one
    table per equality type of its variables, each over that type's slots."""

    def assert_matches_scan(self, bpf, structures):
        for A in structures:
            for a in all_assignments(bpf.variables, A.domain_size):
                assert bpf.value_on(A, a) == scan_value(bpf, A, a)

    def test_folded_formulas_take_the_lookup(self):
        # a structure over a wider signature reads only the formula's symbols
        wider = Signature.of(("P", 1), ("Q", 1), ("E", 2), ("R", 1))
        rng = random.Random(5)
        for _ in range(30):
            bpf = fold_to_bpf(random_agg_free(rng, TEST_SIG, [X, Y], 3), TEST_SIG)
            self.assert_matches_scan(
                bpf,
                [random_structure(rng, TEST_SIG, rng.randint(1, 4)) for _ in range(4)]
                + [random_structure(rng, wider, 3)],
            )

    def test_eliminate_outputs(self, pr_net):
        rng = random.Random(8)
        structures = [random_structure(rng, pr_net.signature, n) for n in (1, 2, 3, 4)]
        for text in (
            "am[R(y) : y : y != x] & P(x)",
            "wm(P(x); max[R(y) : y : y != x]; 0.2) | R(z)",
            "am[R(y) : y : y != x]",  # collapsed to one conjunct over no variables
        ):
            phi = parse_formula(text)
            bpf, _ = eliminate(pr_net, phi)
            variables = sorted(free_vars(phi), key=lambda v: v.name)
            for A in structures:
                for a in all_assignments(variables, A.domain_size):
                    assert bpf.value_on(A, a) == scan_value(bpf, A, a)
        assert bpf.variables == () and len(bpf.conjuncts) == 1

    @staticmethod
    def _tables(case):
        """The tables of the fold of P(x) | Q(y), with one fault: a table of
        x = y missing or listed twice, an extra one over x alone, a value
        short or a position past the 3 slots of one class."""
        together, apart = fold_to_bpf(Or(Atom("P", (X,)), Atom("Q", (Y,))), TEST_SIG).tables
        eq, positions, values = together
        return {
            "missing": (apart,),
            "twice": (together, apart, together),
            "other variables": (together, apart, fold_to_bpf(Atom("P", (X,)), TEST_SIG).tables[0]),
            "value count": ((eq, positions, values[:-1]), apart),
            "position outside": ((eq, positions + (3,), values * 2), apart),
        }[case]

    @pytest.mark.parametrize("case, words", [pytest.param(case, words, id=case) for case, words in (
        ("missing", r"^0 tables of the equality type \(0, 0\) over \['x', 'y'\]"),
        ("twice", r"^2 tables of the equality type \(0, 0\) over \['x', 'y'\]"),
        ("other variables", r"^1 tables of the equality type \(0,\) over \['x'\] in a "
                            r"formula over \['x', 'y'\]$"),
        ("value count", r"3 values for 2 positions"),
        ("position outside", r"\(0, 1, 3\) are not distinct among 3 slots"),
    )])
    def test_faulty_tables_are_refused(self, case, words):
        with pytest.raises(ValueError, match=words):
            BasicProbabilityFormula(TEST_SIG, (X, Y), self._tables(case))

    def test_no_variables(self):
        rng = random.Random(6)
        for sig in (TEST_SIG, Signature(())):
            bpf = fold_to_bpf(Const(0.4), sig)
            assert bpf.variables == ()
            self.assert_matches_scan(bpf, [random_structure(rng, sig, 2)])
            assert bpf.value_on(random_structure(rng, sig, 2), {}) == 0.4


def per_tuple_value(A, phi, a):
    """The value of the formula by the definition, with no stop and no
    table: every operand of every connective evaluated and combined by its
    formula, and every aggregation node's bodies evaluated at each bound
    tuple, visited in lexicographic order, that satisfies the equality
    type."""
    from pla.aggregators import DEFAULT_REGISTRY, apply

    if isinstance(phi, Agg):
        seqs = [[] for _ in phi.bodies]
        for values in itertools.product(range(1, A.domain_size + 1), repeat=len(phi.bound)):
            full = {**a, **dict(zip(phi.bound, values))}
            if satisfied_by(phi.eq_type, full):
                for seq, body in zip(seqs, phi.bodies):
                    seq.append(per_tuple_value(A, body, full))
        if not seqs[0]:
            raise EmptyAggregationRange("no bound tuple")
        return apply(DEFAULT_REGISTRY.get(phi.func), *seqs)
    if isinstance(phi, (Const, Eq, Atom)):
        return evaluate(A, phi, a)
    v = [per_tuple_value(A, c, a) for c in children(phi)]
    if isinstance(phi, Not):
        return 1.0 - v[0]
    if isinstance(phi, And):
        return min(v)
    if isinstance(phi, Or):
        return max(v)
    if isinstance(phi, Implies):
        return min(1.0, 1.0 - v[0] + v[1])
    return v[0] * v[1] + (1.0 - v[0]) * v[2]


V = Variable("v")


def assert_matches(phi, structures, params):
    """``evaluate`` equals ``per_tuple_value`` at every assignment of the
    parameters, on a fresh copy of each structure per call, which counts
    afresh, and on the structure itself, which every assignment shares."""
    for A in structures:
        for values in itertools.product(range(1, A.domain_size + 1), repeat=len(params)):
            a = dict(zip(params, values))
            try:
                expected = per_tuple_value(A, phi, a)
            except EmptyAggregationRange:
                with pytest.raises(EmptyAggregationRange):
                    evaluate(fresh(A), phi, a)
                with pytest.raises(EmptyAggregationRange):
                    evaluate(A, phi, a)
                continue
            assert evaluate(fresh(A), phi, a) == expected, (phi, values)
            assert evaluate(A, phi, a) == expected, (phi, values)


class TestAggregationCache:
    """An aggregation node whose bodies are aggregation-free evaluates each
    body once per key of atom truth values; ``evaluate`` must still give
    the per-tuple definition's value, bit for bit, on a fresh structure per
    call and on one structure shared by every assignment."""

    def random_cases(self, seed, variables, bound, blocks, funcs=("am", "gm", "max", "min")):
        rng = random.Random(seed)
        for _ in range(12):
            body = random_agg_free(rng, TEST_SIG, variables, 3)
            eq_type = EqualityType.from_blocks(variables, blocks)
            phi = Agg(rng.choice(funcs), (body,), bound, eq_type)
            assert phi._body_table is not None
            structures = [random_structure(rng, TEST_SIG, n) for n in (2, 3, 4)]
            yield phi, structures

    def test_two_bound_variables(self):
        for phi, structures in self.random_cases(11, [X, Y, Z], (Y, Z), [[X], [Y], [Z]]):
            assert_matches(phi, structures, [X])

    def test_bound_variable_equated_with_a_parameter(self):
        for phi, structures in self.random_cases(12, [X, Y, Z], (Y, Z), [[X, Y], [Z]]):
            assert_matches(phi, structures, [X])
        # two bound variables in one class, and a class of two parameters
        for phi, structures in self.random_cases(13, [X, V, Y, Z], (Y, Z), [[X, V], [Y, Z]]):
            assert_matches(phi, structures, [X, V])

    def test_repeated_and_swapped_atoms(self):
        body = parse_formula("wm(E(y, x); E(x, y) & !E(y, y); E(x, y) | Q(y))")
        phi = Agg("am", (body,), (Y,), EqualityType.all_distinct([X, Y]))
        atoms, _ = phi._body_table
        assert [atom.symbol for atom in atoms] == ["E", "E", "E", "Q"]  # E(x, y) once
        assert [atom.args for atom in atoms] == [(Y, X), (X, Y), (Y, Y), (Y,)]
        rng = random.Random(14)
        assert_matches(phi, [random_structure(rng, TEST_SIG, n) for n in (2, 3, 5)], [X])

    def test_equality_constant_and_weighted_mean_in_a_body(self):
        body = parse_formula("wm(x = z; 0.3 -> P(z); wm(0.25; E(z, x); y = z))")
        phi = Agg("max", (body,), (Y, Z), EqualityType.from_blocks([X, Y, Z], [[X], [Y, Z]]))
        rng = random.Random(15)
        assert_matches(phi, [random_structure(rng, TEST_SIG, n) for n in (2, 3, 4)], [X])
        for phi, structures in self.random_cases(16, [X, Y], (Y,), [[X], [Y]]):
            assert_matches(phi, structures, [X])

    def test_binary_exists_at_least(self):
        bodies = (parse_formula("E(x, y)"), parse_formula("P(y) | E(y, x)"))
        phi = Agg("exists_at_least(0.5)", bodies, (Y,), EqualityType.all_distinct([X, Y]))
        assert [atom.symbol for atom in phi._body_table[0]] == ["E", "P", "E"]
        rng = random.Random(17)
        assert_matches(phi, [random_structure(rng, TEST_SIG, n) for n in (2, 3, 4, 5)], [X])

    def test_nested_aggregation_takes_the_per_tuple_path(self):
        phi = parse_formula(
            "am[max[E(y, z) & P(x) : z : z != y, z != x, y != x] | Q(y) : y : y != x]")
        inner = next(f for f in subformulas(phi) if isinstance(f, Agg) and f is not phi)
        assert phi._body_table is None and inner._body_table is not None
        rng = random.Random(18)
        assert_matches(phi, [random_structure(rng, TEST_SIG, n) for n in (2, 3, 4)], [X])
        assert inner._body_table[1]  # the inner node filled its table

    def test_one_node_across_domain_sizes(self):
        phi = parse_formula("gm[E(x, y) -> wm(P(y); 0.9; 0.4) : y : y != x]")
        rng = random.Random(19)
        small = [random_structure(rng, TEST_SIG, 3) for _ in range(3)]
        large = [random_structure(rng, TEST_SIG, 6) for _ in range(3)]
        for A, B in zip(small, large):  # interleaved, so each size meets the other's table
            assert_matches(phi, [A, B], [X])
        assert len(phi._body_table[1]) == 4  # (E(x, y), P(y)) truth values

    def test_table_travels_with_the_formula(self):
        phi = parse_formula("am[E(y, x) & !P(y) : y : y != x]")
        rng = random.Random(20)
        A = random_structure(rng, TEST_SIG, 4)
        before = [evaluate(A, phi, {X: x}) for x in range(1, 5)]
        copy = pickle.loads(pickle.dumps(phi))
        assert copy == phi and copy._body_table[1] == phi._body_table[1]
        assert [evaluate(A, copy, {X: x}) for x in range(1, 5)] == before

    def test_key_first_met_after_one_batch(self):
        from pla.logic import _BLOCK

        # at n = 66 a call visits 65 * 64 = 4160 bound tuples, keyed in
        # batches of _BLOCK; P holds only at 66, so every key with P(y) true
        # first occurs at y = 66, in the last 64 tuples, after the first batch
        n = 66
        assert (n - 2) * (n - 2) == _BLOCK < (n - 1) * (n - 2)
        rng = random.Random(29)
        A = Structure.of(TEST_SIG, n, {
            "P": {(n,)},
            "Q": {(e,) for e in range(1, n + 1) if rng.random() < 0.5},
            "E": {t for t in itertools.product(range(1, n + 1), repeat=2) if rng.random() < 0.5},
        })
        text = "am[wm(P(y); E(y, z); 0.3) | Q(z) : y, z : y != x, z != x, y != z]"
        for x in (1, 40):
            phi = parse_formula(text)  # a fresh table, filled by this call
            assert evaluate(A, phi, {X: x}) == per_tuple_value(A, phi, {X: x})
            assert any(key[0] for key in phi._body_table[1])  # P(y) true was met


class TestCountingAggregation:
    """A node whose bound variables form one class of their own, with atoms
    over bound variables only, keys each domain element once per world and
    counts the keys (``Agg._counting``); every value must equal the
    per-tuple definition's, bit for bit."""

    def counting_cases(self, seed, variables, bound, blocks, funcs):
        """Random counting nodes: bodies whose atoms read the bound
        variables and whose equalities read any variable, checked on
        structures of sizes 1 to 5 (at size 1 a parameter pins the one
        element, so the range is empty)."""
        rng = random.Random(seed)
        eq_type = EqualityType.from_blocks(variables, blocks)
        for i in range(18):
            body = WeightedMean(Eq(rng.choice(variables), rng.choice(variables)),
                                random_agg_free(rng, TEST_SIG, bound, 3),
                                random_agg_free(rng, TEST_SIG, bound, 2))
            phi = Agg(funcs[i % len(funcs)], (body,), bound, eq_type)
            assert phi._counting is not None
            yield phi, [random_structure(rng, TEST_SIG, n) for n in (1, 2, 3, 5)]

    @pytest.mark.parametrize("func", ["am", "gm", "max", "min", "noisy-or", "invlen"])
    def test_each_builtin_matches_the_definition(self, func):
        for phi, structures in self.counting_cases(21, [X, Y], (Y,), [[X], [Y]], [func]):
            assert_matches(phi, structures, [X])

    def test_classes_of_two_bound_variables_and_of_two_parameters(self):
        funcs = ["am", "gm", "max", "min", "noisy-or", "invlen"]
        for phi, structures in self.counting_cases(22, [X, V, Y, Z], (Y, Z),
                                                   [[X, V], [Y, Z]], funcs):
            assert_matches(phi, structures, [X, V])  # x != v: an empty range
        for phi, structures in self.counting_cases(23, [X, V, Y], (Y,), [[X], [V], [Y]], funcs):
            assert_matches(phi, structures, [X, V])  # two pinned elements
        for phi, structures in self.counting_cases(24, [Y], (Y,), [[Y]], funcs):
            assert_matches(phi, structures, [])  # nothing pinned

    def test_equality_reading_a_parameter(self):
        phi = parse_formula("am[wm(x = y; 0.3; P(y)) | (y = x -> Q(y)) : y : y != x]")
        assert phi._counting is not None
        rng = random.Random(25)
        assert_matches(phi, [random_structure(rng, TEST_SIG, n) for n in (1, 2, 4)], [X])

    def test_binary_exists_at_least_keeps_bodies_aligned(self):
        bodies = (parse_formula("E(y, y) | P(y)"), parse_formula("wm(x = y; 0.5; Q(y) & !P(y))"))
        phi = Agg("exists_at_least(0.5)", bodies, (Y,), EqualityType.all_distinct([X, Y]))
        assert phi._counting is not None
        rng = random.Random(26)
        assert_matches(phi, [random_structure(rng, TEST_SIG, n) for n in (1, 2, 3, 5, 6)], [X])

    def test_empty_range_gives_the_declared_value(self):
        from pla.aggregators import AggregationFunction, Registry

        registry = Registry([AggregationFunction("amz", 1, lambda r: sum(r) / len(r),
                                                 empty_value=0.25)])
        phi = parse_formula("amz[P(y) : y : y != x]", registry)
        assert phi._counting is not None
        A = Structure.of(TEST_SIG, 1, {"P": {(1,)}})
        assert evaluate(A, phi, {X: 1}, registry) == 0.25
        with pytest.raises(EmptyAggregationRange):
            evaluate(A, parse_formula("am[P(y) : y : y != x]"), {X: 1})

    def test_atom_reading_a_parameter_falls_back(self):
        phi = parse_formula("am[E(x, y) | P(y) : y : y != x]")
        assert phi._counting is None and phi._body_table is not None
        shared = parse_formula("am[P(y) : y : y = x]")  # the bound class holds x
        assert shared._counting is None
        rng = random.Random(27)
        structures = [random_structure(rng, TEST_SIG, n) for n in (1, 2, 4)]
        assert_matches(phi, structures, [X])
        assert_matches(shared, structures, [X])

    def test_counting_plan_travels_with_the_formula(self):
        phi = parse_formula("max[P(y) & !E(y, y) | y = x : y : y != x]")
        A = random_structure(random.Random(28), TEST_SIG, 4)
        before = [evaluate(A, phi, {X: x}) for x in range(1, 5)]
        copy = pickle.loads(pickle.dumps(phi))
        assert copy._counting is not None and copy._body_table[1] == phi._body_table[1]
        assert [evaluate(fresh(A), copy, {X: x}) for x in range(1, 5)] == before

    def test_one_structure_keys_each_element_once(self, monkeypatch):
        import pla.logic

        visited = []
        original = pla.logic.satisfying_bound_tuples

        def counting(*args):
            for combo in original(*args):
                visited.append(combo)
                yield combo

        monkeypatch.setattr(pla.logic, "satisfying_bound_tuples", counting)
        n = 30
        phi = parse_formula("am[R(y) : y : y != x]")
        A = Structure.of(SIG_R, n, {"R": {(e,) for e in range(1, n + 1) if e % 3}})
        values = [evaluate(A, phi, {X: x}) for x in range(1, n + 1)]
        assert len(visited) == n  # not n(n - 1)
        assert values == [per_tuple_value(A, phi, {X: x}) for x in range(1, n + 1)]
        assert [evaluate(fresh(A), phi, {X: x}) for x in range(1, n + 1)] == values
        assert len(visited) == n + n * n  # a fresh structure keys every element per call
        for outside in (0, n + 1):  # a parameter outside the domain pins nothing
            assert evaluate(A, phi, {X: outside}) == per_tuple_value(A, phi, {X: outside})


class TestCountingValueMemo:
    """On a structure, a counting node's value is stored by the node, its
    function and the sorted keys of the elements its parameters pin, and
    read back at every assignment with the same keys; every value must
    still equal the per-tuple definition's, bit for bit."""

    TWO_PINS = Agg("am", (Atom("R", (Y,)),), (Y,),
                   EqualityType.from_blocks([X, Z, Y], [[X], [Z], [Y]]))

    def test_two_parameters_pinning_elements_with_equal_and_unequal_keys(self):
        rng = random.Random(31)
        structures = [Structure.of(SIG_R, n, {"R": {(e,) for e in range(1, n + 1)
                                                 if rng.random() < 0.5}})
                      for n in (1, 2, 3, 4, 5, 6) for _ in range(3)]
        # x = z violates the equality type; at n = 2 two pins empty the range
        assert_matches(self.TWO_PINS, structures, [X, Z])
        A = Structure.of(SIG_R, 4, {"R": {(1,), (2,)}})
        for x, z in itertools.permutations(range(1, 5), 2):
            assert evaluate(A, self.TWO_PINS, {X: x, Z: z}) == per_tuple_value(
                A, self.TWO_PINS, {X: x, Z: z})
        # one value per multiset of pinned keys: {T, T}, {T, F}, {F, F}
        assert sum(isinstance(key, tuple) for key in A.memo) == 3

    def test_two_registries_binding_one_name_on_one_structure(self):
        from pla.aggregators import AggregationFunction, Registry

        mean = Registry([AggregationFunction("f", 1, lambda r: sum(r) / len(r))])
        top = Registry([AggregationFunction("f", 1, max)])
        phi = parse_formula("f[R(y) : y : y != x]", mean)
        A = Structure.of(SIG_R, 5, {"R": {(1,), (4,)}})
        for x in range(1, 6):
            for registry in (mean, top, mean):
                assert evaluate(A, phi, {X: x}, registry) == evaluate(fresh(A), phi, {X: x},
                                                                      registry)
        assert [evaluate(A, phi, {X: x}, top) for x in range(1, 6)] == [1.0] * 5
        assert evaluate(A, phi, {X: 1}, mean) == 0.25

    def test_empty_range_raises_at_every_call(self):
        world = Structure.of(SIG_R, 2, {"R": {(2,)}})
        assert evaluate(world, self.TWO_PINS, {X: 1, Z: 3}) == 1.0  # z pins nothing
        for _ in range(2):
            for x, z in ((1, 2), (2, 1), (1, 1)):  # the last violates the equality type
                with pytest.raises(EmptyAggregationRange):
                    evaluate(world, self.TWO_PINS, {X: x, Z: z})
        assert evaluate(world, self.TWO_PINS, {X: 1, Z: 3}) == 1.0

    def test_aggregating_non_root_theta_in_the_sampler(self):
        from pla.network import WorldSampler, network_from_doc

        from conftest import NON_ROOT_AGGREGATION_DOC

        net = network_from_doc(NON_ROOT_AGGREGATION_DOC)
        rng = random.Random(32)
        for n in (2, 5, 9):
            sampler = WorldSampler(net, n)
            (step,) = [step for step in sampler._plan if step.name == "R"]
            assert step.cache is None  # evaluated at every tuple, on one structure
            for _ in range(4):
                world = sampler.sample(rng)
                assert sampler._thetas(world.columns, step) == [
                    per_tuple_value(world, step.theta, dict(zip(step.variables, args)))
                    for args in step.tuples]


def outcome(value_of, *args):
    """The value, or the type and message of the error it raises."""
    try:
        return value_of(*args)
    except Exception as exc:  # a PlaError or the KeyError of an unknown symbol
        return type(exc), str(exc)


def random_bpf(rng, sig, variables):
    """A basic probability formula over the variables with a random subset
    of each equality type's slots as its positions and random constants."""
    tables = []
    for eq in EqualityType.all_partitions(variables):
        positions = [i for i in range(len(sig.slots(len(eq.blocks)))) if rng.random() < 0.5]
        rng.shuffle(positions)
        tables.append((eq, tuple(positions),
                       tuple(round(rng.random(), 3) for _ in range(2 ** len(positions)))))
    return BasicProbabilityFormula(sig, tuple(variables), tuple(tables))


class TestAssignmentKeys:
    """``assignment_keys`` is sound: two tuples with one key give each
    formula one value, or one error, whether its aggregation nodes count
    (one key per pinned element key and atom signs) or not (the key is the
    tuple itself)."""

    def assert_sound(self, formulas, variables, structures):
        keyed = 0
        for A in structures:
            tuples = list(itertools.product(range(1, A.domain_size + 1), repeat=len(variables)))
            for phi in formulas:
                if isinstance(phi, BasicProbabilityFormula):
                    value_of = lambda a: phi.value_on(A, a)
                else:
                    value_of = lambda a: evaluate(A, phi, a)
                seen = {}
                keys = assignment_keys(A, (phi,), variables, tuples)
                assert keys == assignment_keys(fresh(A), (phi,), variables, tuples)
                for key, args in zip(keys, tuples):
                    got = outcome(value_of, dict(zip(variables, args)))
                    assert seen.setdefault(key, got) == got, (phi, args)
                keyed += len(seen) < len(tuples)
        return keyed

    @pytest.mark.parametrize("variables", [[X], [X, Z]], ids=["k1", "k2"])
    def test_random_formulas(self, variables):
        rng = random.Random(41 + len(variables))
        formulas = [random_formula(rng, TEST_SIG, variables, 3) for _ in range(60)]
        formulas += [random_bpf(rng, TEST_SIG, variables) for _ in range(10)]
        structures = [random_structure(rng, TEST_SIG, n) for n in (1, 2, 3, 5)]
        assert self.assert_sound(formulas, variables, structures) > 40
        assert any(isinstance(phi, Agg) and phi._counting is not None for phi in formulas)
        assert any(isinstance(phi, Agg) and phi._counting is None for phi in formulas)

    def test_equalities_and_two_counting_nodes_over_different_parameters(self):
        formulas = [parse_formula(text) for text in (
            "wm(x = z; am[P(y) : y : y != x]; Q(z))",
            "am[P(y) : y : y != x] & max[Q(y) | E(y, y) : y : y != z]",
            "noisy-or[P(y) : y : y != x, y != z, x != z] -> E(z, x)",
        )]
        rng = random.Random(43)
        structures = [random_structure(rng, TEST_SIG, n) for n in (1, 2, 6, 8)]
        assert self.assert_sound(formulas, [X, Z], structures) >= 3 * 2
        world = Structure.of(TEST_SIG, 3, {"P": {(1,), (2,)}})
        keys = assignment_keys(world, formulas[1:2], [X, Z], [(1, 3), (2, 3), (3, 1)])
        assert keys[0] == keys[1] != keys[2]  # P(1) and P(2) hold, P(3) does not

    def test_nested_and_parameter_reading_nodes_key_by_the_tuple(self):
        formulas = [parse_formula(text) for text in (
            "am[E(x, y) : y : y != x]",
            "max[am[P(w) & E(w, y) : w : w != y] : y : y != x]",
            "P(x) & min[Q(y) : y : y = x]",  # the bound class holds x
        )]
        rng = random.Random(44)
        structures = [random_structure(rng, TEST_SIG, n) for n in (1, 2, 4)]
        assert self.assert_sound(formulas, [X], structures) == 0
        tuples = [(1,), (2,), (3,)]
        for phi in formulas:
            assert assignment_keys(structures[-1], (phi,), [X], tuples) == tuples

    def test_a_basic_probability_formula_reads_its_positions_only(self):
        psi = eliminate(network_from_doc(PSE_DOC), parse_formula(
            "wm(x = z; am[S(y) : y : y != x]; E(x, z) & P(z))"))[0]
        rng = random.Random(45)
        structures = [random_structure(rng, psi.signature, n) for n in (1, 2, 4)]
        assert self.assert_sound([psi], [X, Z], structures) == 2
        assert self.assert_sound([psi], [Z, X], structures) == 2
