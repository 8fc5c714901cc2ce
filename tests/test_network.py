"""Networks: validation, sampling, exact enumeration, event probabilities."""

import concurrent.futures
import itertools
import math
import os
import random
import tracemalloc

import pytest

from pla import (
    Atom,
    Const,
    Signature,
    Structure,
    ValueSet,
    Variable,
    evaluate,
    format_formula,
    parse_formula,
    validate,
)
from pla import network
from pla.aggregators import AggregationFunction, Registry
from pla.errors import PlaError
from pla.logic import EmptyAggregationRange, equality_pattern, free_vars, relation_symbols
from pla.network import (
    ArityMismatch,
    CycleDetected,
    PlaNetwork,
    ThetaUsesNonParent,
    TooManyWorlds,
    WorldSampler,
    exact_distribution,
    exact_event_probability,
    mc_event_probability,
    network_from_doc,
    network_to_doc,
    sample,
    structure_from_doc,
    structure_to_doc,
)

from conftest import (
    BINARY_DOC,
    CHAIN_DOC,
    CHILD_FIRST_DOC,
    NETWORK_DOCS,
    NON_ROOT_AGGREGATION_DOC,
    PEF_DOC,
    PR_DOC,
    PSE_DOC,
    REMARK_DOC,
    TERNARY_DOC,
    X,
    fresh,
    permuted,
    random_agg_free,
    reference_sample,
    unary_fan_doc,
    wide_key_doc,
    world_key,
)


def binom_sigma(n, p):
    return math.sqrt(n * p * (1.0 - p))


class TestValidate:
    def test_pr_ranks(self, pr_net):
        strat = validate(pr_net)
        assert strat.rank == {"P": 0, "R": 1}
        assert strat.strata == [["P"], ["P", "R"]]
        assert strat.aggregation_free

    def test_remark_not_aggregation_free(self, remark_net):
        strat = validate(remark_net)
        assert strat.rank == {"R": 0}
        assert not strat.aggregation_free

    def test_self_loop_is_a_cycle(self):
        net = PlaNetwork(Signature.of(("R", 1)), {"R": ("R",)}, {"R": Const(0.5)})
        with pytest.raises(CycleDetected):
            validate(net)

    def test_two_cycle(self):
        net = PlaNetwork(
            Signature.of(("A", 1), ("B", 1)),
            {"A": ("B",), "B": ("A",)},
            {"A": Const(0.5), "B": Const(0.5)},
        )
        with pytest.raises(CycleDetected):
            validate(net)

    def test_theta_must_use_parents_only(self):
        net = PlaNetwork(
            Signature.of(("R", 1)),
            {"R": ()},
            {"R": Atom("R", (Variable("x1"),))},
        )
        with pytest.raises(ThetaUsesNonParent):
            validate(net)

    def test_theta_variables_must_fit_arity(self):
        net = PlaNetwork(
            Signature.of(("P", 1), ("R", 1)),
            {"P": (), "R": ("P",)},
            {"P": Const(0.5), "R": Atom("P", (Variable("x2"),))},
        )
        with pytest.raises(ArityMismatch):
            validate(net)

    def test_theta_atoms_must_fit_the_signature(self):
        # P(x1, x1) with P unary would be false at every tuple
        net = PlaNetwork(
            Signature.of(("P", 1), ("R", 1)),
            {"P": (), "R": ("P",)},
            {"P": Const(0.5), "R": Atom("P", (Variable("x1"), Variable("x1")))},
        )
        with pytest.raises(ArityMismatch, match=r"^formula for R: the formula uses P with "
                                                r"arity 2, but P has arity 1$"):
            validate(net)

    def test_doc_round_trip(self, pr_net):
        doc = network_to_doc(pr_net)
        again = network_from_doc(doc)
        assert network_to_doc(again) == doc


class TestSample:
    def test_bernoulli_root(self, pr_net):
        hits = sum(sample(pr_net, 1, seed).holds("P", (1,)) for seed in range(400))
        assert abs(hits - 200) <= 3 * binom_sigma(400, 0.5)

    def test_deterministic_given_seed(self, pr_net):
        a = sample(pr_net, 4, 123)
        b = sample(pr_net, 4, 123)
        c = sample(pr_net, 4, 124)
        assert world_key(a) == world_key(b)
        # a different seed, almost surely a different world
        assert world_key(a) != world_key(c)

    def test_sampler_keeps_no_list_per_tuple(self):
        # at n = 400 E has 160 000 tuples: the sampler keeps their
        # equality-pattern keys, a byte each, and 400 slices or ints per
        # atom of E's theta; a list of ints or indices per tuple takes MBs
        net = network_from_doc(PSE_DOC)
        tracemalloc.start()
        try:
            sampler = WorldSampler(net, 400)
            retained, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            sampler.sample(random.Random(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert retained < 1e6
        assert peak < 2e6

    def test_conditional_frequency_reads_theta(self, pr_net):
        n, worlds = 20, 400
        sampler = WorldSampler(pr_net, n)
        rng = random.Random(7)
        given_p, r_and_p = 0, 0
        for _ in range(worlds):
            world = sampler.sample(rng)
            for e in range(1, n + 1):
                if world.holds("P", (e,)):
                    given_p += 1
                    r_and_p += world.holds("R", (e,))
        freq = r_and_p / given_p
        assert abs(freq - 0.9) <= 3 * binom_sigma(given_p, 0.9) / given_p

    def test_remark_marginal_is_one_over_n_minus_one(self, remark_net):
        n, worlds = 10, 3000
        sampler = WorldSampler(remark_net, n)
        rng = random.Random(11)
        hits = sum(sampler.sample(rng).holds("R", (1,)) for _ in range(worlds))
        target = 1.0 / (n - 1)
        assert abs(hits / worlds - target) <= 3 * binom_sigma(worlds, target) / worlds


# networks whose thetas stress the sampler's cache key: a parent read at
# swapped arguments, a repeated atom, an equality in a non-root theta, and
# aggregation in a non-root and in a root theta
CACHE_DOCS = {
    "swapped-args": {"relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.4"},
        {"name": "E", "arity": 2, "parents": [], "theta": "wm(x1 = x2; 0.6; 0.3)"},
        {"name": "F", "arity": 2, "parents": ["E", "P"],
         "theta": "wm(E(x2, x1); 0.9; wm(P(x2); 0.5; 0.1))"},
    ]},
    "repeated-atom": {"relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
        {"name": "R", "arity": 2, "parents": ["P"],
         "theta": "wm(P(x2) & P(x2); 0.7; 0.2) | (P(x1) -> 0.4) | !P(x2)"},
    ]},
    "non-root-equality": {"relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.5"},
        {"name": "G", "arity": 2, "parents": ["P"],
         "theta": "wm(x1 = x2; wm(P(x1); 0.8; 0.3); 0.25)"},
    ]},
    "non-root-aggregation": NON_ROOT_AGGREGATION_DOC,
    "counterexample": REMARK_DOC,
}


def theta_product(net, world):
    """The probability of the world written out from the definition: theta
    evaluated afresh at every tuple, in the sampler's order."""
    prob = 1.0
    for name in validate(net).order:
        variables = net.theta_variables(name)
        for args in itertools.product(range(1, world.domain_size + 1), repeat=len(variables)):
            p = evaluate(fresh(world), net.theta[name], dict(zip(variables, args)))
            prob *= p if world.holds(name, args) else 1.0 - p
    return prob


def draw_by_definition(net, n, rng):
    """A world drawn tuple by tuple with theta evaluated afresh each time,
    on the tuples drawn so far, consuming ``rng`` in the sampler's order."""
    chosen = {}
    for name in validate(net).order:
        world = Structure.of(net.signature, n, chosen)
        variables = net.theta_variables(name)
        chosen[name] = [
            args for args in itertools.product(range(1, n + 1), repeat=len(variables))
            if rng.random() < evaluate(fresh(world), net.theta[name], dict(zip(variables, args)))]
    return Structure.of(net.signature, n, chosen)


# every network at n=2; at n=3 those with at most 2^12 worlds
# (swapped-args has 2^21)
THETA_PRODUCT_CASES = [(2, name) for name in CACHE_DOCS] + [
    (3, "repeated-atom"), (3, "non-root-equality"), (3, "non-root-aggregation"),
    (3, "counterexample")]


class TestThetaCache:
    @pytest.mark.parametrize("n, doc_id", THETA_PRODUCT_CASES,
                             ids=["%d-%s" % case for case in THETA_PRODUCT_CASES])
    def test_probability_matches_theta_product(self, n, doc_id):
        net = network_from_doc(CACHE_DOCS[doc_id])
        for world in exact_distribution(net, n):
            assert world.probability == theta_product(net, world.structure)

    @pytest.mark.parametrize("doc", CACHE_DOCS.values(), ids=CACHE_DOCS.keys())
    def test_sample_matches_draw_by_definition(self, doc):
        net = network_from_doc(doc)
        sampler = WorldSampler(net, 3)
        for seed in range(20):
            drawn = sampler.sample(random.Random(seed))
            assert world_key(drawn) == world_key(draw_by_definition(net, 3, random.Random(seed)))


# every conftest network and the cache-key networks above
ORACLE_DOCS = {**NETWORK_DOCS, **CACHE_DOCS}


def drawn(draw):
    """The relations of a drawn world, as lists in column order, or the
    message of the error the draw raised."""
    try:
        world = draw()
    except PlaError as exc:
        return str(exc)
    return {name: list(world.tuples(name)) for name in world.signature.names()}


class TestSamplerOracle:
    """The columnar sampler against ``conftest.reference_sample``, which
    reads every tuple's atoms one byte at a time and draws tuple by
    tuple."""

    @pytest.mark.parametrize("n", (1, 2, 3, 6))
    @pytest.mark.parametrize("doc_id", ORACLE_DOCS)
    def test_worlds_and_theta_lists_equal_the_reference(self, doc_id, n):
        net = network_from_doc(ORACLE_DOCS[doc_id])
        sampler = WorldSampler(net, n)
        for seed in range(5):
            rng, reference_rng = random.Random(seed), random.Random(seed)
            world = drawn(lambda: sampler.sample(rng))
            assert world == drawn(lambda: reference_sample(net, n, reference_rng))
            assert rng.getstate() == reference_rng.getstate()
            if isinstance(world, str):  # an empty aggregation range at n = 1
                continue
            structure = Structure.of(net.signature, n, world)
            for step in sampler._plan:
                assert sampler._thetas(structure.columns, step) == [
                    evaluate(structure, step.theta, dict(zip(step.variables, args)))
                    for args in itertools.product(range(1, n + 1), repeat=len(step.variables))]

    def test_ternary_pattern_codes_are_five(self):
        # the 27 tuples over [3] show all 5 equality patterns of 3 positions
        sampler = WorldSampler(network_from_doc(TERNARY_DOC), 3)
        (step,) = [step for step in sampler._plan if step.name == "T"]
        assert len(set(step.keys)) == 5
        tuples = itertools.product(range(1, 4), repeat=3)
        assert len(set(zip(step.keys, map(equality_pattern, tuples)))) == 5


    @pytest.mark.parametrize("atoms, stride", [(6, 2), (13, 2), (20, 4), (61, 8)])
    def test_wide_keys_equal_the_reference(self, atoms, stride):
        # W's key takes atoms + 3 bits: 9 and 16 bits pack in slots of 2
        # bytes, 23 in slots of 4 and 64 in slots of 8
        net = network_from_doc(wide_key_doc(atoms))
        for n in (1, 2, 3):
            sampler = WorldSampler(net, n)
            (step,) = [step for step in sampler._plan if step.name == "W"]
            assert step.stride == stride
            for seed in range(5):
                rng, reference_rng = random.Random(seed), random.Random(seed)
                world = sampler.sample(rng)
                reference = reference_sample(net, n, reference_rng)
                assert drawn(lambda: world) == drawn(lambda: reference)
                assert rng.getstate() == reference_rng.getstate()
                assert sampler._thetas(world.columns, step) == [
                    evaluate(world, step.theta, dict(zip(step.variables, args)))
                    for args in itertools.product(range(1, n + 1), repeat=3)]

    def test_keys_over_64_bits_are_refused(self):
        # 63 unary parents and the pair of C's positions key C by 64 bits
        WorldSampler(network_from_doc(unary_fan_doc(63)), 2)
        with pytest.raises(PlaError, match=r"^the sampler keys the formula of C by 65 bits, "):
            WorldSampler(network_from_doc(unary_fan_doc(64)), 2)


class TestExactDistribution:
    def test_pr_world_table_at_n1(self, pr_net):
        dist = exact_distribution(pr_net, 1)
        probs = [w.probability for w in dist]
        # worlds in bitmask order: (noP,noR), (noP,R), (P,noR), (P,R)
        assert probs == pytest.approx([0.4, 0.1, 0.05, 0.45], abs=1e-9)
        # a world cannot change: each relation is a bytes column
        assert [[w.structure.columns[name] for name in "PR"] for w in dist] == [
            [b"\0", b"\0"], [b"\0", b"\1"], [b"\1", b"\0"], [b"\1", b"\1"]]
        assert all(type(column) is bytes for w in dist for column in w.structure.columns.values())

    def test_normalization(self, pr_net, binary_net):
        for n in (1, 2, 3):
            dist = exact_distribution(pr_net, n)
            assert abs(sum(w.probability for w in dist) - 1.0) <= 1e-9
        dist = exact_distribution(binary_net, 2)
        assert len(dist) == 16
        assert abs(sum(w.probability for w in dist) - 1.0) <= 1e-9

    def test_empty_signature_single_world(self):
        net = PlaNetwork(Signature(()), {}, {})
        dist = exact_distribution(net, 3)
        assert len(dist) == 1
        assert dist[0].probability == 1.0

    def test_world_cap(self, pr_net):
        with pytest.raises(TooManyWorlds):
            exact_distribution(pr_net, 3, world_cap=63)


def exact_by_definition(net, n, phi, assignment, value_set):
    """Every world's probability and the event probability, written out:
    relation masks by ``itertools.product`` in the sampler's order
    (``validate(net).order``), each world weighed by ``theta_product`` and
    the formula evaluated afresh in it, the event's probabilities summed in
    world order."""
    names = validate(net).order
    tuples = [list(itertools.product(range(1, n + 1), repeat=net.signature.arity(name)))
              for name in names]
    worlds, total = [], 0.0
    for masks in itertools.product(*[range(2 ** len(ts)) for ts in tuples]):
        world = Structure.of(net.signature, n, {
            name: [ts[i] for i in range(len(ts)) if mask >> i & 1]
            for name, ts, mask in zip(names, tuples, masks)})
        prob = theta_product(net, world)
        worlds.append((world_key(world), prob))
        if value_set.contains(evaluate(world, phi, assignment)):
            total += prob
    return worlds, total


# one unary symbol: its block of 2^n worlds spans more than one chunk of
# ``network._CHUNK_BITS`` bits from n = 13 on
UNARY_DOC = {"relations": [{"name": "R", "arity": 1, "theta": "0.3"}]}

# every parent is declared before its child, yet the root Q comes last: the
# sampler's plan (P, Q, R) differs from the signature order (P, R, Q)
LATE_ROOT_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.6"},
        {"name": "R", "arity": 1, "parents": ["P"], "theta": "wm(P(x1); 0.8; 0.3)"},
        {"name": "Q", "arity": 1, "parents": [], "theta": "0.35"},
    ]
}

# the children of the roots P and Q are declared A <- Q, then B <- P: the
# plan is P, Q, A, B, but B's last parent comes before A's, so B's theta
# list is evaluated once per mask of P and A's once per masks of P and Q
LAST_PARENT_DOC = {
    "relations": [
        {"name": "P", "arity": 1, "parents": [], "theta": "0.6"},
        {"name": "Q", "arity": 1, "parents": [], "theta": "0.25"},
        {"name": "A", "arity": 1, "parents": ["Q"], "theta": "wm(Q(x1); 0.7; 0.2)"},
        {"name": "B", "arity": 1, "parents": ["P"], "theta": "wm(P(x1); 0.9; 0.4)"},
    ]
}

ENUMERATION_NETWORKS = {"pr": PR_DOC, "pse": PSE_DOC, "pef": PEF_DOC, "remark": REMARK_DOC,
                        "binary": BINARY_DOC, "child-first": CHILD_FIRST_DOC,
                        "late-root": LATE_ROOT_DOC, "empty": {"relations": []},
                        "unary": UNARY_DOC, "last-parent": LAST_PARENT_DOC}

# (network, n, formula, assignment, value set): formulas that read no
# symbol, a strict subset of the symbols and every symbol, with and
# without an assignment; formulas that read the plan's last symbol, whose
# worlds are weighed as one block, and formulas that do not
ENUMERATION_CASES = [
    ("pr", 3, "0.3", "", "0.3"),
    ("pr", 3, "x = y", "x=1,y=2", "0"),
    ("pr", 3, "max[R(x) : x : x = x]", "", "1"),
    ("pr", 3, "R(x) -> P(x)", "x=2", "0:0.5"),
    ("pse", 2, "am[S(y) & E(y, x) : y : y != x]", "x=1", "1"),
    ("pse", 2, "wm(P(x); S(x); 0.4) & (E(x, y) | 0.7)", "x=1,y=2", "0.3:0.6"),
    ("pef", 2, "am[F(x, y) : y : y != x]", "x=1", "0.5:1"),
    ("pef", 2, "max[F(x, y) & !F(y, x) | E(y, x) & P(y) : y : y != x]", "x=2", "1"),
    ("remark", 3, "max[R(x) : x : x = x]", "", "1"),
    ("binary", 2, "E(x, y) & !E(y, x)", "x=1,y=2", "1"),
    ("child-first", 3, "Q(x)", "x=1", "1"),
    ("child-first", 3, "max[R(y) & !Q(y) : y : y != x] | P(x)", "x=3", "0:0.5"),
    ("child-first", 2, "wm(P(x); R(x); 0.3) | Q(y)", "x=1,y=2", "0.3:0.6"),
    ("late-root", 3, "Q(x)", "x=2", "1"),
    ("late-root", 3, "max[R(y) & !Q(y) : y : y != x]", "x=1", "1"),
    ("empty", 2, "0.3", "", "0.3"),
    ("pr", 3, "P(x)", "x=2", "1"),
    ("pse", 2, "S(x) & !P(y)", "x=1,y=2", "1"),
    ("binary", 3, "E(x, y) | E(y, x)", "x=1,y=2", "1"),
    ("unary", 14, "R(x) & !R(y)", "x=2,y=14", "1"),
    # unary queries, whose value is memoised per orbit of the worlds: two
    # read symbols with a pinned element other than 1; a query that skips
    # the binary E; two variables pinned to one element
    ("pr", 4, "am[R(y) & P(y) : y : y != x] | R(x)", "x=2", "0.5:1"),
    ("pse", 2, "am[S(y) & P(y) : y : y != x]", "x=1", "0.5:1"),
    ("pr", 4, "wm(P(z); am[R(y) : y : y != x]; R(x))", "x=3,z=3", "0.5:1"),
    ("last-parent", 2, "max[A(y) & !B(y) : y : y != x] | P(x)", "x=2", "1"),
]

# every case but unary at n = 14, whose 2^14 masks already span several
# chunks of ``network._CHUNK_BITS`` bits at the default size
ONE_CHUNK_CASES = [case for case in ENUMERATION_CASES if case[1] < 13]


def case_ids(cases):
    return ["%s-%s" % (case[0], case[2]) for case in cases]


def parse_assignment(text):
    return {Variable(var): int(value)
            for var, value in (part.split("=") for part in text.split(",") if part)}


class TestEnumerationReuse:
    """Exact enumeration reuses theta lists and query values across worlds;
    every probability of ``exact_distribution``, the sum of its worlds
    where the value lands, and every event probability of the world walk
    must still equal the written-out enumeration, float for float.  On a
    network of unary symbols the count walk sums orbits of the worlds, not
    the worlds, so it agrees within 1e-12."""

    @pytest.mark.parametrize("net_id, n, formula, assign, values", ENUMERATION_CASES,
                             ids=case_ids(ENUMERATION_CASES))
    def test_matches_enumeration_by_definition(self, net_id, n, formula, assign, values):
        net = network_from_doc(ENUMERATION_NETWORKS[net_id])
        phi, value_set = parse_formula(formula), ValueSet.parse(values)
        assignment = parse_assignment(assign)
        worlds, total = exact_by_definition(net, n, phi, assignment, value_set)
        dist = exact_distribution(net, n)
        assert [(world_key(w.structure), w.probability) for w in dist] == worlds
        hits = 0.0
        for w in dist:
            if value_set.contains(evaluate(w.structure, phi, assignment)):
                hits += w.probability
        assert hits == total
        p = exact_event_probability(net, n, phi, assignment, value_set)
        if all(arity == 1 for _, arity in net.signature.symbols):
            assert abs(p - total) <= 1e-12
        else:
            assert p == total

    @pytest.mark.parametrize("net_id, n, formula, assign, values", ONE_CHUNK_CASES,
                             ids=case_ids(ONE_CHUNK_CASES))
    def test_small_chunks_match_enumeration_by_definition(self, net_id, n, formula, assign,
                                                           values, monkeypatch):
        # at 2^2 masks per chunk every step of more than 2 tuples, not only
        # the plan's last, spans several chunks
        monkeypatch.setattr(network, "_CHUNK_BITS", 2)
        self.test_matches_enumeration_by_definition(net_id, n, formula, assign, values)

    def test_theta_lists_follow_their_parents_masks(self, monkeypatch):
        # child-first at n = 3: P's list once, Q's once per mask of P and
        # R's once per masks of P and Q; a step weighed after the block of
        # the plan's last step would read its list at each of the 512 worlds
        calls = {}
        thetas = WorldSampler._thetas

        def counted(sampler, columns, step):
            calls[step.name] = calls.get(step.name, 0) + 1
            return thetas(sampler, columns, step)

        monkeypatch.setattr(WorldSampler, "_thetas", counted)
        exact_distribution(network_from_doc(CHILD_FIRST_DOC), 3)
        assert calls == {"P": 1, "Q": 8, "R": 64}

    def test_theta_lists_follow_their_last_parents_masks(self, monkeypatch):
        # last-parent at n = 3, plan P, Q, A, B: the roots' lists once, B's
        # once per mask of P, A's once per masks of P and Q
        calls = {}
        thetas = WorldSampler._thetas

        def counted(sampler, columns, step):
            calls[step.name] = calls.get(step.name, 0) + 1
            return thetas(sampler, columns, step)

        monkeypatch.setattr(WorldSampler, "_thetas", counted)
        exact_distribution(network_from_doc(LAST_PARENT_DOC), 3)
        assert calls == {"P": 1, "Q": 1, "A": 64, "B": 8}

    @pytest.mark.parametrize("net_id, n, formula, assign, expected", [
        # reads the unary R only: one evaluation per count of R, 0 to 6
        ("pr", 6, "max[R(x) : x : x = x]", "", 7),
        # reads P and R, x pinned: its 4 cells times the C(7 + 3, 3) counts
        # of the 7 other elements over 4 cells
        ("pr", 8, "am[R(y) & P(y) : y : y != x]", "x=1", 4 * math.comb(10, 3)),
        # z is assigned but not read: it pins no element and splits no orbit
        ("pr", 8, "am[R(y) & P(y) : y : y != x]", "x=1,z=2", 4 * math.comb(10, 3)),
        # reads the binary E: one evaluation per combination of the masks of
        # S and E, 2^2 * 2^4
        ("pse", 2, "am[E(y, y) & S(y) : y : y != x]", "x=1", 64),
    ])
    def test_counting_state_is_fetched_once_per_query_evaluation(self, net_id, n, formula, assign,
                                                                 expected, monkeypatch):
        # the query is evaluated at the first orbit of each key of the
        # symbols it reads on a network of unary symbols, else at the first
        # world of each combination of the masks it reads; each evaluation
        # is a miss of the world's value memo and fetches the node's key
        # counts once
        import pla.logic

        fetches, evaluations = [], []
        element_counts, in_value_set = pla.logic._element_counts, network._in_value_set
        monkeypatch.setattr(pla.logic, "_element_counts",
                            lambda *args: fetches.append(1) or element_counts(*args))
        monkeypatch.setattr(network, "_in_value_set",
                            lambda *args: evaluations.append(1) or in_value_set(*args))
        exact_event_probability(network_from_doc(ENUMERATION_NETWORKS[net_id]), n,
                                parse_formula(formula), parse_assignment(assign),
                                ValueSet.parse("0.5:1"))
        assert len(fetches) == len(evaluations) == expected

    def test_world_cap_names_the_exponent(self, pr_net):
        with pytest.raises(TooManyWorlds, match=r"^2\^6 worlds exceed the cap 63$"):
            exact_event_probability(pr_net, 3, Const(1.0), world_cap=63)
        assert len(exact_distribution(pr_net, 3, world_cap=64)) == 64
        for cap in (0, -1):
            with pytest.raises(TooManyWorlds):
                exact_distribution(pr_net, 1, world_cap=cap)

    def test_empty_aggregation_range_still_raises(self, pr_net):
        phi = parse_formula("am[R(y) : y : y != x]")
        with pytest.raises(EmptyAggregationRange):
            exact_event_probability(pr_net, 1, phi, {X: 1})

    def test_query_memo_stays_small(self):
        # the binary E takes the world walk: 2^12 worlds, each its own
        # combination of E and R, one byte per combination is 4 KiB, a
        # dictionary keyed by mask tuples about 400 KiB
        net = network_from_doc({"relations": [
            {"name": "E", "arity": 2, "parents": [], "theta": "0.5"},
            {"name": "R", "arity": 1, "parents": ["E"], "theta": "wm(E(x1, x1); 0.9; 0.2)"}]})
        phi = parse_formula("R(x) -> E(x, y)")
        tracemalloc.start()
        try:
            exact_event_probability(net, 3, phi, {X: 1, Variable("y"): 2}, ValueSet.point(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 18

    def test_large_block_stays_small(self):
        # the 2^16 worlds of the binary E at n = 4 are one block; its
        # probabilities as one list of floats would take 2 MiB
        net = network_from_doc(BINARY_DOC)
        tracemalloc.start()
        try:
            p = exact_event_probability(net, 4, Const(0.3), {}, ValueSet.point(0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p == pytest.approx(1.0, abs=1e-12)
        assert peak < 2 ** 20


def random_unary_case(rng):
    """A random network of 2 or 3 unary symbols in a random DAG, declared
    in a random order, each theta from ``random_agg_free`` over its parents
    and reading one of them (a root's is a constant), a third of the
    non-root ones mixed by ``wm`` with an am or max node over y != x1 whose
    body reads y; a query whose am or max node over y != x has a body that
    reads y and a random subset of the symbols, with x assigned, x and z
    assigned two elements, or x bound by an outer max; a domain size from 2
    to 4, at most 3 for 3 symbols (2^9 worlds); a value set [lo, 1]."""
    def reading(sig, variables, depth, needed):
        while True:
            phi = random_agg_free(rng, sig, variables, depth)
            if needed <= free_vars(phi) and relation_symbols(phi):
                return phi

    x1, x, y, z = Variable("x1"), Variable("x"), Variable("y"), Variable("z")
    names = ["U%d" % i for i in range(rng.choice((2, 3)))]
    relations = []
    for i, name in enumerate(names):
        parents = [p for p in names[:i] if rng.random() < 0.6]
        sig = Signature(tuple((p, 1) for p in parents))
        if not parents:
            theta = format_formula(Const(round(rng.uniform(0.05, 0.95), 3)))
        elif rng.random() < 1 / 3:
            theta = "wm(%s; %s[%s : y : y != x1]; %s)" % (
                format_formula(reading(sig, [x1], 1, set())), rng.choice(("am", "max")),
                format_formula(reading(sig, [x1, y], 1, {y})), round(rng.uniform(0.05, 0.95), 3))
        else:
            theta = format_formula(reading(sig, [x1], 2, set()))
        relations.append({"name": name, "arity": 1, "parents": parents, "theta": theta})
    rng.shuffle(relations)
    read = Signature(tuple((name, 1) for name in rng.sample(names, rng.randint(1, len(names)))))
    n = rng.randint(2, 6 - len(names))
    shape = rng.choice(("x", "x, z", "bound x"))
    last = reading(read, [x, z], 1, {z}) if shape == "x, z" else reading(read, [x], 1, set())
    formula = "wm(%s; %s[%s : y : y != x]; %s)" % (
        format_formula(reading(read, [x], 1, set())), rng.choice(("am", "max")),
        format_formula(reading(read, [x, y], 2, {y})), format_formula(last))
    assignment = {x: rng.randint(1, n)}
    if shape == "x, z":
        assignment[z] = rng.choice([e for e in range(1, n + 1) if e != assignment[x]])
    elif shape == "bound x":
        formula, assignment = "max[%s : x : x = x]" % formula, {}
    value_set = ValueSet(((round(rng.uniform(0.1, 0.9), 2), 1.0),))
    return (network_from_doc({"relations": relations}), n, parse_formula(formula), assignment,
            value_set)


class TestRandomUnaryNetworks:
    """Exact event probabilities on seeded random unary networks, which sum
    the orbits of the worlds, agree with the written-out enumeration within
    1e-12."""

    @pytest.mark.parametrize("seed", range(30))
    def test_matches_enumeration_by_definition(self, seed):
        net, n, phi, assignment, value_set = random_unary_case(random.Random(seed))
        _, total = exact_by_definition(net, n, phi, assignment, value_set)
        assert abs(exact_event_probability(net, n, phi, assignment, value_set) - total) <= 1e-12

    def test_cases_cover_aggregating_thetas_and_two_pinned_elements(self):
        cases = [random_unary_case(random.Random(seed)) for seed in range(30)]
        assert any(not validate(net).aggregation_free for net, *_ in cases)
        assert any(len(assignment) == 2 for *_, assignment, _ in cases)


def chain_net(symbols):
    """A chain S0 -> S1 -> ... of ``symbols`` unary symbols."""
    relations = [{"name": "S0", "arity": 1, "parents": [], "theta": "0.4"}]
    relations += [{"name": "S%d" % i, "arity": 1, "parents": ["S%d" % (i - 1)],
                   "theta": "wm(S%d(x1); 0.7; 0.2)" % (i - 1)} for i in range(1, symbols)]
    return network_from_doc({"relations": relations})


class TestCountWalk:
    """Exact inference on networks of unary symbols walks count vectors,
    not worlds, checked against closed forms at domain sizes far past what
    a walk over the worlds could reach."""

    def test_enumerates_no_world(self, pr_net, monkeypatch):
        def refuse(sampler):
            raise AssertionError("a world was enumerated")

        monkeypatch.setattr(network, "_enumerate", refuse)
        assert not hasattr(network, "_orbit_key")
        phi = parse_formula("am[R(y) & P(y) : y : y != x]")
        assert 0.0 < exact_event_probability(pr_net, 9, phi, {X: 1}, ValueSet.parse("0.5:1")) < 1.0

    def test_sure_event_is_at_most_certain(self, pr_net):
        # the binomial weights' rounding carries the orbits' total past 1
        phi = parse_formula("am[R(y) & P(y) : y : y != x]")
        assert exact_event_probability(pr_net, 9, phi, {X: 1}, ValueSet.full()) == 1.0

    # a wide chain at a small n has about one orbit per world, a short one
    # at a larger n far fewer; either way no world is enumerated
    @pytest.mark.parametrize("n, symbols", [(2, 6), (6, 2)])
    def test_chains_enumerate_no_world(self, n, symbols, monkeypatch):
        net = chain_net(symbols)
        phi = parse_formula("am[S0(y) & S%d(y) : y : y != x]" % (symbols - 1))
        value_set = ValueSet.parse("0.3:1")
        _, total = exact_by_definition(net, n, phi, {X: 1}, value_set)

        def refuse(sampler):
            raise AssertionError("a world was enumerated")

        monkeypatch.setattr(network, "_enumerate", refuse)
        assert abs(exact_event_probability(net, n, phi, {X: 1}, value_set) - total) <= 1e-12

    @pytest.mark.parametrize("doc_id", NETWORK_DOCS)
    def test_walk_follows_the_arities(self, doc_id, monkeypatch):
        # the worlds are walked exactly when some symbol is not unary, even
        # for a formula that reads no symbol at all
        net = network_from_doc(NETWORK_DOCS[doc_id])
        enumerate_worlds, walked = network._enumerate, []
        monkeypatch.setattr(network, "_enumerate",
                            lambda sampler: walked.append(1) or enumerate_worlds(sampler))
        p = exact_event_probability(net, 2, Const(0.3), {}, ValueSet.point(0.3))
        assert bool(walked) is any(arity != 1 for _, arity in net.signature.symbols)
        assert p == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("doc, n, formula, equivalent", [
        (PR_DOC, 3, "max[R(y) : y : y != x]", "max[R(y) & (P(y) | !P(y)) : y : y != x]"),
        (CHAIN_DOC, 4, "max[S(y) : y : y != x]", "max[S(y) & (P(y) | !P(y)) : y : y != x]"),
    ], ids=["pr", "chain"])
    def test_equivalent_queries_give_the_same_float(self, doc, n, formula, equivalent):
        # the walk depends on the network alone, not on the symbols the
        # query reads, so queries that hold at the same worlds sum the same
        # orbits in the same order
        net = network_from_doc(doc)
        p, q = (exact_event_probability(net, n, parse_formula(f), {X: 1}, ValueSet.point(1.0))
                for f in (formula, equivalent))
        assert p == q

    @pytest.mark.parametrize("n", [50, 100, 200])
    def test_remark_closed_form(self, remark_net, n):
        # criterion 1: R holds at each element independently with
        # probability 1/(n - 1), so some element is in R with probability
        # 1 - (1 - 1/(n - 1))^n
        p = exact_event_probability(remark_net, n, parse_formula("max[R(x) : x : x = x]"), {},
                                    ValueSet.point(1.0), world_cap=2 ** n)
        assert abs(p - (1.0 - (1.0 - 1.0 / (n - 1)) ** n)) <= 1e-12

    def test_binomials_past_the_float_range_are_refused(self, remark_net):
        # C(1100, 550) is about 10^329, past the largest float
        with pytest.raises(PlaError, match="cannot weigh 1100 elements in one cell"):
            exact_event_probability(remark_net, 1100, parse_formula("max[R(x) : x : x = x]"), {},
                                    ValueSet.point(1.0), world_cap=2 ** 1100)

    @pytest.mark.parametrize("n", [4, 6, 8, 30])
    def test_pr_binomial_sum(self, pr_net, n):
        # R holds at each of the n - 1 elements other than x independently
        # with probability q = 0.5 * 0.9 + 0.5 * 0.2, so the mean lands in
        # [0.5, 1] when at least half of them are in R
        q = 0.55
        expected = math.fsum(math.comb(n - 1, k) * q ** k * (1 - q) ** (n - 1 - k)
                             for k in range(n) if 2 * k >= n - 1)
        p = exact_event_probability(pr_net, n, parse_formula("am[R(y) : y : y != x]"), {X: 1},
                                    ValueSet.parse("0.5:1"), world_cap=2 ** (2 * n))
        assert abs(p - expected) <= 1e-12


class TestEventProbabilities:
    def test_exact_atom_event(self, pr_net):
        phi = parse_formula("R(x)")
        p = exact_event_probability(pr_net, 1, phi, {X: 1}, ValueSet.point(1.0))
        assert p == pytest.approx(0.55, abs=1e-12)

    def test_full_value_set(self, pr_net):
        phi = parse_formula("R(x)")
        assert exact_event_probability(pr_net, 2, phi, {X: 1}, ValueSet.full()) == pytest.approx(1.0, abs=1e-12)

    def test_sure_event_on_worlds_is_at_most_certain(self):
        # the binary E takes the world walk, whose 2^15 probabilities added
        # in world order come to 1.0000000000000024
        net = network_from_doc(PSE_DOC)
        phi = parse_formula("S(x) | !S(x)")
        assert exact_event_probability(net, 3, phi, {X: 1}, ValueSet.point(1.0)) == 1.0

    def test_constant_formula(self, pr_net):
        assert exact_event_probability(
            pr_net, 1, Const(0.3), {}, ValueSet.point(0.3)
        ) == pytest.approx(1.0, abs=1e-12)

    def test_mc_matches_exact_within_three_cis(self, pr_net):
        phi = parse_formula("P(x) & R(x)")
        for n in (1, 2, 3):
            exact = exact_event_probability(pr_net, n, phi, {X: 1}, ValueSet.point(1.0))
            est, ci = mc_event_probability(
                pr_net, n, phi, {X: 1}, ValueSet.point(1.0), samples=4000, seed=n
            )
            assert abs(est - exact) <= 3 * max(ci, 1e-3)

    def test_mc_full_set_is_certain(self, pr_net):
        est, ci = mc_event_probability(
            pr_net, 2, parse_formula("R(x)"), {X: 1}, ValueSet.full(), samples=50, seed=1
        )
        assert est == 1.0
        assert ci == 0.0

    def test_mc_workers_shard(self, pr_net):
        phi = parse_formula("R(x)")
        est, _ = mc_event_probability(
            pr_net, 2, phi, {X: 1}, ValueSet.point(1.0), samples=2000, seed=5, workers=2
        )
        exact = exact_event_probability(pr_net, 2, phi, {X: 1}, ValueSet.point(1.0))
        assert abs(est - exact) <= 0.05

    def test_remark_max_event(self, remark_net):
        phi = parse_formula("max[R(x) : x : x = x]")
        n = 100
        est, ci = mc_event_probability(
            remark_net, n, phi, {}, ValueSet.point(1.0), samples=3000, seed=3
        )
        target = 1.0 - (1.0 - 1.0 / (n - 1)) ** n
        assert abs(est - target) <= 3 * max(ci, 1e-3)

    @pytest.mark.parametrize("invlen", [False, True], ids=["query-only", "rebinds-invlen"])
    def test_query_registry_leaves_thetas_alone(self, remark_net, invlen):
        # R's theta invlen[...] is 1/4 at n = 5 in the default registry; a
        # query's registry, with or without its own invlen, does not reach it
        mean = AggregationFunction("amz", 1, lambda r: sum(r) / len(r))
        functions = [mean, AggregationFunction("invlen", 1, lambda r: 0.5)] if invlen else [mean]
        registry = Registry(functions)
        phi = parse_formula("amz[R(y) : y : y != x]", registry)
        p = exact_event_probability(remark_net, 5, phi, {X: 1}, ValueSet.point(1.0),
                                    registry=registry)
        assert p == 0.25 ** 4
        value_set = ValueSet.parse("0.5:1")
        got = mc_event_probability(remark_net, 5, phi, {X: 1}, value_set, samples=500, seed=4,
                                   registry=registry)
        want = mc_event_probability(remark_net, 5, parse_formula("am[R(y) : y : y != x]"),
                                    {X: 1}, value_set, samples=500, seed=4)
        assert got == want
        assert 0.0 < got[0] < 1.0


class TestMcEstimates:
    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        sizes = []

        class InlineExecutor:
            """Records the pool size and runs the tasks here, in order."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
        return sizes

    @pytest.mark.parametrize("samples, workers, cpus, sizes", [
        (10, 5000, 64, []),  # one block is drawn in-process, with no pool
        (3000, 1, 64, []),
        (3000, 5000, 64, [3]),  # one process per block
        (3000, 3, 2, [2]),  # no more processes than CPUs
        (3000, 3, None, [1]),  # CPU count unknown
        (5000, 2, 64, [2]),
    ])
    def test_blocks_do_not_depend_on_workers(self, monkeypatch, pool_sizes, pr_net,
                                             samples, workers, cpus, sizes):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        shards = []

        def hits(net, n, hit, blocks):
            shards.append(blocks)
            return sum(size for size, _ in blocks), sum(seed % 7 for _, seed in blocks)

        monkeypatch.setattr(network, "_mc_hits", hits)
        result = network.mc_estimates(pr_net, 2, None, samples, 5, workers)
        assert pool_sizes == sizes
        # blocks of 1024 worlds, block i seeded 5 + 0x9E3779B9 * i, dealt
        # round-robin to the shards
        blocks = [(min(1024, samples - 1024 * i), 5 + 0x9E3779B9 * i)
                  for i in range(-(-samples // 1024))]
        assert shards == [blocks[j::workers] for j in range(min(workers, len(blocks)))]
        assert result[0] == (1.0, 0.0)
        assert result[1][0] == sum(seed % 7 for _, seed in blocks) / samples

    def test_estimates_do_not_depend_on_workers(self, monkeypatch, pool_sizes, pr_net):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        phi = parse_formula("P(x) & R(x)")
        results = [mc_event_probability(pr_net, 2, phi, {X: 1}, ValueSet.point(1.0),
                                        samples=2500, seed=9, workers=workers)
                   for workers in (1, 2, 3)]
        assert pool_sizes == [2, 3]
        assert results[0] == results[1] == results[2]

    def test_first_block_is_one_stream(self, pr_net):
        phi = parse_formula("R(x)")
        sampler = WorldSampler(pr_net, 3)
        rng = random.Random(4)
        hits = sum(evaluate(sampler.sample(rng), phi, {X: 1}) == 1.0 for _ in range(300))
        est, _ = mc_event_probability(pr_net, 3, phi, {X: 1}, ValueSet.point(1.0),
                                      samples=300, seed=4, workers=2)
        assert est == hits / 300

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_are_rejected(self, pr_net, workers):
        with pytest.raises(ValueError, match=r"^workers must be >= 1, got %d$" % workers):
            network.mc_estimates(pr_net, 2, None, 10, 1, workers)


class TestInvarianceProperties:
    def test_isomorphic_worlds_carry_equal_probability(self, pr_net, binary_net):
        rng = random.Random(19)
        for net, n in ((pr_net, 2), (pr_net, 3), (binary_net, 2)):
            dist = exact_distribution(net, n)
            by_key = {world_key(w.structure): w.probability for w in dist}
            for _ in range(100):
                perm = list(range(1, n + 1))
                rng.shuffle(perm)
                mapping = {i + 1: perm[i] for i in range(n)}
                w = rng.choice(dist)
                image = permuted(w.structure, mapping)
                assert abs(by_key[world_key(image)] - w.probability) <= 1e-12

    def test_parametric_invariance(self, binary_net):
        phi = parse_formula("E(x, y)")
        x, y = Variable("x"), Variable("y")
        pairs_same_pattern = [((1, 2), (2, 3)), ((1, 2), (3, 1)), ((1, 1), (2, 2))]
        for (a1, a2), (b1, b2) in pairs_same_pattern:
            pa = exact_event_probability(binary_net, 3, phi, {x: a1, y: a2}, ValueSet.point(1.0))
            pb = exact_event_probability(binary_net, 3, phi, {x: b1, y: b2}, ValueSet.point(1.0))
            assert abs(pa - pb) <= 1e-12

    def test_conditional_probability_matches_theta(self, pr_net):
        # group sampled worlds by the rank-0 stratum and compare the
        # conditional frequency of R(1) with theta evaluated there
        n, worlds = 3, 8000
        sampler = WorldSampler(pr_net, n)
        rng = random.Random(23)
        groups = {}
        for _ in range(worlds):
            world = sampler.sample(rng)
            key = tuple(world.tuples("P"))
            total, hits = groups.get(key, (0, 0))
            groups[key] = (total + 1, hits + world.holds("R", (1,)))
        theta = pr_net.theta["R"]
        for key, (total, hits) in groups.items():
            if total < 200:
                continue
            lower = Structure.of(pr_net.signature, n, {"P": key})
            expected = evaluate(lower, theta, {Variable("x1"): 1})
            assert abs(hits / total - expected) <= 3 * binom_sigma(total, expected) / total

    def test_sampler_matches_enumerator(self, pr_net):
        n, draws = 2, 100_000
        dist = exact_distribution(pr_net, n)
        weights = {world_key(w.structure): w.probability for w in dist}
        counts = dict.fromkeys(weights, 0)
        sampler = WorldSampler(pr_net, n)
        rng = random.Random(29)
        for _ in range(draws):
            counts[world_key(sampler.sample(rng))] += 1
        for key, p in weights.items():
            sigma = binom_sigma(draws, p)
            assert abs(counts[key] - draws * p) <= 3 * max(sigma, 1.0)


class TestValueSet:
    def test_parse_point_and_intervals(self):
        s = ValueSet.parse("0:0.2,0.8:1")
        assert s.contains(0.1) and s.contains(0.9) and not s.contains(0.5)
        assert ValueSet.parse("1").contains(1.0)
        assert not ValueSet.parse("1").contains(0.999)

    def test_str_round_trip(self):
        s = ValueSet.parse("0.25,0.5:0.75")
        assert ValueSet.parse(str(s)) == s

    @pytest.mark.parametrize("text", ["nan", "2", "-0.5:0.5", "0:nan", "0.2,1.5"])
    def test_rejects_endpoints_outside_the_unit_interval(self, text):
        with pytest.raises(PlaError, match=r"not within \[0, 1\]"):
            ValueSet.parse(text)

    def test_rejects_an_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            ValueSet.parse("0.8:0.2")


class TestStructureDocs:
    @pytest.mark.parametrize("doc_id", NETWORK_DOCS)
    def test_round_trip(self, doc_id):
        world = sample(network_from_doc(NETWORK_DOCS[doc_id]), 3, 77)
        doc = structure_to_doc(world)
        for rel in doc["relations"]:
            # byte i of a column is the i-th tuple in itertools.product order
            column, members = world.columns[rel["name"]], set(map(tuple, rel["tuples"]))
            assert type(column) is bytes
            assert column == bytes(t in members for t in itertools.product(range(1, 4),
                                                                          repeat=rel["arity"]))
            assert rel["tuples"] == sorted(rel["tuples"])
        again = structure_from_doc(doc)
        assert again == world
        assert world_key(again) == world_key(world)
        assert again.domain_size == 3
