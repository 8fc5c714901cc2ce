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
    parse_formula,
    validate,
)
from pla import network
from pla.errors import PlaError
from pla.logic import EmptyAggregationRange, equality_pattern
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
    reference_sample,
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
                    for args in step.tuples]

    def test_ternary_pattern_codes_are_five(self):
        # the 27 tuples over [3] show all 5 equality patterns of 3 positions
        sampler = WorldSampler(network_from_doc(TERNARY_DOC), 3)
        (step,) = [step for step in sampler._plan if step.name == "T"]
        assert len(set(step.keys)) == 5
        assert len(set(zip(step.keys, map(equality_pattern, step.tuples)))) == 5


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

ENUMERATION_NETWORKS = {"pr": PR_DOC, "pse": PSE_DOC, "pef": PEF_DOC, "remark": REMARK_DOC,
                        "binary": BINARY_DOC, "child-first": CHILD_FIRST_DOC,
                        "late-root": LATE_ROOT_DOC, "empty": {"relations": []},
                        "unary": UNARY_DOC}

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
]


def parse_assignment(text):
    return {Variable(var): int(value)
            for var, value in (part.split("=") for part in text.split(",") if part)}


class TestEnumerationReuse:
    """Exact enumeration reuses theta lists and query values across worlds;
    every probability must still equal the written-out enumeration, float
    for float."""

    @pytest.mark.parametrize("net_id, n, formula, assign, values", ENUMERATION_CASES,
                             ids=["%s-%s" % (case[0], case[2]) for case in ENUMERATION_CASES])
    def test_matches_enumeration_by_definition(self, net_id, n, formula, assign, values):
        net = network_from_doc(ENUMERATION_NETWORKS[net_id])
        phi, value_set = parse_formula(formula), ValueSet.parse(values)
        assignment = parse_assignment(assign)
        worlds, total = exact_by_definition(net, n, phi, assignment, value_set)
        assert [(world_key(w.structure), w.probability)
                for w in exact_distribution(net, n)] == worlds
        assert exact_event_probability(net, n, phi, assignment, value_set) == total

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
        exact_event_probability(network_from_doc(CHILD_FIRST_DOC), 3,
                                parse_formula("max[R(y) & !Q(y) : y : y != x]"), {X: 1},
                                ValueSet.point(1.0))
        assert calls == {"P": 1, "Q": 8, "R": 64}

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

    def test_query_memo_stays_small(self, pr_net):
        # 2^14 worlds, each its own combination of P and R: one byte per
        # combination is 16 KiB, a dictionary keyed by mask tuples over 1.5 MiB
        phi = parse_formula("R(x) -> P(x)")
        tracemalloc.start()
        try:
            exact_event_probability(pr_net, 7, phi, {X: 1}, ValueSet.point(1.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20

    def test_large_block_stays_small(self):
        # the 2^16 worlds of one symbol are one block; its probabilities as
        # one list of floats would take 2 MiB
        net = network_from_doc(UNARY_DOC)
        tracemalloc.start()
        try:
            p = exact_event_probability(net, 16, Const(0.3), {}, ValueSet.point(0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert p == pytest.approx(1.0, abs=1e-12)
        assert peak < 2 ** 20


class TestEventProbabilities:
    def test_exact_atom_event(self, pr_net):
        phi = parse_formula("R(x)")
        p = exact_event_probability(pr_net, 1, phi, {X: 1}, ValueSet.point(1.0))
        assert p == pytest.approx(0.55, abs=1e-12)

    def test_full_value_set(self, pr_net):
        phi = parse_formula("R(x)")
        assert exact_event_probability(pr_net, 2, phi, {X: 1}, ValueSet.full()) == pytest.approx(1.0, abs=1e-12)

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

        def hits(net, n, hit, registry, blocks):
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
