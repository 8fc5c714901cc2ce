"""The benchmark's four workloads.

Each workload is one pla command, run through the same public functions, in
the same order, as the matching ``pla.cli`` command (``cmd_converge``,
``cmd_infer``, ``cmd_eliminate``), and yields the same output text.  Its
inputs come from the benchmark seed: the symbol names of the network and
the Monte Carlo seed handed to the program.  Every check compares the
output with a reference derived by hand from the theta parameters below,
never with a value produced by a pla routine.

The workloads use the evaluator four ways, so that a change helping one use
and costing another shows: aggregation nodes over bound tuples
(mc-aggregate), per-tuple theta in the sampler (mc-sample), canonical type
structures in the compiler (compile), and many tiny worlds (exact).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from importlib import import_module

# pla's submodules, looked up at call time so that traced runs see the
# wrapped entry points; ``pla.eliminate`` the attribute is the function
compiler = import_module("pla.eliminate")
logic = import_module("pla.logic")
network = import_module("pla.network")
parser = import_module("pla.parser")

# Binomial tails below this are treated as impossible.  The Monte Carlo
# checks accept a hit count unless it is this unlikely under the exact
# distribution, so a correct program fails one about once in 10^9 checks.
TAIL_FLOOR = 1e-9


@dataclass
class Case:
    """The generated inputs of one iteration."""

    iteration: int
    names: dict[str, str]  # letter of a symbol in the templates -> its name
    seed: int  # Monte Carlo seed handed to the program
    net_path: str

    def fill(self, template: str) -> str:
        return template.format(**self.names)


def _emit(payload) -> str:
    """The CLI's JSON report text."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def binomial_tail(hits: int, trials: int, p: float) -> float:
    """min(P[X <= hits], P[X >= hits]) for X ~ Binomial(trials, p)."""

    def pmf(k):
        log = (math.lgamma(trials + 1) - math.lgamma(k + 1) - math.lgamma(trials - k + 1)
               + k * math.log(p) + (trials - k) * math.log1p(-p))
        return math.exp(log)

    below = math.fsum(pmf(k) for k in range(hits + 1))
    above = math.fsum(pmf(k) for k in range(hits, trials + 1))
    return min(below, above)


class Workload:
    """One pla command with generated inputs, a timed main call and a check.

    ``relations`` are (letter, arity, parent letters, theta template); the
    templates name symbols by ``{letter}``.
    """

    name = ""
    relations: tuple = ()
    items = 1  # work items per main call, for items_per_s

    def case(self, seed: int, iteration: int, net_path: str) -> Case:
        rng = random.Random(seed * 1_000_003 + iteration)
        names = {letter: "%s%d" % (letter, rng.randrange(100, 1000))
                 for letter, *_ in self.relations}
        return Case(iteration, names, rng.randrange(2 ** 31), net_path)

    def write_inputs(self, case: Case) -> None:
        doc = {"relations": [
            {"name": case.names[letter], "arity": arity,
             "parents": [case.names[p] for p in parents], "theta": case.fill(theta)}
            for letter, arity, parents, theta in self.relations
        ]}
        with open(case.net_path, "w") as handle:
            json.dump(doc, handle, indent=1)

    def argvs(self, case: Case) -> list[list[str]]:
        """The ``pla`` command lines whose joined output equals ``main``'s."""
        raise NotImplementedError

    def setup(self, case: Case):
        """Load, parse and validate: everything before the main call."""
        raise NotImplementedError

    def main(self, state) -> tuple[str, object]:
        """The command's work; returns its output text and result objects."""
        raise NotImplementedError

    def check(self, case: Case, result) -> list[str]:
        """Problems found in the result; empty when it is correct."""
        raise NotImplementedError

    def check_run(self, results) -> list[str]:
        """Problems found in the results of all iterations of one run."""
        return []


# theta parameters shared by the P/R network and its hand-derived references
PR_P, PR_R_IF_P, PR_R_ELSE = 0.5, 0.9, 0.2
PR_RELATIONS = (  # the P/R network of tests/conftest.py::PR_DOC
    ("P", 1, (), repr(PR_P)),
    ("R", 1, ("P",), "({P}(x1) -> %r) & (!{P}(x1) -> %r)" % (PR_R_IF_P, PR_R_ELSE)),
)
PR_R = PR_P * PR_R_IF_P + (1 - PR_P) * PR_R_ELSE  # limit frequency of R


class MCAggregate(Workload):
    """``pla converge`` of am[R(y) : y : y != x] on the P/R network.

    The exceedance loop evaluates the aggregation at every x, so each sample
    visits n(n-1) bound tuples while the sampler draws only 2n."""

    name = "mc-aggregate"
    relations = PR_RELATIONS
    formula = "am[{R}(y) : y : y != x]"
    epsilon = 0.2

    def __init__(self, smoke: bool = False):
        self.n, self.samples = (12, 10) if smoke else (100, 2)
        self.items = self.samples
        self.p_exceed = self._exceed_probability()
        self.p_miss = self._miss_probability()

    def argvs(self, case):
        return [["converge", "--net", case.net_path, "--formula", case.fill(self.formula),
                 "--n-grid", str(self.n), "--epsilon", repr(self.epsilon),
                 "--samples", str(self.samples), "--seed", str(case.seed),
                 "--workers", "1"]]

    def setup(self, case):
        net = network.load_network(case.net_path)
        phi = parser.parse_formula(case.fill(self.formula))
        network.validate(net)
        return case, net, phi

    def main(self, state):
        case, net, phi = state
        psi, _ = compiler.eliminate(net, phi)
        table = compiler.convergence_experiment(
            net, phi, psi, n_grid=[self.n], epsilon=self.epsilon,
            samples=self.samples, seed=case.seed, value_set=None, workers=1,
        )
        return table.to_csv(), (psi, table)

    def check(self, case, result):
        psi, table = result
        constants = psi.constants()
        if len(constants) != 1 or abs(constants[0] - PR_R) > 1e-12:
            return ["compiled constants %r, expected (%r,)" % (constants, PR_R)]
        return []

    def check_run(self, results):
        """The exceedance and miss counts, pooled over all samples of the
        run, are plausible under their exact binomial laws.  One iteration's
        few samples could never fail this: even all of them exceeding is
        more likely than TAIL_FLOOR."""
        if not results:
            return []
        rows = [table.rows[0] for _, table in results]
        trials = self.samples * len(rows)
        exceed = sum(round(row.p_exceed * self.samples) for row in rows)
        miss = trials - sum(round(row.near[0][1] * self.samples) for row in rows)
        problems = []
        if binomial_tail(exceed, trials, self.p_exceed) < TAIL_FLOOR:
            problems.append("%d of %d samples exceed epsilon; P[exceed] is %.3g"
                            % (exceed, trials, self.p_exceed))
        if binomial_tail(miss, trials, self.p_miss) < TAIL_FLOOR:
            problems.append("%d of %d samples miss the constant; P[miss] is %.3g"
                            % (miss, trials, self.p_miss))
        return problems

    # R holds independently with probability PR_R at each element, so with K
    # elements in R, an x in R sees the mean (K-1)/(n-1), any other x sees
    # K/(n-1), and element 1 alone sees Binomial(n-1, PR_R)/(n-1).

    def _off(self, mean: float) -> bool:
        return abs(mean - PR_R) > self.epsilon

    def _exceed_probability(self) -> float:
        n = self.n
        total = 0.0
        for k in range(n + 1):
            means = ([(k - 1) / (n - 1)] if k > 0 else []) + ([k / (n - 1)] if k < n else [])
            if any(self._off(m) for m in means):
                total += math.comb(n, k) * PR_R ** k * (1 - PR_R) ** (n - k)
        return total

    def _miss_probability(self) -> float:
        m = self.n - 1
        return math.fsum(math.comb(m, k) * PR_R ** k * (1 - PR_R) ** (m - k)
                         for k in range(m + 1) if self._off(k / m))


GRAPH_P, GRAPH_E_IF, GRAPH_E_ELSE = 0.3, 0.8, 0.1
GRAPH_E = GRAPH_P ** 2 * GRAPH_E_IF + (1 - GRAPH_P ** 2) * GRAPH_E_ELSE  # 0.163


class MCSample(Workload):
    """``pla infer mc`` of E(x, y) at x=1, y=2 on a graph network.

    Every one of the n^2 E tuples re-evaluates a non-root theta, which the
    sampler's root-only cache does not cover; the query has no aggregation."""

    name = "mc-sample"
    relations = (
        ("P", 1, (), repr(GRAPH_P)),
        ("E", 2, ("P",), "wm({P}(x1) & {P}(x2); %r; %r)" % (GRAPH_E_IF, GRAPH_E_ELSE)),
    )
    formula = "{E}(x, y)"

    def __init__(self, smoke: bool = False):
        self.n, self.samples = (8, 30) if smoke else (40, 5)
        self.items = self.samples

    def argvs(self, case):
        return [["infer", "mc", "--net", case.net_path, "--n", str(self.n),
                 "--formula", case.fill(self.formula), "--assign", "x=1,y=2",
                 "--value-set", "1", "--samples", str(self.samples),
                 "--seed", str(case.seed), "--workers", "1"]]

    def setup(self, case):
        net = network.load_network(case.net_path)
        phi = parser.parse_formula(case.fill(self.formula))
        assignment = {logic.Variable("x"): 1, logic.Variable("y"): 2}
        value_set = network.ValueSet.parse("1")
        return case, net, phi, assignment, value_set

    def main(self, state):
        case, net, phi, assignment, value_set = state
        estimate, ci = network.mc_event_probability(
            net, self.n, phi, assignment, value_set,
            samples=self.samples, seed=case.seed, workers=1,
        )
        payload = {"estimate": estimate, "ci95": ci, "n": self.n,
                   "samples": self.samples, "seed": case.seed,
                   "value_set": str(value_set)}
        return _emit(payload), estimate

    def check(self, case, estimate):
        return []  # one iteration's few samples say nothing; see check_run

    def check_run(self, estimates):
        """The pooled estimate lies within two 95% half-widths of P[E]."""
        if not estimates:
            return []
        trials = self.samples * len(estimates)
        pooled = math.fsum(estimates) / len(estimates)
        half_width = 1.96 * math.sqrt(GRAPH_E * (1 - GRAPH_E) / trials)
        if abs(pooled - GRAPH_E) > 2 * half_width:
            return ["pooled estimate %r over %d samples is more than two 95%% "
                    "half-widths (%r) from %r" % (pooled, trials, half_width, GRAPH_E)]
        return []


FORK_P = 0.3
FORK_S_IF, FORK_S_ELSE = 0.7, 0.2
FORK_E_IF, FORK_E_ELSE = 0.8, 0.1


def _fork_references():
    """The compiled constants of the compile workload, each a function of
    whether P holds at the parameter x."""
    s_and_p = FORK_P * FORK_S_IF  # P[S(y) and P(y)]
    s_and_not_p = (1 - FORK_P) * FORK_S_ELSE  # P[S(y) and not P(y)]
    edge = {  # am[E(x, y)]: E(x, y) is likely when P(x) and P(y)
        True: FORK_E_IF * FORK_P + FORK_E_ELSE * (1 - FORK_P),
        False: FORK_E_ELSE,
    }
    back = {  # am[S(y) & E(y, x)]
        True: FORK_E_IF * s_and_p + FORK_E_ELSE * s_and_not_p,
        False: FORK_E_ELSE * (s_and_p + s_and_not_p),
    }
    return edge, back


class Compile(Workload):
    """``pla eliminate`` of two aggregations over the network P -> S, P -> E.

    No sampling: the compiler enumerates the 256 complete types extending
    each aggregation's constraint and evaluates the folded body, a 264-
    conjunct basic probability formula, on each type's canonical structure.
    S lies outside the first formula's parent closure and inside the
    second's."""

    name = "compile"
    relations = (
        ("P", 1, (), repr(FORK_P)),
        ("S", 1, ("P",), "wm({P}(x1); %r; %r)" % (FORK_S_IF, FORK_S_ELSE)),
        ("E", 2, ("P",), "wm({P}(x1) & {P}(x2); %r; %r)" % (FORK_E_IF, FORK_E_ELSE)),
    )
    formulas = ("am[{E}(x, y) : y : y != x]", "am[{S}(y) & {E}(y, x) : y : y != x]")

    def __init__(self, smoke: bool = False):
        self.formulas = self.formulas[:1] if smoke else self.formulas
        self.items = len(self.formulas)

    def argvs(self, case):
        return [["eliminate", "--net", case.net_path, "--formula", case.fill(text)]
                for text in self.formulas]

    def setup(self, case):
        net = network.load_network(case.net_path)
        phis = [parser.parse_formula(case.fill(text)) for text in self.formulas]
        return net, phis

    def main(self, state):
        net, phis = state
        texts, outputs = [], []
        for phi in phis:
            bpf, report = compiler.eliminate(net, phi)
            texts.append(_emit(report.to_dict()))
            outputs.append(bpf)
        return "".join(texts), outputs

    def check(self, case, outputs):
        problems = []
        for text, bpf, reference in zip(self.formulas, outputs, _fork_references()):
            sides = set()
            for atype, value in bpf.conjuncts:
                holds = dict(atype.literals)[(case.names["P"], (0,))]
                sides.add(holds)
                if abs(value - reference[holds]) > 1e-12:
                    problems.append("%s: constant %r where P(x) is %s, expected %r"
                                    % (case.fill(text), value, holds, reference[holds]))
            if sides != {True, False}:
                problems.append("%s: conjuncts cover P(x) = %s only, expected both"
                                % (case.fill(text), sorted(sides)))
        return problems


class Exact(Workload):
    """``pla infer exact`` of max[R(x) : x : x = x] on the P/R network: every
    one of the 4^n worlds is enumerated and weighted."""

    name = "exact"
    relations = PR_RELATIONS
    formula = "max[{R}(x) : x : x = x]"

    def __init__(self, smoke: bool = False):
        self.n = 3 if smoke else 6
        self.items = 4 ** self.n

    def argvs(self, case):
        return [["infer", "exact", "--net", case.net_path, "--n", str(self.n),
                 "--formula", case.fill(self.formula), "--value-set", "1"]]

    def setup(self, case):
        net = network.load_network(case.net_path)
        phi = parser.parse_formula(case.fill(self.formula))
        value_set = network.ValueSet.parse("1")
        return net, phi, value_set

    def main(self, state):
        net, phi, value_set = state
        prob = network.exact_event_probability(
            net, self.n, phi, {}, value_set, world_cap=network.DEFAULT_WORLD_CAP)
        payload = {"probability": prob, "n": self.n, "value_set": str(value_set)}
        return _emit(payload), prob

    def check(self, case, prob):
        expected = 1 - (1 - PR_R) ** self.n  # some element is in R
        if abs(prob - expected) > 1e-12:
            return ["probability %r, expected %r" % (prob, expected)]
        return []


WORKLOADS = {w.name: w for w in (MCAggregate, MCSample, Compile, Exact)}
