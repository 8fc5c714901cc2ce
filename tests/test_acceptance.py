"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import random
import time

from pla import (
    EqualityType,
    Signature,
    Variable,
    evaluate,
    fold_to_bpf,
    mu,
    parse_formula,
)
from pla.aggregators import (
    DEFAULT_REGISTRY,
    SupportSpectrum,
    empirical_admissibility_check,
    random_spectrum,
)
from pla.cli import main
from pla.eliminate import alphas, convergence_experiment, eliminate, saturation_diagnostic
from pla.logic import type_reader
from pla.network import exact_distribution, network_from_doc

from conftest import (
    BINARY_DOC,
    CHAIN_DOC,
    PR_DOC,
    REMARK_DOC,
    X,
    Y,
    ZERO_GAMMA_DOC,
    complete_type,
    permuted,
    random_agg_free,
    random_formula,
    random_structure,
    world_key,
)

def report(number: int, description: str, passed: bool, detail: str = ""):
    line = "[acceptance %d] %s: %s" % (number, description, "PASS" if passed else "FAIL")
    if detail:
        line += " (%s)" % detail
    print(line)
    assert passed, line


def test_criterion_1_remark_network_reproduction(tmp_path):
    out = tmp_path / "converge.csv"
    net_file = tmp_path / "remark.json"
    net_file.write_text(json.dumps(REMARK_DOC))
    start = time.monotonic()
    code = main([
        "converge", "--net", str(net_file),
        "--formula", "max[R(x) : x : x = x]",
        "--n-grid", "50,100,200", "--samples", "20000", "--seed", "2024",
        "--value-set", "1", "--out", str(out),
    ])
    elapsed = time.monotonic() - start
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "n,epsilon,p_value_set,ci_value_set"
    estimates = {}
    for line in lines[1:]:
        cells = line.split(",")
        estimates[int(cells[0])] = float(cells[2])
    ok = all(
        abs(estimates[n] - (1.0 - (1.0 - 1.0 / (n - 1)) ** n)) <= 0.02
        for n in (50, 100, 200)
    )
    ok = ok and abs(estimates[200] - 0.6321) <= 0.02 and elapsed < 60.0
    report(
        1,
        "limit value probability on the aggregating counterexample network",
        ok,
        "estimates=%s elapsed=%.1fs" % ({n: round(p, 4) for n, p in estimates.items()}, elapsed),
    )


def test_criterion_2_elimination_vs_oracle():
    net = network_from_doc(PR_DOC)
    phi = parse_formula("am[R(y) : y : distinct]")
    bpf, _ = eliminate(net, phi)
    exact_form = len(bpf.conjuncts) == 1 and bpf.conjuncts[0][1] == 0.55
    table = convergence_experiment(
        net, phi, bpf, n_grid=(20, 200), epsilon=0.1, samples=10000, seed=77
    )
    small, large = table.rows[0], table.rows[-1]
    ok = exact_form and large.p_exceed <= 0.02 and large.p_exceed < small.p_exceed
    report(
        2,
        "compiled mean formula equals 0.55 exactly and the exceedance vanishes",
        ok,
        "exceedance n=20: %.4f, n=200: %.4f" % (small.p_exceed, large.p_exceed),
    )


def test_criterion_3_exact_inference_normalization():
    start = time.monotonic()
    deviations = []
    pr = network_from_doc(PR_DOC)
    for n in (1, 2, 3):
        dist = exact_distribution(pr, n)
        deviations.append(abs(sum(w.probability for w in dist) - 1.0))
    binary = network_from_doc(BINARY_DOC)
    dist = exact_distribution(binary, 2)
    assert len(dist) == 16
    deviations.append(abs(sum(w.probability for w in dist) - 1.0))
    elapsed = time.monotonic() - start
    ok = max(deviations) <= 1e-9 and elapsed < 5.0
    report(
        3,
        "exact world distributions are normalized",
        ok,
        "max deviation %.2e, elapsed %.2fs" % (max(deviations), elapsed),
    )


def test_criterion_4_alpha_rows_sum_to_one():
    y = Variable("y")
    corpus = []
    # a table has a row per sign vector of the parameter slots in the
    # parent closure of its body's slots: the bodies that read x's slots
    # have several rows
    cases = [
        (PR_DOC, [], ["R(y)", "P(y) & R(y)", "0.3"]),
        (PR_DOC, [X], ["R(y)", "P(y) & R(y)", "0.3", "R(y) | P(x)", "R(x) & R(y)"]),
        (CHAIN_DOC, [], ["S(y)", "R(y) | S(y)"]),
        (CHAIN_DOC, [X], ["S(y)", "R(y) | S(y)", "S(y) | S(x)"]),
        (BINARY_DOC, [], ["E(y, y)"]),
        (BINARY_DOC, [X], ["E(x, y)", "E(y, x)", "E(y, y)", "E(x, y) | E(x, x)"]),
    ]
    for doc, xs, body_texts in cases:
        net = network_from_doc(doc)
        sig = net.signature
        for text in body_texts:
            body = type_reader(parse_formula(text), sig)
            eq = EqualityType.all_distinct(list(xs) + [y])
            corpus.append(alphas(net, xs, [y], eq, [body]))
    rows = [row for table in corpus for row in table.rows]
    checked = [row for row in rows if row.gamma > 0.0]
    worst = max(abs(row.sum_alpha() - 1.0) for row in checked)
    # zero-probability rows must be flagged when the compiler meets them
    zg_net = network_from_doc(ZERO_GAMMA_DOC)
    _, zg_report = eliminate(zg_net, parse_formula("am[R(y) | P(x) : y : y != x]"))
    flagged = any("limit probability 0" in w for w in zg_report.warnings)
    ok = worst <= 1e-9 and flagged and len(checked) >= 20
    report(
        4,
        "alpha table rows sum to 1 (zero-probability rows carry warnings)",
        ok,
        "%d rows, worst deviation %.2e" % (len(checked), worst),
    )


def test_criterion_5_fold_oracle_equivalence():
    sig = Signature.of(("P", 1), ("Q", 1), ("E", 2))
    rng = random.Random(505)
    structures = []
    for _ in range(50):
        n = rng.randint(1, 4)
        structures.append((n, random_structure(rng, sig, n)))
    worst = 0.0
    for _ in range(200):
        phi = random_agg_free(rng, sig, [X, Y], 3)
        bpf = fold_to_bpf(phi, sig)
        psi = bpf.to_formula()
        for n, structure in structures:
            a = {X: rng.randint(1, n), Y: rng.randint(1, n)}
            worst = max(worst, abs(evaluate(structure, phi, a) - evaluate(structure, psi, a)))
    ok = worst <= 1e-12
    report(
        5,
        "200 aggregation-free formulas match their folds on 50 structures",
        ok,
        "max difference %.2e" % worst,
    )


def test_criterion_6_pseudometric_examples():
    zero = mu((0.0, 0.5, 1.0), (0.0, 0.0, 0.5, 0.5, 1.0, 1.0), norm=1, ordered=False)
    rng = random.Random(606)
    shortcut = True
    for _ in range(1000):
        n = rng.randint(1, 20)
        r = [rng.random() for _ in range(n)]
        rho = [rng.random() for _ in range(n)]
        direct = max(abs(a - b) for a, b in zip(r, rho))
        if mu(r, rho, norm="inf", ordered=True) != direct:
            shortcut = False
            break
    ok = zero == 0.0 and shortcut
    report(
        6,
        "repetition-invariance of the unordered L1 distance and the "
        "equal-length sup-distance shortcut",
        ok,
        "mu1u=%r" % zero,
    )


def test_criterion_7_admissibility_suite():
    rng = random.Random(707)
    spectra = [random_spectrum(rng) for _ in range(5)]
    gaps = {}
    all_pass = True
    for name in ("am", "gm", "max", "min"):
        result = empirical_admissibility_check(
            DEFAULT_REGISTRY.get(name), spectra,
            lengths=(100, 1000, 10000), trials=20, seed=rng.getrandbits(64),
        )
        gaps[name] = max(result.final_gaps)
        all_pass = all_pass and result.passed
    nor = empirical_admissibility_check(
        DEFAULT_REGISTRY.get("noisy-or"), [SupportSpectrum.of((0.0, 1.0))],
        lengths=(100, 1000, 10000), trials=20, seed=rng.getrandbits(64),
    )
    counterexample_gap = nor.final_gaps[0]
    ok = (
        all_pass
        and not nor.passed
        and abs(counterexample_gap - 0.6321) <= 0.01
    )
    report(
        7,
        "means and order statistics pass, noisy-or fails at the known gap",
        ok,
        "max pass-gap %.4f, noisy-or gap %.4f" % (max(gaps.values()), counterexample_gap),
    )


def test_criterion_8_invariance_properties():
    sig = Signature.of(("P", 1), ("Q", 1), ("E", 2))
    rng = random.Random(808)

    iso_ok = True
    for _ in range(100):
        n = rng.randint(2, 3)
        A = random_structure(rng, sig, n)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(n)}
        phi = random_formula(rng, sig, [X, Y], 3)
        a = {X: rng.randint(1, n), Y: rng.randint(1, n)}
        b = {v: mapping[e] for v, e in a.items()}
        if evaluate(A, phi, a) != evaluate(permuted(A, mapping), phi, b):
            iso_ok = False
            break

    pr = network_from_doc(PR_DOC)
    prob_ok = True
    dists = {n: exact_distribution(pr, n) for n in (2, 3)}
    for _ in range(100):
        n = rng.randint(2, 3)
        dist = dists[n]
        by_key = {world_key(w.structure): w.probability for w in dist}
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        mapping = {i + 1: perm[i] for i in range(n)}
        w = rng.choice(dist)
        if abs(by_key[world_key(permuted(w.structure, mapping))] - w.probability) > 1e-12:
            prob_ok = False
            break

    # parametric invariance over the P/R network: the value distribution of
    # a random formula is the same for parameter tuples with equal patterns
    param_ok = True
    dist3 = dists[3]
    pr_sig = Signature.of(("P", 1), ("R", 1))
    for _ in range(100):
        phi = random_formula(rng, pr_sig, [X, Y], 2)
        pattern, other = rng.choice([((1, 2), (2, 3)), ((1, 2), (3, 1)), ((1, 1), (2, 2))])
        dist_a: dict[float, float] = {}
        dist_b: dict[float, float] = {}
        for w in dist3:
            va = evaluate(w.structure, phi, {X: pattern[0], Y: pattern[1]})
            vb = evaluate(w.structure, phi, {X: other[0], Y: other[1]})
            dist_a[va] = dist_a.get(va, 0.0) + w.probability
            dist_b[vb] = dist_b.get(vb, 0.0) + w.probability
        if set(dist_a) != set(dist_b) or any(
            abs(dist_a[v] - dist_b[v]) > 1e-12 for v in dist_a
        ):
            param_ok = False
            break

    ok = iso_ok and prob_ok and param_ok
    report(
        8,
        "isomorphism, probabilistic and parametric invariance",
        ok,
        "iso=%s prob=%s param=%s" % (iso_ok, prob_ok, param_ok),
    )


def test_criterion_9_saturation_diagnostic():
    net = network_from_doc(PR_DOC)
    sig = net.signature
    y = Variable("y")
    p = complete_type(
        sig, [X, y], [[X], [y]],
        positive=[("P", (X,)), ("R", (X,)), ("P", (y,)), ("R", (y,))],
    )
    q = p.restrict([X])
    result = saturation_diagnostic(net, p, q, delta=0.5, n=100, samples=2000, seed=909)
    ok = result.frequency >= 0.95
    report(
        9,
        "extension counts stay in the saturation band",
        ok,
        "frequency %.4f, band [%.1f, %.1f]" % (result.frequency, result.lower, result.upper),
    )
