"""Aggregation functions, spectra limits, representations, pseudometrics,
convergence-testing generation and the empirical admissibility check."""

import math
import random

import pytest

from pla.aggregators import (
    DEFAULT_REGISTRY,
    AggregationFunction,
    EmptyInput,
    JitterTooLarge,
    NoLimitMethod,
    NumericNonConvergence,
    Registry,
    SupportSpectrum,
    UnknownAggregationFunction,
    apply,
    empirical_admissibility_check,
    exists_at_least,
    gen_convergence_testing,
    largest_remainder_counts,
    limit,
    mu,
    ordered_rep,
    random_spectrum,
    realize_spectrum,
    unordered_rep,
)


def F(name):
    return DEFAULT_REGISTRY.get(name)


class TestApply:
    def test_noisy_or(self):
        assert apply(F("noisy-or"), (0.5, 0.5)) == 0.75

    def test_gm(self):
        assert apply(F("gm"), (0.25, 1.0)) == pytest.approx(0.5, abs=1e-15)

    def test_am(self):
        assert apply(F("am"), (0.0, 1.0)) == 0.5

    def test_invlen(self):
        assert apply(F("invlen"), (0.3, 0.3, 0.3, 0.3)) == 0.25

    def test_max_min(self):
        assert apply(F("max"), (0.2, 0.9, 0.4)) == 0.9
        assert apply(F("min"), (0.2, 0.9, 0.4)) == 0.2

    def test_gm_with_zero(self):
        assert apply(F("gm"), (0.0, 0.9, 0.9)) == 0.0

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            apply(F("am"), ())

    def test_declared_empty_value(self):
        f = AggregationFunction("amz", 1, lambda r: math.fsum(r) / len(r), empty_value=1.0)
        assert apply(f, ()) == 1.0

    def test_unknown_function(self):
        with pytest.raises(UnknownAggregationFunction):
            DEFAULT_REGISTRY.get("no-such-function")

    def test_symmetry_of_builtins(self):
        rng = random.Random(5)
        for name in ("max", "min", "am", "gm", "noisy-or", "invlen"):
            func = F(name)
            for _ in range(50):
                seq = [rng.random() for _ in range(rng.randint(1, 40))]
                perm = seq[:]
                rng.shuffle(perm)
                assert abs(apply(func, seq) - apply(func, perm)) <= 1e-15


class TestLimit:
    def test_am_closed_form(self):
        spectrum = SupportSpectrum.of((0.0, 0.45), (1.0, 0.55))
        assert limit(F("am"), spectrum) == 0.55

    def test_gm_zero_support(self):
        spectrum = SupportSpectrum.of((0.0, 0.45), (1.0, 0.55))
        assert limit(F("gm"), spectrum) == 0.0

    def test_gm_positive_support(self):
        spectrum = SupportSpectrum.of((0.25, 0.5), (1.0, 0.5))
        assert limit(F("gm"), spectrum) == pytest.approx(0.5, abs=1e-12)

    def test_max_min(self):
        spectrum = SupportSpectrum.of((0.2, 0.5), (0.7, 0.5))
        assert limit(F("max"), spectrum) == 0.7
        assert limit(F("min"), spectrum) == 0.2

    def test_invlen_vanishes(self):
        assert limit(F("invlen"), SupportSpectrum.of((0.4, 1.0))) == 0.0

    def test_zero_proportions_dropped(self):
        spectrum = SupportSpectrum.of((0.9, 0.0), (0.2, 1.0))
        assert limit(F("max"), spectrum) == 0.2

    def test_support_merging(self):
        spectrum = SupportSpectrum.of((0.2, 0.5), (0.2 + 1e-12, 0.5))
        assert len(spectrum.merged().points) == 1
        assert limit(F("max"), spectrum) == pytest.approx(0.2, abs=1e-9)

    def test_no_limit_method(self):
        with pytest.raises(NoLimitMethod):
            limit(F("noisy-or"), SupportSpectrum.of((0.0, 1.0)))

    def test_numeric_limit_agrees_with_closed_form(self):
        numeric_am = AggregationFunction(
            "am-numeric", 1, lambda r: math.fsum(r) / len(r), limit_method="numeric"
        )
        spectrum = SupportSpectrum.of((0.1, 0.25), (0.6, 0.75))
        closed = limit(F("am"), spectrum)
        assert limit(numeric_am, spectrum) == pytest.approx(closed, abs=1e-3)

    def test_numeric_non_convergence(self):
        flip = AggregationFunction(
            "flip", 1, lambda r: float(int(math.log2(len(r))) % 2), limit_method="numeric"
        )
        with pytest.raises(NumericNonConvergence):
            limit(flip, SupportSpectrum.of((0.5, 1.0)))

    @pytest.mark.parametrize("value, expected", [(1.0 + 2 ** -52, 1.0), (-1e-13, 0.0),
                                                 (1.1, None), (-0.1, None)])
    def test_limit_clamps_rounding_and_rejects_the_rest(self, value, expected):
        func = AggregationFunction(
            "const", 1, lambda r: 0.5, limit_method="closed_form",
            closed_form=lambda spectra: value,
        )
        spectrum = SupportSpectrum.of((0.5, 1.0))
        if expected is None:
            with pytest.raises(ValueError, match="outside"):
                limit(func, spectrum)
        else:
            assert limit(func, spectrum) == expected

    def test_limit_apply_consistency(self):
        spectrum = SupportSpectrum.of((0.1, 1 / 3), (0.5, 1 / 3), (0.9, 1 / 3))
        for name in ("am", "gm", "max", "min"):
            func = F(name)
            realized = gen_convergence_testing(spectrum, 10 ** 4, 0.0, seed=1)
            assert abs(limit(func, spectrum) - apply(func, realized)) <= 0.01


class TestRepresentations:
    def test_ordered_rep_two_entries(self):
        f = ordered_rep((0.0, 1.0))
        assert f.boundaries == (0.0, 0.5, 1.0)
        assert f.values == (0.0, 1.0)
        assert f.at(0.0) == 0.0 and f.at(0.49) == 0.0
        assert f.at(0.5) == 1.0 and f.at(1.0) == 1.0

    def test_unordered_rep_sorts(self):
        assert unordered_rep((1.0, 0.0)) == unordered_rep((0.0, 1.0))

    def test_repetition_gives_same_function(self):
        assert unordered_rep((0.0, 0.5, 1.0)) == unordered_rep((0.0, 0.0, 0.5, 0.5, 1.0, 1.0))

    def test_empty_sequence(self):
        with pytest.raises(EmptyInput):
            ordered_rep(())


class TestMu:
    def test_l1_unordered_repetition_is_zero(self):
        assert mu((0.0, 0.5, 1.0), (0.0, 0.0, 0.5, 0.5, 1.0, 1.0), norm=1) == 0.0

    def test_linf_ordered_example(self):
        assert mu((0.2, 0.9), (0.3, 0.5), norm="inf", ordered=True) == 0.4

    def test_l1_ordered_swap(self):
        assert mu((0.0, 1.0), (1.0, 0.0), norm=1, ordered=True) == 1.0

    def test_equal_length_linf_shortcut(self):
        rng = random.Random(17)
        for _ in range(200):
            n = rng.randint(1, 12)
            r = [rng.random() for _ in range(n)]
            rho = [rng.random() for _ in range(n)]
            direct = max(abs(a - b) for a, b in zip(r, rho))
            assert mu(r, rho, norm="inf", ordered=True) == direct

    def test_pseudometric_laws(self):
        rng = random.Random(23)
        kinds = [dict(norm=1, ordered=True), dict(norm=1, ordered=False),
                 dict(norm="inf", ordered=True), dict(norm="inf", ordered=False)]
        for _ in range(100):
            seqs = [
                [rng.random() for _ in range(rng.randint(1, 8))] for _ in range(3)
            ]
            r, s, t = seqs
            for kw in kinds:
                assert mu(r, r, **kw) == 0.0
                assert mu(r, s, **kw) == pytest.approx(mu(s, r, **kw), abs=1e-15)
                assert mu(r, t, **kw) <= mu(r, s, **kw) + mu(s, t, **kw) + 1e-12

    def test_tuples_take_slotwise_max(self):
        r = ((0.0, 1.0), (0.5, 0.5))
        rho = ((1.0, 0.0), (0.5, 0.5))
        assert mu(r, rho, norm=1, ordered=True) == 1.0


class TestConvergenceTesting:
    def test_single_point_no_jitter(self):
        assert gen_convergence_testing(SupportSpectrum.of((0.0, 1.0)), 4, 0.0, 1) == [0.0] * 4

    def test_even_split(self):
        seq = gen_convergence_testing(
            SupportSpectrum.of((0.0, 0.5), (1.0, 0.5)), 4, 0.0, 1
        )
        assert sorted(seq) == [0.0, 0.0, 1.0, 1.0]

    def test_proportions_within_one_rounding(self):
        rng = random.Random(31)
        for _ in range(50):
            spectrum = random_spectrum(rng)
            length = rng.randint(10, 400)
            seq = gen_convergence_testing(spectrum, length, 0.0, rng.random())
            assert len(seq) == length
            for c, a in spectrum.merged().points:
                count = sum(1 for v in seq if v == c)
                assert abs(count - a * length) <= 1.0

    def test_jitter_bounds(self):
        spectrum = SupportSpectrum.of((0.2, 0.5), (0.8, 0.5))
        seq = gen_convergence_testing(spectrum, 1000, 0.05, 3)
        assert all(0.15 <= v <= 0.25 or 0.75 <= v <= 0.85 for v in seq)

    def test_jitter_too_large(self):
        spectrum = SupportSpectrum.of((0.4, 0.5), (0.5, 0.5))
        with pytest.raises(JitterTooLarge):
            gen_convergence_testing(spectrum, 10, 0.06, 1)

    def test_largest_remainder(self):
        assert largest_remainder_counts([1 / 3, 1 / 3, 1 / 3], 10) == [4, 3, 3]
        assert sum(largest_remainder_counts([0.21, 0.29, 0.5], 7)) == 7


class TestAdmissibility:
    def test_means_and_order_statistics_pass(self):
        rng = random.Random(99)
        spectra = [random_spectrum(rng) for _ in range(3)]
        for name in ("am", "gm", "max", "min"):
            report = empirical_admissibility_check(
                F(name), spectra, lengths=(100, 1000, 10000), trials=5, seed=7
            )
            assert report.passed, "%s gaps: %s" % (name, report.final_gaps)

    def test_noisy_or_fails_on_counterexample(self):
        report = empirical_admissibility_check(
            F("noisy-or"), [SupportSpectrum.of((0.0, 1.0))],
            lengths=(100, 1000, 10000), trials=5, seed=7,
        )
        assert not report.passed
        expected = 1.0 - (1.0 - 1e-4) ** 10 ** 4
        assert report.final_gaps[0] == pytest.approx(expected, abs=1e-6)
        assert abs(report.final_gaps[0] - 0.6321) <= 0.01

    @pytest.mark.parametrize("lengths", [(), (0,), (100, -5)])
    def test_lengths_below_one_or_none_are_rejected(self, lengths):
        with pytest.raises(ValueError, match=r"lengths must be integers >= 1, got \[%s\]"
                           % ", ".join(map(str, lengths))):
            empirical_admissibility_check(
                F("am"), [SupportSpectrum.of((0.5, 1.0))], lengths=lengths, trials=1, seed=7)


class TestQuantifierAdapters:
    def test_exists_at_least_half(self):
        func = exists_at_least(0.5)
        assert apply(func, (1.0, 1.0, 1.0, 0.0), (1.0, 0.0, 1.0, 0.0)) == 1.0
        assert apply(func, (1.0, 1.0, 1.0, 0.0), (1.0, 0.0, 0.0, 0.0)) == 0.0

    def test_registry_synthesizes_threshold_quantifiers(self):
        registry = Registry()
        func = registry.get("exists_at_least(0.25)")
        assert func.arity == 2
        assert apply(func, (1.0, 1.0, 1.0, 1.0), (1.0, 0.0, 0.0, 0.0)) == 1.0

    def test_cardinality_invariance_spot_check(self):
        # permuting positions leaves the adapter's output unchanged
        rng = random.Random(41)
        func = exists_at_least(0.5)
        for _ in range(100):
            n = rng.randint(1, 8)
            r1 = [float(rng.randint(0, 1)) for _ in range(n)]
            r2 = [float(rng.randint(0, 1)) for _ in range(n)]
            perm = list(range(n))
            rng.shuffle(perm)
            p1 = [r1[i] for i in perm]
            p2 = [r2[i] for i in perm]
            assert apply(func, r1, r2) == apply(func, p1, p2)


class TestSpectrumValidation:
    def test_proportions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            SupportSpectrum.of((0.5, 0.4), (0.6, 0.4))

    def test_realize_exact_proportions(self):
        spectrum = SupportSpectrum.of((0.0, 0.5), (1.0, 0.5))
        assert sorted(realize_spectrum(spectrum, 6)) == [0.0] * 3 + [1.0] * 3
