"""Aggregation functions and the machinery for reasoning about their
asymptotic behaviour: support spectra and limits over them, in closed form
where a function declares one, step-function representations of
sequences, pseudometrics, convergence testing sequence generators, and an
empirical admissibility check.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from .errors import PlaError

MERGE_TOL = 1e-9
LIMIT_CLAMP_TOL = 1e-12


class EmptyInput(PlaError):
    """Aggregation applied to an empty sequence with no declared empty value."""


class UnknownAggregationFunction(PlaError):
    pass


class NoLimitMethod(PlaError):
    """The function declares no way to compute limits over a spectrum."""


class JitterTooLarge(PlaError):
    """Jitter intervals around distinct support values would overlap."""


# ---------------------------------------------------------------------------
# Support spectra
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SupportSpectrum:
    """Finite list of (value, proportion) pairs describing where the entries
    of a long sequence cluster and in what proportions."""

    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        for c, a in self.points:
            if not (0.0 <= c <= 1.0):
                raise ValueError("support value %r outside [0, 1]" % (c,))
            if a < 0.0:
                raise ValueError("proportion %r negative" % (a,))
        total = math.fsum(a for _, a in self.points)
        if abs(total - 1.0) > MERGE_TOL:
            raise ValueError("proportions sum to %r, expected 1" % (total,))

    @classmethod
    def of(cls, *points: tuple[float, float]) -> "SupportSpectrum":
        return cls(tuple(points))

    def merged(self) -> "SupportSpectrum":
        """Merge support values within ``MERGE_TOL`` of each other (summing
        proportions) and drop zero-proportion entries."""
        points: list[list[float]] = []
        for c, a in sorted(self.points):
            if points and abs(points[-1][0] - c) <= MERGE_TOL:
                points[-1][1] += a
            else:
                points.append([c, a])
        return SupportSpectrum(tuple((c, a) for c, a in points if a > 0.0))


def largest_remainder_counts(proportions: Sequence[float], total: int) -> list[int]:
    """Integer counts summing to ``total`` in the given proportions, the
    remainder going to the largest fractional parts (ties by index)."""
    raw = [p * total for p in proportions]
    counts = [int(math.floor(r)) for r in raw]
    leftover = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (counts[i] - raw[i], i))
    for i in order[:leftover]:
        counts[i] += 1
    return counts


def realize_spectrum(spectrum: SupportSpectrum, length: int) -> list[float]:
    """A sequence of the given length with entries exactly at the support
    values, in largest-remainder proportions."""
    merged = spectrum.merged()
    counts = largest_remainder_counts([a for _, a in merged.points], length)
    out: list[float] = []
    for (c, _), k in zip(merged.points, counts):
        out.extend([c] * k)
    return out


def gen_convergence_testing(
    spectrum: SupportSpectrum, length: int, jitter: float, seed
) -> list[float]:
    """A sequence of the given length whose entries lie within ``jitter`` of
    the spectrum's support values, in largest-remainder proportions."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if jitter < 0:
        raise ValueError("jitter must be >= 0")
    merged = spectrum.merged()
    cs = [c for c, _ in merged.points]
    for i, ci in enumerate(cs):
        for cj in cs[i + 1 :]:
            if jitter > 0 and abs(ci - cj) < 2 * jitter:
                raise JitterTooLarge(
                    "jitter %r overlaps support values %r and %r" % (jitter, ci, cj)
                )
    out = realize_spectrum(merged, length)
    if jitter == 0:
        return out
    rng = random.Random(seed)
    return [rng.uniform(max(0.0, c - jitter), min(1.0, c + jitter)) for c in out]


# ---------------------------------------------------------------------------
# Aggregation functions and registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AggregationFunction:
    """A symmetric map from k finite sequences over [0,1] to [0,1]; it has
    a limit over support spectra exactly when it has a ``closed_form``."""

    name: str
    arity: int
    fn: Callable[..., float]
    empty_value: Optional[float] = None
    closed_form: Optional[Callable[[tuple[SupportSpectrum, ...]], float]] = None


def apply(func: AggregationFunction, *seqs: Sequence[float]) -> float:
    """Apply the function, handling empty input per its declaration."""
    if len(seqs) != func.arity:
        raise ValueError(
            "%s takes %d sequences, got %d" % (func.name, func.arity, len(seqs))
        )
    if any(len(s) == 0 for s in seqs):
        if func.empty_value is not None:
            return func.empty_value
        raise EmptyInput("%s applied to an empty sequence" % func.name)
    out = func.fn(*seqs)
    if not (0.0 <= out <= 1.0):
        raise ValueError("%s returned %r, outside [0, 1]" % (func.name, out))
    return out


def _am(r):
    return math.fsum(r) / len(r)


def _gm(r):
    if any(v == 0.0 for v in r):
        return 0.0
    return math.exp(math.fsum(math.log(v) for v in r) / len(r))


def _noisy_or(r):
    prod = 1.0
    for v in sorted(r):  # fixed order keeps the product permutation-invariant
        prod *= 1.0 - v
    return 1.0 - prod


def _invlen(r):
    return 1.0 / len(r)


def _closed_am(spectra):
    return math.fsum(a * c for c, a in spectra[0].points)


def _closed_gm(spectra):
    points = spectra[0].points
    if any(c == 0.0 for c, _ in points):
        return 0.0
    return math.exp(math.fsum(a * math.log(c) for c, a in points))


def _closed_max(spectra):
    return max(c for c, _ in spectra[0].points)


def _closed_min(spectra):
    return min(c for c, _ in spectra[0].points)


BUILTINS = (
    AggregationFunction("max", 1, lambda r: max(r), closed_form=_closed_max),
    AggregationFunction("min", 1, lambda r: min(r), closed_form=_closed_min),
    AggregationFunction("am", 1, _am, closed_form=_closed_am),
    AggregationFunction("gm", 1, _gm, closed_form=_closed_gm),
    AggregationFunction("noisy-or", 1, _noisy_or),
    AggregationFunction("invlen", 1, _invlen, closed_form=lambda spectra: 0.0),
)


def quantifier_adapter(
    name: str,
    arity: int,
    predicate: Callable[..., bool],
    closed_form: Optional[Callable] = None,
) -> AggregationFunction:
    """Turn a generalized-quantifier predicate on (domain size, k index sets)
    into an aggregation function: the output is 1 exactly when the predicate
    accepts the sets of positions whose entries equal 1.

    The predicate must only depend on the cardinality pattern of its sets.
    """

    def fn(*seqs):
        m = max(len(s) for s in seqs)
        sets = [frozenset(j for j, v in enumerate(s) if v == 1.0) for s in seqs]
        return 1.0 if predicate(m, *sets) else 0.0

    return AggregationFunction(name, arity, fn, closed_form=closed_form)


def exists_at_least(threshold: float, name: Optional[str] = None) -> AggregationFunction:
    """Binary threshold quantifier: accepts when at least the given fraction
    of the positions set in the first sequence are also set in the second."""
    if not (0.0 <= threshold <= 1.0):
        raise ValueError("threshold must be in [0, 1]")

    def predicate(m, x1, x2):
        return len(x1 & x2) >= threshold * len(x1)

    return quantifier_adapter(name or "exists_at_least(%s)" % repr(threshold), 2, predicate)


class Registry:
    """Named aggregation functions; threshold quantifiers are synthesized on
    demand from names of the form ``exists_at_least(p)``."""

    def __init__(self, functions: Sequence[AggregationFunction] = ()):
        self._by_name: dict[str, AggregationFunction] = {}
        for f in functions:
            self.register(f)

    def register(self, func: AggregationFunction) -> None:
        if func.name in self._by_name:
            raise ValueError("aggregation function %r already registered" % func.name)
        self._by_name[func.name] = func

    def get(self, name: str) -> AggregationFunction:
        if name in self._by_name:
            return self._by_name[name]
        if name.startswith("exists_at_least(") and name.endswith(")"):
            try:
                threshold = float(name[len("exists_at_least(") : -1])
            except ValueError:
                raise UnknownAggregationFunction("bad threshold in %r" % name) from None
            func = exists_at_least(threshold, name=name)
            self._by_name[name] = func
            return func
        raise UnknownAggregationFunction("unknown aggregation function %r" % name)


DEFAULT_REGISTRY = Registry(BUILTINS)


# ---------------------------------------------------------------------------
# Limits over spectra
# ---------------------------------------------------------------------------


def limit(
    func: AggregationFunction,
    spectra: SupportSpectrum | Sequence[SupportSpectrum],
) -> float:
    """Limit of the function on convergence testing sequences with the given
    support spectra (one per input slot), by its closed form."""
    if isinstance(spectra, SupportSpectrum):
        spectra = (spectra,)
    spectra = tuple(s.merged() for s in spectra)
    if len(spectra) != func.arity:
        raise ValueError(
            "%s takes %d spectra, got %d" % (func.name, func.arity, len(spectra))
        )
    if func.closed_form is None:
        raise NoLimitMethod("%s has no limit method" % func.name)
    out = func.closed_form(spectra)
    # merged proportions may sum to 1 plus an ulp, so a limit may stray
    # just outside [0, 1]; that much is rounding, more is an error
    if not (-LIMIT_CLAMP_TOL <= out <= 1.0 + LIMIT_CLAMP_TOL):
        raise ValueError("%s limit %r outside [0, 1]" % (func.name, out))
    return min(max(out, 0.0), 1.0)


# ---------------------------------------------------------------------------
# Step-function representations and pseudometrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step function on [0, 1] with finitely many pieces;
    the last piece includes the right endpoint.  Adjacent pieces with equal
    values are merged, so structural equality is equality as functions."""

    boundaries: tuple[float, ...]
    values: tuple[float, ...]

    @classmethod
    def from_pieces(cls, boundaries: Sequence[float], values: Sequence[float]) -> "StepFunction":
        merged_b = [boundaries[0]]
        merged_v: list[float] = []
        for b, v in zip(boundaries[1:], values):
            if merged_v and merged_v[-1] == v:
                merged_b[-1] = b
            else:
                merged_v.append(v)
                merged_b.append(b)
        return cls(tuple(merged_b), tuple(merged_v))

    @classmethod
    def from_sequence(cls, r: Sequence[float]) -> "StepFunction":
        n = len(r)
        if n == 0:
            raise EmptyInput("cannot represent an empty sequence")
        return cls.from_pieces([i / n for i in range(n + 1)], list(r))

    def at(self, x: float) -> float:
        if not (0.0 <= x <= 1.0):
            raise ValueError("argument outside [0, 1]")
        for i in range(len(self.values)):
            if x < self.boundaries[i + 1]:
                return self.values[i]
        return self.values[-1]


def ordered_rep(r: Sequence[float]) -> StepFunction:
    """Piece [i/n, (i+1)/n) takes the (i+1)-th entry; the value at 1 is the last."""
    return StepFunction.from_sequence(r)


def unordered_rep(r: Sequence[float]) -> StepFunction:
    return StepFunction.from_sequence(sorted(r))


def _merged_diffs(f: StepFunction, g: StepFunction):
    """Yield (width, |f - g|) over the common refinement of the two grids."""
    cuts = sorted(set(f.boundaries) | set(g.boundaries))
    fi = gi = 0
    for lo, hi in zip(cuts, cuts[1:]):
        while f.boundaries[fi + 1] <= lo:
            fi += 1
        while g.boundaries[gi + 1] <= lo:
            gi += 1
        yield hi - lo, abs(f.values[fi] - g.values[gi])


def _mu_pair(r: Sequence[float], rho: Sequence[float], norm, ordered: bool) -> float:
    rep = ordered_rep if ordered else unordered_rep
    f, g = rep(r), rep(rho)
    if norm == 1:
        return math.fsum(width * diff for width, diff in _merged_diffs(f, g))
    if norm == "inf":
        return max(diff for _, diff in _merged_diffs(f, g))
    raise ValueError("norm must be 1 or 'inf'")


def mu(r, rho, *, norm=1, ordered: bool = False) -> float:
    """Pseudometric between sequences: the L1 or Linf distance of their
    (ordered or unordered) step-function representations.  Given k-tuples of
    sequences, the maximum over the slots."""
    if r and isinstance(r[0], (list, tuple)):
        if len(r) != len(rho):
            raise ValueError("tuples of sequences must have the same number of slots")
        return max(_mu_pair(a, b, norm, ordered) for a, b in zip(r, rho))
    return _mu_pair(r, rho, norm, ordered)


# ---------------------------------------------------------------------------
# Empirical admissibility
# ---------------------------------------------------------------------------

JITTER_SCALE = 1.0  # a convergence testing sequence of length L is jittered by this / L
SPECTRUM_MAX_POINTS = 3  # random_spectrum draws 1 to this many support values,
SPECTRUM_MIN_GAP = 0.05  # at least this far apart


@dataclass
class AdmissibilityRow:
    case: int
    length: int
    max_gap: float


@dataclass
class AdmissibilityReport:
    function: str
    threshold: float
    rows: list[AdmissibilityRow]
    final_gaps: list[float]  # per case, at the largest length
    passed: bool

    def to_dict(self) -> dict:
        return {
            "function": self.function,
            "threshold": self.threshold,
            "jitter_scale": JITTER_SCALE,
            "rows": [
                {"case": r.case, "length": r.length, "max_gap": r.max_gap}
                for r in self.rows
            ],
            "final_gaps": self.final_gaps,
            "passed": self.passed,
        }


def _normalize_cases(func, spectra):
    cases = []
    for case in spectra:
        if isinstance(case, SupportSpectrum):
            case = (case,)
        case = tuple(case)
        if len(case) != func.arity:
            raise ValueError(
                "%s takes %d spectra per case, got %d" % (func.name, func.arity, len(case))
            )
        cases.append(case)
    return cases


def empirical_admissibility_check(
    func: AggregationFunction,
    spectra,
    lengths: Sequence[int],
    trials: int,
    seed,
    threshold: float = 0.02,
) -> AdmissibilityReport:
    """Sample pairs of convergence testing sequences with shared parameters
    and record the largest output gap per length.

    Besides random pairs, every (case, length) also compares the two extreme
    realizations (all entries shifted down vs. up by the jitter), which is
    the worst pair the jitter permits.  This is evidence, not proof: passing
    means the gap at the largest length stayed below the threshold.
    """
    cases = _normalize_cases(func, spectra)
    if not lengths or min(lengths) < 1:
        raise ValueError("lengths must be integers >= 1, got %r" % (list(lengths),))
    rng = random.Random(seed)
    lengths = sorted(lengths)
    rows: list[AdmissibilityRow] = []
    final_gaps: list[float] = []
    for ci, case in enumerate(cases):
        for length in lengths:
            jitter = JITTER_SCALE / length
            low = [
                [max(0.0, v - jitter) for v in realize_spectrum(s, length)] for s in case
            ]
            high = [
                [min(1.0, v + jitter) for v in realize_spectrum(s, length)] for s in case
            ]
            gap = abs(apply(func, *low) - apply(func, *high))
            for _ in range(trials):
                a = [
                    gen_convergence_testing(s, length, jitter, rng.getrandbits(64))
                    for s in case
                ]
                b = [
                    gen_convergence_testing(s, length, jitter, rng.getrandbits(64))
                    for s in case
                ]
                gap = max(gap, abs(apply(func, *a) - apply(func, *b)))
            rows.append(AdmissibilityRow(ci, length, gap))
        final_gaps.append(rows[-1].max_gap)
    return AdmissibilityReport(
        function=func.name,
        threshold=threshold,
        rows=rows,
        final_gaps=final_gaps,
        passed=all(g < threshold for g in final_gaps),
    )


def random_spectrum(rng: random.Random) -> SupportSpectrum:
    """A random spectrum with well-separated support values; handy for
    admissibility sweeps."""
    k = rng.randint(1, SPECTRUM_MAX_POINTS)
    while True:
        cs = sorted(round(rng.uniform(0.0, 1.0), 3) for _ in range(k))
        if all(b - a >= SPECTRUM_MIN_GAP for a, b in zip(cs, cs[1:])):
            break
    weights = [rng.uniform(0.1, 1.0) for _ in range(k)]
    total = sum(weights)
    alphas = [w / total for w in weights]
    alphas[-1] = 1.0 - math.fsum(alphas[:-1])
    return SupportSpectrum(tuple(zip(cs, alphas)))
