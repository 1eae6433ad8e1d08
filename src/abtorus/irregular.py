"""Synthesis and finite-depth verification of orbit-irregular points.

The construction interleaves digit blocks in base a*b: on each level a
block copied from a point whose N_k-horizon orbit averages are close to
the Lebesgue integrals of a fixed test family, then free digits, then a
long all-zero block.  Along the N_k horizons the empirical averages are
near Lebesgue; along the L_k horizons a bump function concentrated at 0
picks up mass bounded away from its integral, so the empirical measures
oscillate.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .moran import MoranStructure
from .torus import DigitWord, TorusPoint, _block_rows, _Counts, _spread, digits_of, orbit_fracs, point_of_word

# Fixed denominator for Monte Carlo sample points: a prime small enough for
# the vectorized int64 orbit path.
SAMPLE_DEN = 2_147_483_647
_MAX_TRIES = 2000  # donor draws per level before synthesize_point gives up
_SAMPLES, _GROWTH, _MAX_EXPANSIONS = 150, 1.3, 12  # schedule: samples per try, N growth, tries per level
_ETA = 0.01  # floor of every test function, so each is bounded in (0, 1]


@dataclass(frozen=True)
class TrigTestFunction:
    """eta + (1 - eta) * (1 + trig(2 pi j x)) / 2, bounded in (0, 1]."""

    freq: int
    kind: str  # "cos" | "sin"
    eta: float

    def __call__(self, x):
        trig = np.cos if self.kind == "cos" else np.sin
        return self.eta + (1.0 - self.eta) * (1.0 + trig(2.0 * np.pi * self.freq * np.asarray(x))) / 2.0

    @property
    def integral(self) -> float:
        return self.eta + (1.0 - self.eta) / 2.0

    @property
    def lipschitz(self) -> float:
        """|f(x) - f(y)| <= lipschitz * |x - y| on the circle."""
        return (1.0 - self.eta) * math.pi * self.freq


def build_test_family(count: int) -> tuple[TrigTestFunction, ...]:
    """Odd members are cosines, even members sines, with frequency ceil(i/2) and floor _ETA."""
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(
        TrigTestFunction(freq=(i + 2) // 2, kind="cos" if i % 2 == 0 else "sin", eta=_ETA)
        for i in range(count)
    )


@dataclass(frozen=True)
class BumpFunction:
    """Piecewise-linear tent: 1 on [0, s], down to 0 on [s, 2s], s = (ab)^-l."""

    base: int
    l: int

    @property
    def integral(self) -> Fraction:
        return Fraction(3, 2) / self.base**self.l

    def __call__(self, x):
        s = float(self.base) ** -self.l
        return np.clip((2.0 * s - np.asarray(x)) / s, 0.0, 1.0)


def bump_function(a: int, b: int, r: Fraction) -> BumpFunction:
    """Smallest l with 3 (ab)^-l < (1-r)^2, so the exact integral stays below (1-r)^2 / 2."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    ab = a * b
    l = 1
    while 3 * Fraction(1, ab**l) >= (1 - r) ** 2:
        l += 1
    return BumpFunction(base=ab, l=l)


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    half_width: float  # 95% normal-approximation confidence half-width
    samples: int


@dataclass(frozen=True)
class Schedule:
    a: int
    b: int
    r: Fraction
    l: tuple[int, ...]  # moduli-of-continuity depths l_k
    N: tuple[int, ...]
    L: tuple[int, ...]

    @property
    def depth(self) -> int:
        return len(self.N)

    def floor_rL(self, k: int) -> int:
        L = self.L[k - 1]
        return self.r.numerator * L // self.r.denominator


@dataclass
class IrregularRecipe:
    schedule: Schedule
    seed: int
    donors: list[str]  # one sampled point per level
    donor_tries: list[int]


class ScheduleError(RuntimeError):
    """Raised when the empirical measure condition cannot be met within the search bound."""

    def __init__(self, msg: str, best_N: int, estimate: MeasureEstimate):
        super().__init__(msg)
        self.best_N = best_N
        self.estimate = estimate


def _family_averages(fracs: np.ndarray, family: tuple[TrigTestFunction, ...], k: int) -> list[float]:
    return [float(f(fracs).mean()) for f in family[:k]]


# Histogram bins of the membership test: a power of two, so fracs * _BINS
# and its floor are exact.
_BINS = 4096
_CENTERS = (np.arange(_BINS) + 0.5) / _BINS


def _bin_weights(fracs: np.ndarray) -> np.ndarray:
    """Share of the cells in each bin [j, j+1) / _BINS; a cell equal to 1.0 joins the last.

    Rows are counted in the kernel's blocks of `_spread`, so no N x N
    temporary is made.
    """
    counts = _Counts(_BINS + 1)
    _spread(lambda s, e: counts.add(fracs[s:e] * _BINS), len(fracs), _block_rows(fracs.shape[1]))
    total = counts.total
    total[_BINS - 1] += total[_BINS]
    return total[:_BINS] / fracs.size


def membership_X(
    x: TorusPoint, k: int, N: int, family: tuple[TrigTestFunction, ...], a: int, b: int
) -> bool:
    """True iff every i <= k orbit average is within 1/(3k) of the Lebesgue integral.

    The N x N orbit cells are counted into 4096 bins of [0, 1) (a cell that
    rounds to 1.0 joins the last bin) and each average is estimated as the
    bin weights times f at the bin centers.  A cell lies within 1/8192 of
    its center on the circle, so the estimate is within f.lipschitz / 8192
    of the average, plus float error far below 1e-9.  A test whose estimate
    clears 1/(3k) by that slack is decided from it; if none fails and one
    is undecided, every test is recomputed from `_family_averages`.  The
    answer is the reference decision on the averages, every call.
    """
    if k < 1 or k > len(family):
        raise ValueError("k out of range for the family")
    fracs = orbit_fracs(x, a, b, N)
    tol = 1.0 / (3.0 * k)
    w = _bin_weights(fracs)
    undecided = False
    for f in family[:k]:
        margin = tol - abs(float(w @ f(_CENTERS)) - f.integral)
        slack = f.lipschitz / (2 * _BINS) + 1e-9
        if margin < -slack:
            return False
        undecided |= margin <= slack
    if not undecided:
        return True
    return all(
        abs(avg - f.integral) < tol
        for avg, f in zip(_family_averages(fracs, family, k), family)
    )


def estimate_X_measure(
    k: int,
    N: int,
    family: tuple[TrigTestFunction, ...],
    a: int,
    b: int,
    seed: int,
) -> MeasureEstimate:
    """Monte Carlo estimate of the measure of the good set at horizon N, from _SAMPLES points."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(_SAMPLES):
        x = TorusPoint(rng.randrange(1, SAMPLE_DEN), SAMPLE_DEN)
        if membership_X(x, k, N, family, a, b):
            hits += 1
    p = hits / _SAMPLES
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / _SAMPLES) / _SAMPLES)
    return MeasureEstimate(value=p, half_width=half, samples=_SAMPLES)


def modulus_l(k: int, family: tuple[TrigTestFunction, ...], a: int, b: int) -> int:
    """Smallest l with lip_max * (ab)^-l < 1/(3k) over the first k family members."""
    if k < 1 or k > len(family):
        raise ValueError("k out of range for the family")
    lip = max(f.lipschitz for f in family[:k])
    ab = a * b
    l = 1
    while lip * ab**-l >= 1.0 / (3.0 * k):
        l += 1
    return l


def choose_schedule(
    a: int,
    b: int,
    r: Fraction,
    depth: int,
    family: tuple[TrigTestFunction, ...],
    seed: int = 0,
) -> Schedule:
    """Pick minimal-ish horizons satisfying the construction's inequalities.

    Per level k, with c = L_{k-1} + l_k, the integer conditions are

        N_k > c,
        6k (2 N_k c - c^2) < N_k^2,
        k * sum_{i<k} (N_i + L_i) < N_k,

    plus the Monte Carlo requirement that the good-set measure estimate
    exceeds r at 95% confidence; then L_k is minimal with
    floor(r L_k) > N_k and k * (sum_{i<k}(N_i + L_i) + N_k) < L_k.
    """
    r = Fraction(r)
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if depth > len(family):
        raise ValueError("family too small for the requested depth")
    ls: list[int] = []
    Ns: list[int] = []
    Ls: list[int] = []
    prev_sum = 0  # sum_{i<k} (N_i + L_i)
    L_prev = 0
    for k in range(1, depth + 1):
        l_k = modulus_l(k, family, a, b)
        c = L_prev + l_k
        N = max(c + 1, k * prev_sum + 1)
        while 6 * k * (2 * N * c - c * c) >= N * N:
            N += 1
        best: MeasureEstimate | None = None
        best_N = N
        for attempt in range(_MAX_EXPANSIONS):
            est = estimate_X_measure(k, N, family, a, b, seed + 7919 * k + attempt)
            if best is None or est.value > best.value:
                best, best_N = est, N
            if est.value - est.half_width > r:
                break
            N = int(math.ceil(N * _GROWTH))
        else:
            raise ScheduleError(
                f"good-set measure condition not met at level {k}", best_N, best
            )
        L = max(k * (prev_sum + N) + 1, N + 1)
        while r.numerator * L // r.denominator <= N:
            L += 1
        ls.append(l_k)
        Ns.append(N)
        Ls.append(L)
        prev_sum += N + L
        L_prev = L
    return Schedule(a=a, b=b, r=r, l=tuple(ls), N=tuple(Ns), L=tuple(Ls))


def synthesize_point(
    schedule: Schedule,
    family: tuple[TrigTestFunction, ...],
    seed: int = 0,
) -> tuple[DigitWord, IrregularRecipe]:
    """Build a digit word of length L_depth following the level-block recipe.

    Level k copies digit positions [L_{k-1}, N_k) from a sampled point
    passing the level's orbit-average test, fills [N_k, floor(r L_k))
    with seeded pseudorandom digits and zeros out the rest of the level.
    Deterministic given the seed.
    """
    a, b = schedule.a, schedule.b
    ab = a * b
    rng = random.Random(seed)
    digits = [0] * schedule.L[-1]
    donors: list[str] = []
    tries_per_level: list[int] = []
    L_prev = 0
    for k in range(1, schedule.depth + 1):
        N_k = schedule.N[k - 1]
        L_k = schedule.L[k - 1]
        rL = schedule.floor_rL(k)
        for tries in range(1, _MAX_TRIES + 1):
            donor = TorusPoint(rng.randrange(1, SAMPLE_DEN), SAMPLE_DEN)
            if membership_X(donor, k, N_k, family, a, b):
                break
        else:
            raise RuntimeError(f"sampling budget exhausted at level {k}")
        donors.append(str(donor))
        tries_per_level.append(tries)
        donor_digits = digits_of(donor, ab, N_k).digits
        digits[L_prev:N_k] = donor_digits[L_prev:N_k]
        for i in range(N_k, rL):
            digits[i] = rng.randrange(ab)
        # positions [rL, L_k) stay zero
        L_prev = L_k
    word = DigitWord(ab, tuple(digits))
    recipe = IrregularRecipe(
        schedule=schedule,
        seed=seed,
        donors=donors,
        donor_tries=tries_per_level,
    )
    return word, recipe


@dataclass
class LevelCheck:
    level: int
    averages: list[float]  # orbit averages of the first k test functions at horizon N_k
    deviations: list[float]
    deviation_threshold: float  # 1/k
    deviation_margins: list[float]  # threshold minus deviation
    bump_average: float  # at horizon L_k
    bump_threshold: float  # (1-r)^2 / 2
    bump_margin: float  # average minus threshold
    passed: bool


@dataclass
class IrregularReport:
    """A verification verdict, one LevelCheck per level."""

    passed: bool
    bump_l: int
    levels: list[LevelCheck]


def verify_irregular(
    word: DigitWord, recipe: IrregularRecipe, family: tuple[TrigTestFunction, ...]
) -> IrregularReport:
    """Check the two oscillation inequalities on the synthesized word.

    (A) per level k and i <= k, the N_k-horizon orbit average of the
        i-th test function is within 1/k of its integral;
    (B) per level, the L_k-horizon average of the bump function exceeds
        (1-r)^2 / 2.
    Failures are report entries, not exceptions.
    """
    sched = recipe.schedule
    if len(word) < sched.L[-1]:
        raise ValueError("word shorter than the schedule's final level")
    x = point_of_word(word)
    bump = bump_function(sched.a, sched.b, sched.r)
    bump_threshold = float((1 - Fraction(sched.r)) ** 2 / 2)
    Lmax = sched.L[-1]
    fracs = orbit_fracs(x, sched.a, sched.b, Lmax)
    levels = []
    for k in range(1, sched.depth + 1):
        N_k = sched.N[k - 1]
        L_k = sched.L[k - 1]
        sub = fracs[:N_k, :N_k]
        averages = _family_averages(sub, family, k)
        deviations = [
            abs(avg - f.integral) for avg, f in zip(averages, family)
        ]
        bump_avg = float(bump(fracs[:L_k, :L_k]).mean())
        ok = all(d < 1.0 / k for d in deviations) and bump_avg > bump_threshold
        levels.append(
            LevelCheck(
                level=k,
                averages=averages,
                deviations=deviations,
                deviation_threshold=1.0 / k,
                deviation_margins=[1.0 / k - d for d in deviations],
                bump_average=bump_avg,
                bump_threshold=bump_threshold,
                bump_margin=bump_avg - bump_threshold,
                passed=ok,
            )
        )
    return IrregularReport(
        passed=all(lc.passed for lc in levels), bump_l=bump.l, levels=levels
    )


def induced_moran_structure(schedule: Schedule) -> MoranStructure:
    """The explicit block structure the digit constraints induce.

    Per level: one branch-count term for the copied block (the certified
    lower bound floor(r * (ab)^(N_k - L_{k-1})) stands in for the exact
    cylinder count), one (ab, 1/ab) term per free digit, and a single
    child for the zero block.  Its `moran_dims` (running minima after the
    burn-in) stand in at finite depth for the liminf of the full construction.
    """
    a, b, r = schedule.a, schedule.b, Fraction(schedule.r)
    ab = a * b
    counts: list[int] = []
    ratios: list[Fraction] = []
    L_prev = 0
    for k in range(1, schedule.depth + 1):
        N_k = schedule.N[k - 1]
        L_k = schedule.L[k - 1]
        rL = schedule.floor_rL(k)
        span = N_k - L_prev
        counts.append(max(1, r.numerator * ab**span // r.denominator))
        ratios.append(Fraction(1, ab**span))
        for _ in range(rL - N_k):
            counts.append(ab)
            ratios.append(Fraction(1, ab))
        counts.append(1)
        ratios.append(Fraction(1, ab ** (L_k - rL)))
        L_prev = L_k
    return MoranStructure(counts=tuple(counts), ratios=tuple(ratios))
