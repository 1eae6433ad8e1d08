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

from .measures import _character_sums, _grid_sums
from .moran import MoranStructure
from .torus import MAX_SIDE, DigitWord, TorusPoint, _corner_totals, digits_of, orbit_fracs, point_of_word

# Fixed denominator for Monte Carlo sample points: a prime small enough for
# the vectorized int64 orbit path.  Known limit: 2^31 = 1 mod 2^31 - 1, so for
# a = 2 every sample point has x2 period 31, and the sample is not
# Lebesgue-random; an exact bound on the good set's measure is to replace it.
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

    def average(self, S) -> float:
        """eta + (1 - eta)(1 + Re or Im S_j) / 2 for S[j - 1] = S_j the cells' mean of e(j f): the orbit average."""
        s = S[self.freq - 1]
        return float(self.eta + (1.0 - self.eta) * (1.0 + (s.real if self.kind == "cos" else s.imag)) / 2.0)

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
        y = np.asarray(2.0 * s - np.asarray(x))  # the one temporary, a 0-d array for a scalar x
        y /= s
        return np.clip(y, 0.0, 1.0, out=y)[()]  # [()] reads a 0-d array as its scalar


def bump_function(a: int, b: int, r: Fraction) -> BumpFunction:
    """Smallest l with 3 (ab)^-l < (1-r)^2, so the exact integral stays below (1-r)^2 / 2."""
    r = Fraction(r)
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    if min(a, b) < 2:  # a b = 1 would never stop the search below
        raise ValueError("a, b must be >= 2")
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


def _grid_rows(x: TorusPoint, a: int, b: int, N: int, margin: int = 0):
    """rows(s, e): slices of one whole `orbit_fracs` grid of side N + margin, the one grid a membership or verify call makes."""
    fracs = orbit_fracs(x, a, b, N + margin)
    return lambda s, e: fracs[s:e]


def membership_X(x: TorusPoint, k: int, N: int, a: int, b: int) -> bool:
    """True iff the orbit average of each member of build_test_family(k) is within 1/(3k) of its integral.

    Each average is `TrigTestFunction.average` of the N x N grid's mean
    character sums S_j, the sums of `measures._character_sums`, made from
    the turn tables of `_phases`.  They differ from the exact means of
    cos and sin by float error alone, so the decision is the exact one
    unless an average sits that close to the threshold.  After the bounds
    of `_character_sums`, the sums read one whole `orbit_fracs` grid
    through `_grid_rows`, so each call makes one grid.
    """
    members = build_test_family(k)
    S = _character_sums(x, a, b, [N], members[-1].freq, source=_grid_rows)[:, 0] / N**2
    return all(abs(f.average(S) - f.integral) < 1.0 / (3.0 * k) for f in members)


def estimate_X_measure(k: int, N: int, a: int, b: int, seed: int) -> MeasureEstimate:
    """Monte Carlo estimate of the measure of the good set at horizon N, from _SAMPLES points."""
    rng = random.Random(seed)
    hits = 0
    for _ in range(_SAMPLES):
        x = TorusPoint(rng.randrange(1, SAMPLE_DEN), SAMPLE_DEN)
        if membership_X(x, k, N, a, b):
            hits += 1
    p = hits / _SAMPLES
    half = 1.96 * math.sqrt(max(p * (1.0 - p), 1.0 / _SAMPLES) / _SAMPLES)
    return MeasureEstimate(value=p, half_width=half, samples=_SAMPLES)


def modulus_l(k: int, a: int, b: int) -> int:
    """Smallest l with lip * (ab)^-l < 1/(3k), lip the largest Lipschitz constant of `build_test_family(k)`."""
    if min(a, b) < 2:  # a b = 1 would never stop the search below
        raise ValueError("a, b must be >= 2")
    lip = build_test_family(k)[-1].lipschitz
    ab = a * b
    l = 1
    while lip * ab**-l >= 1.0 / (3.0 * k):
        l += 1
    return l


def choose_schedule(a: int, b: int, r: Fraction, depth: int, seed: int = 0) -> Schedule:
    """Pick minimal-ish horizons satisfying the construction's inequalities.

    Per level k, with c = L_{k-1} + l_k, the integer conditions are

        N_k > c,
        6k (2 N_k c - c^2) < N_k^2,
        k * sum_{i<k} (N_i + L_i) < N_k,

    plus the Monte Carlo requirement that the estimated measure of the
    level-k good set of `membership_X` exceeds r at 95% confidence; then
    L_k is minimal with floor(r L_k) > N_k and
    k * (sum_{i<k}(N_i + L_i) + N_k) < L_k.  Each N_k tried, and its L_k,
    must be grid sides of at most MAX_SIDE: a larger one is rejected
    before its Monte Carlo estimate, and first in the least chain of
    `_least_chain`, before any estimate.
    """
    r = Fraction(r)
    ls = _least_chain(a, b, r, depth)
    Ns: list[int] = []
    Ls: list[int] = []
    prev_sum = 0  # sum_{i<k} (N_i + L_i)
    L_prev = 0
    for k, l_k in enumerate(ls, start=1):
        N = _least_N(k, L_prev + l_k, prev_sum)
        best: MeasureEstimate | None = None
        best_N = N
        for attempt in range(_MAX_EXPANSIONS):
            L = _least_L(k, prev_sum, N, r)
            _check_sides(r, depth, k, N, L)
            est = estimate_X_measure(k, N, a, b, seed + 7919 * k + attempt)
            if best is None or est.value > best.value:
                best, best_N = est, N
            if est.value - est.half_width > r:
                break
            N = int(math.ceil(N * _GROWTH))
        else:
            raise ScheduleError(
                f"good-set measure condition not met at level {k}", best_N, best
            )
        Ns.append(N)
        Ls.append(L)
        prev_sum += N + L
        L_prev = L
    return Schedule(a=a, b=b, r=r, l=tuple(ls), N=tuple(Ns), L=tuple(Ls))


def _least_chain(a: int, b: int, r: Fraction, depth: int) -> list[int]:
    """l_1 .. l_depth, after checking the sides of the least chain against MAX_SIDE.

    The least chain takes each N_k from `_least_N` and L_k from `_least_L`,
    with no Monte Carlo growth; the search only raises N_k, so every
    schedule's sides are at least these.  Level k's l_k comes from
    `modulus_l`, which builds the first k test functions; the sides pass
    MAX_SIDE within a few levels, so a huge depth is rejected before any
    member past the rejected level is built.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if not 0 < r < 1:
        raise ValueError("r must be in (0, 1)")
    ls: list[int] = []
    prev_sum = L = 0
    for k in range(1, depth + 1):
        ls.append(modulus_l(k, a, b))
        N = _least_N(k, L + ls[-1], prev_sum)
        L = _least_L(k, prev_sum, N, r)
        _check_sides(r, depth, k, N, L)
        prev_sum += N + L
    return ls


def _check_sides(r: Fraction, depth: int, k: int, N: int, L: int) -> None:
    for name, side in (("N", N), ("L", L)):
        if side > MAX_SIDE:
            raise ValueError(f"-r {r} --depth {depth} needs {name}_{k} = {side} at level {k}, above the grid side limit {MAX_SIDE}")


def _least_N(k: int, c: int, prev_sum: int) -> int:
    """Least N > c, > k prev_sum with 6k (2Nc - c^2) < N^2: past the larger root 6kc + sqrt(36k^2c^2 - 6kc^2)."""
    return max(c + 1, k * prev_sum + 1, 6 * k * c + math.isqrt(36 * k * k * c * c - 6 * k * c * c) + 1)


def _least_L(k: int, prev_sum: int, N: int, r: Fraction) -> int:
    """Least L > N, > k (prev_sum + N) with floor(r L) > N, that is r L >= N + 1."""
    return max(k * (prev_sum + N) + 1, N + 1, -(-(N + 1) * r.denominator // r.numerator))


def synthesize_point(schedule: Schedule, seed: int = 0) -> tuple[DigitWord, IrregularRecipe]:
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
            if membership_X(donor, k, N_k, a, b):
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


def verify_irregular(word: DigitWord, recipe: IrregularRecipe) -> IrregularReport:
    """Check the two oscillation inequalities on the synthesized word.

    (A) per level k and i <= k, the N_k-horizon orbit average of the
        i-th member of `build_test_family(depth)` is within 1/k of its
        integral;
    (B) per level, the L_k-horizon average of the bump function exceeds
        (1-r)^2 / 2.
    Failures are report entries, not exceptions.  Both read the one
    L_depth grid of `orbit_fracs`, through `_grid_rows`, in `_corner_totals`
    row blocks: (A) through the character sums of `measures._grid_sums` at
    the horizons N_k, (B) through the bump's row sums at the horizons L_k.
    """
    sched = recipe.schedule
    if word.base != sched.a * sched.b:
        raise ValueError(f"word base {word.base} is not a*b = {sched.a * sched.b}")
    if len(word) < sched.L[-1]:
        raise ValueError("word shorter than the schedule's final level")
    x = point_of_word(word)
    bump = bump_function(sched.a, sched.b, sched.r)
    bump_threshold = float((1 - Fraction(sched.r)) ** 2 / 2)
    rows = _grid_rows(x, sched.a, sched.b, sched.L[-1])
    family = build_test_family(sched.depth)
    sums = _grid_sums(x, sched.a, sched.b, rows, list(sched.N), family[-1].freq)
    (bumps,) = _corner_totals(x, sched.a, list(sched.L), lambda s, e: [bump(rows(s, e))], [(0, 0)], float)
    levels = []
    for k, N_k, L_k, total in zip(range(1, sched.depth + 1), sched.N, sched.L, bumps):
        averages = [f.average(sums[:, k - 1] / N_k**2) for f in family[:k]]
        deviations = [abs(avg - f.integral) for avg, f in zip(averages, family)]
        bump_avg = float(total) / L_k**2
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
