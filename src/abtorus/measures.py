"""Empirical measures of times-a, times-b orbits and weak* diagnostics.

The N-empirical measure of x averages point masses at the N^2 orbit
points a^m b^n x.  It is stored as a histogram on the uniform partition
plus truncated Fourier coefficients; a weighted Fourier discrepancy
metrizes the weak* topology at the stored truncation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import fsum, tau
from typing import Callable, Iterable, Sequence

import numpy as np

from .torus import TorusPoint, _bin_counts, _check_grid, _corner_totals, _frac_rows, _residue_rows

# Slack of the semiequidistribution verdict below t_claim * m(target).
TOLERANCE = 0.05
MAX_BINS = 1 << 20  # the CLI writes ~190 bytes a bin: d = 2^20 peaks at 231 MB and writes 7.3 MB
MAX_SUMS = 1 << 12  # cap on K * len(horizons), the character row sums kept per orbit row
MAX_COUNT_CELLS = 1 << 32  # cap on the cells read: h^2 summed over the distinct horizons, times K for character sums
PHASE_LIMIT = 1 << 42  # |k mod den| < 2^42 keeps f |k| 2^11 < 2^53, so the table indices are exact
_PI = 0x3243F6A8885A308D313198A2E03707344A4093822299F31D0  # floor(pi 2^192)


@dataclass(frozen=True)
class EmpiricalMeasure:
    d: int
    weights: tuple[float, ...]
    fourier: dict[int, complex]
    N: int

    def __post_init__(self):
        total = fsum(self.weights)  # sum() of ~10^6 weights can drift past the 1e-12 tolerance
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"weights sum to {total}, not 1")
        if self.fourier.get(0) != 1:
            raise ValueError("fourier[0] must be exactly 1")
        for k, c in self.fourier.items():
            if abs(c) > 1.0 + 1e-12:
                raise ValueError(f"|fourier[{k}]| > 1")


@dataclass
class SemiEquidistReport:
    """A semiequidistribution verdict at finite horizons."""

    t_claim: float
    target_measure: float
    horizons: list[int]
    ratios: list[float]
    liminf_estimate: float
    tolerance: float
    verdict: bool
    meta: dict


def empirical_measure(
    x: TorusPoint, a: int, b: int, N: int, d: int, K: int
) -> EmpiricalMeasure:
    """The N-empirical measure of x on the depth-d partition, with |k| <= K Fourier data."""
    if N < 1 or not 1 <= d <= MAX_BINS or K < 0:  # also keeps r * d < 2^51 on int64 rows
        raise ValueError(f"need N >= 1, 1 <= d <= {MAX_BINS}, K >= 0")
    sums = _character_sums(x, a, b, [N], K)
    counts = _bin_counts(x, a, b, N, d)
    weights = tuple(int(c) / N**2 for c in counts)
    fourier: dict[int, complex] = {0: 1}
    for k, (total,) in enumerate(sums, start=1):
        c = complex(total) / N**2
        if abs(c) > 1.0:
            c /= abs(c)
        fourier[k] = c
        fourier[-k] = c.conjugate()
    return EmpiricalMeasure(d=d, weights=weights, fourier=fourier, N=N)


def _turn_table(bits: int, count: int) -> np.ndarray:
    """e(j / 2^bits) = e^(2 pi i j / 2^bits) for j < count, each component the nearest double.

    The entries are powers of e(2^-bits) in 128-bit fixed point, whose
    cosine and sine are summed from their Taylor series: each is within
    count 2^-123 of exact before its one rounding to double.
    """
    one = 1 << 128
    theta = _PI >> (64 + bits - 1)  # 2 pi / 2^bits in 128-bit fixed point
    unit, term, n = [one, 0], one, 0
    while term:  # the terms (i theta)^n / n! alternate real, imaginary
        n += 1
        term = term * theta // n >> 128
        unit[n % 2] += term if n % 4 < 2 else -term
    (c, s), re, im, out = unit, one, 0, []
    for _ in range(count):
        out.append(complex(re / one, im / one))
        re, im = (re * c - im * s) >> 128, (re * s + im * c) >> 128
    return np.array(out)


# _T1[j] = e(j / 2^11) and _T2[j] = e(j / 2^22), j < 2^11: 32 KiB each, so
# both stay in cache.  _T1 is its first quadrant turned by i, -1 and -i, exactly.
_T1 = np.multiply.outer([1, 1j, -1, -1j], _turn_table(11, 1 << 9)).ravel()
_T2 = _turn_table(22, 1 << 11)


def _phases(f: np.ndarray, k: int) -> np.ndarray:
    """e(k f) = e^(2 pi i k f) of each cell of a float block f in [0, 1], for |k| < PHASE_LIMIT.

    t = f |k| 2^11 splits exactly into i1 + (i2 + t2) / 2^11 with integers
    i1 >= 0, 0 <= i2 < 2^11 and t2 in [0, 1), so e(|k| f) = T1[i1 mod 2^11]
    T2[i2] e(theta) with theta = t2 tau / 2^22 < 1.5e-6.  e(theta) is taken as
    1 - theta^2/2 + i theta: the dropped terms are below 2^-60.  Each cell is
    within (6.5 + 2 pi |k|) 2^-53 of e(k f) for the exact double f; the
    2 pi |k| term is the rounding of f |k| 2^11, which is exact when |k| is
    a power of 2.  A cell that rounded to 1.0 gives e(k) = 1.
    """
    t = f * (abs(k) * 2048.0)
    i = t.astype(np.int64)  # floor, as t >= 0
    t -= i
    t *= 2048.0
    i &= 2047
    z = _T1.take(i)
    np.copyto(i, t, casting="unsafe")
    t -= i
    z *= _T2.take(i)
    t *= tau / 2**22
    p = np.empty(z.shape, dtype=complex)
    p.imag = t
    t *= t
    t *= -0.5
    t += 1.0
    p.real = t
    z *= p
    return np.conjugate(z, out=z) if k < 0 else z


def _frequency(k: int, den: int) -> int:
    """k as its signed residue mod den, exact because e(k r / den) depends only on k mod den."""
    r = (k + den // 2) % den - den // 2
    if abs(r) >= PHASE_LIMIT:
        raise ValueError(f"-K {k} is {r} mod the denominator {den}: |k mod den| must be below 2^42")
    return r


def _character_sums(x: TorusPoint, a: int, b: int, horizons: list[int], K: int, k: int = 1, source=None) -> np.ndarray:
    """sums[j, i]: e^(2 pi i (j+1) k a^m b^n x) summed over m, n < horizons[i], for 0 <= j < K.

    `_grid_sums` over source(x, a, b, N, margin): rows of side N + margin,
    N = max(horizons), margin = floor(log_min(a,b) K) the most rows or
    columns a shifted plane reads past N, which is not a grid side.  k is
    reduced mod den; the source is made only after every bound below is
    checked, and K = 0 makes none.  It is `torus._frac_rows` by default, so
    off the digit path no N x N float grid is held, at any K.
    """
    H = len(horizons)
    if K > MAX_SUMS // H:  # the row sums take 16 K H N bytes: 512 MiB at N = MAX_SIDE
        raise ValueError(f"K = {K} exceeds the Fourier limit {MAX_SUMS // H} (K * horizons <= {MAX_SUMS})")
    _check_grid(a, b, max(horizons))  # a side past MAX_SIDE is named first
    powers_read = K * sum(h * h for h in set(horizons))
    if powers_read > MAX_COUNT_CELLS:
        raise ValueError(f"-K {K} would sum {powers_read} cell powers (K times h^2 summed over distinct horizons), above the limit 2^32")
    k, N = _frequency(k, x.den), max(horizons)
    if K == 0:
        return np.zeros((0, H), dtype=complex)
    margin = sum(min(a, b) ** m <= K for m in range(1, K.bit_length()))
    return _grid_sums(x, a, b, (source or _frac_rows)(x, a, b, N, margin), horizons, K, k)


def _grid_sums(x: TorusPoint, a: int, b: int, rows: Callable, horizons: list[int], K: int, k: int = 1) -> np.ndarray:
    """sums[j, i] of `_character_sums`, read off a float row source of an orbit grid of x.

    With j = u a^alpha b^beta (a divided out, then b), e(j a^m b^n x) =
    e(u a^(m+alpha) b^(n+beta) x): plane j over m, n < h is plane u over
    rows [alpha, alpha + h) and columns [beta, beta + h).  rows(s, e) gives
    grid rows s .. e-1, as `torus._frac_rows` does, at least max(horizons)
    + max(alpha, beta) wide and long, read in `_corner_totals` row blocks
    up to the `_row_period`: e1 = e(k f), |k| < PHASE_LIMIT, is made in its
    block by `_phases`, and the planes u up to the largest needed by z *= e1,
    each yielded from column beta once per (u, beta) window.
    """
    shifts = []
    for j in range(1, K + 1):
        u, alpha, beta = j, 0, 0
        while u % a == 0:
            u, alpha = u // a, alpha + 1
        while u % b == 0:
            u, beta = u // b, beta + 1
        shifts.append((u, alpha, beta))
    windows = sorted({(u, beta) for u, _, beta in shifts})
    index = {window: i for i, window in enumerate(windows)}
    width = max(horizons) + max(beta for _, beta in windows)

    def planes(s: int, e: int) -> Iterable[np.ndarray]:
        e1 = _phases(rows(s, e)[:, :width], k)
        z, power = (e1.copy() if windows[-1][0] > 1 else e1), 1
        for u, beta in windows:
            while power < u:
                z *= e1
                power += 1
            yield z[:, beta:]

    outputs = [(index[u, beta], alpha) for u, alpha, beta in shifts]
    return _corner_totals(x, a, horizons, planes, outputs, complex)


def fourier_average(x: TorusPoint, a: int, b: int, N: int, k: int) -> complex:
    """The Birkhoff average (1/N^2) sum e^(2 pi i k a^m b^n x)."""
    return complex(_character_sums(x, a, b, [N], 1, k)[0, 0]) / N**2


def invariance_defect(
    x: TorusPoint, a: int, b: int, N: int, k: int, map_choice: str = "a"
) -> float:
    """|avg e_k over the once-shifted grid minus the plain grid average|.

    Shifting by T_c, (c, o) = (a, b) or (b, a), swaps the points o^n x (n < N)
    for c^N o^n x, so the sums telescope to two rows: the bound is 2/N.
    """
    if k == 0:
        raise ValueError("k must be nonzero")
    if map_choice not in ("a", "b"):
        raise ValueError("map_choice must be 'a' or 'b'")
    c, o = (a, b) if map_choice == "a" else (b, a)
    grid = _residue_rows(x, c, o, N, 1)  # the (N + 1)-wide grid: row 0 is the o-orbit of x, row N that of c^N x
    rows = np.concatenate([grid(N, N + 1), grid(0, 1)])[:, :N] / x.den
    last, plain = _phases(rows.astype(float), _frequency(k, x.den)).sum(axis=1)
    return abs(last - plain) / N**2


def _interval_test(den: int, lo: Fraction, hi: Fraction) -> Callable[[np.ndarray], np.ndarray]:
    """inside(r): the exact bool array of r / den in the open interval (lo, hi) mod Z.

    With lo' = lo mod 1 and hi' = lo' + (hi - lo) < lo' + 1, r / den lies in
    the interval iff floor(lo' den) < r < ceil(hi' den) or, wrapping past 1,
    r < ceil(hi' den) - den.
    """
    if hi - lo >= 1:
        return lambda r: np.ones(r.shape, dtype=bool)
    lo_mod = lo % 1
    hi_mod = lo_mod + (hi - lo)
    lo_end = lo_mod.numerator * den // lo_mod.denominator
    hi_end = -(-hi_mod.numerator * den // hi_mod.denominator)
    return lambda r: (r > lo_end) & (r < hi_end) | (r < hi_end - den)


def _horizon_list(horizons: Sequence[int]) -> list[int]:
    horizons = list(horizons)
    if not horizons:
        raise ValueError("empty horizons")
    if min(horizons) < 1:
        raise ValueError("horizons must be >= 1")
    return horizons


def semiequidist_profile(
    x: TorusPoint,
    a: int,
    b: int,
    target,
    horizons: Sequence[int],
    t_claim: float,
) -> SemiEquidistReport:
    """Finite-horizon surrogate for the t-semiequidistribution lower bounds.

    `target` is a pair (lo, hi) of rationals realizing an open interval
    mod Z.  The verdict passes iff the minimum over the last quartile of
    horizons is at least t_claim * m(target) - TOLERANCE.
    """
    horizons = _horizon_list(horizons)
    if sorted(horizons) != horizons:
        raise ValueError("horizons must be ascending")
    if not 0 < t_claim <= 1:
        raise ValueError("t_claim must be in (0, 1]")
    lo, hi = Fraction(target[0]), Fraction(target[1])
    if hi <= lo:
        raise ValueError("empty interval")
    cells = sum(h * h for h in set(horizons))
    if cells > MAX_COUNT_CELLS:
        raise ValueError(f"--horizons would read {cells} cells (h^2 summed over distinct horizons), above the limit 2^32")
    rows, inside = _residue_rows(x, a, b, horizons[-1]), _interval_test(x.den, lo, hi)
    (counts,) = _corner_totals(x, a, horizons, lambda s, e: [inside(rows(s, e))], [(0, 0)], np.int32)  # a row count is <= N
    measure = float(min(hi - lo, Fraction(1)))
    ratios = [int(c) / N**2 for N, c in zip(horizons, counts)]
    tail = ratios[-max(1, len(ratios) // 4) :]
    liminf = min(tail)
    verdict = liminf >= t_claim * measure - TOLERANCE
    return SemiEquidistReport(
        t_claim=t_claim,
        target_measure=measure,
        horizons=horizons,
        ratios=ratios,
        liminf_estimate=liminf,
        tolerance=TOLERANCE,
        verdict=verdict,
        meta={"x": str(x), "a": a, "b": b},
    )


def convergence_diagnostic(
    x: TorusPoint, a: int, b: int, horizons: Sequence[int], K: int
) -> list[float]:
    """Weak* distance sum_{1 <= |k| <= K} 2^-|k| |mu_hat_N(k)| to Lebesgue per horizon (not monotone in N)."""
    horizons = _horizon_list(horizons)
    if K < 0:
        raise ValueError("K must be >= 0")
    out = [0.0] * len(horizons)
    for k, sums in enumerate(_character_sums(x, a, b, horizons, K), start=1):
        for i, (N, total) in enumerate(zip(horizons, sums)):
            out[i] += 2.0 ** (1 - k) * abs(total) / N**2  # +k and -k contribute equally
    return out
