"""Empirical measures of times-a, times-b orbits and weak* diagnostics.

The N-empirical measure of x averages point masses at the N^2 orbit
points a^m b^n x.  It is stored as a histogram on the uniform partition
plus truncated Fourier coefficients; a weighted Fourier discrepancy
metrizes the weak* topology at the stored truncation.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import tau
from typing import Sequence

import numpy as np

from .torus import TorusPoint, _Counts, _map_rows, _residue_rows, orbit_fracs, orbit_residues

# Slack of the semiequidistribution verdict below t_claim * m(target).
TOLERANCE = 0.05
MAX_BINS = 1 << 20  # the CLI writes ~190 bytes a bin: d = 2^20 peaks at 231 MB and writes 7.3 MB


@dataclass(frozen=True)
class EmpiricalMeasure:
    d: int
    weights: tuple[float, ...]
    fourier: dict[int, complex]
    N: int

    def __post_init__(self):
        total = sum(self.weights)
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


def _bin_counts(x: TorusPoint, a: int, b: int, N: int, d: int) -> np.ndarray:
    """Orbit points per bin [j/d, (j+1)/d): residue r lands in bin floor(r*d/den)."""
    counts = _Counts(d)
    _map_rows(x, a, b, N, lambda s, blk: counts.add(blk * d // x.den))
    return counts.total


def empirical_measure(
    x: TorusPoint, a: int, b: int, N: int, d: int, K: int
) -> EmpiricalMeasure:
    """The N-empirical measure of x on the depth-d partition, with |k| <= K Fourier data."""
    if N < 1 or not 1 <= d <= MAX_BINS or K < 0:  # also keeps r * d < 2^51 on int64 rows
        raise ValueError(f"need N >= 1, 1 <= d <= {MAX_BINS}, K >= 0")
    counts = _bin_counts(x, a, b, N, d)
    weights = tuple(int(c) / N**2 for c in counts)
    fourier: dict[int, complex] = {0: 1}
    for k, z in enumerate(_characters(x, a, b, N, K), start=1):
        c = complex(z.mean())
        if abs(c) > 1.0:
            c /= abs(c)
        fourier[k] = c
        fourier[-k] = c.conjugate()
    return EmpiricalMeasure(d=d, weights=weights, fourier=fourier, N=N)


def _character(x: TorusPoint, a: int, b: int, N: int, k: int) -> np.ndarray:
    """e^(2 pi i k a^m b^n x) over the N x N orbit grid."""
    return np.exp(1j * k * (tau * orbit_fracs(x, a, b, N)))


def _characters(x: TorusPoint, a: int, b: int, N: int, K: int):
    """e^(2 pi i k a^m b^n x) for k = 1..K, as powers of the k = 1 grid of `_character`.

    The same complex array is updated in place (z *= e1) and yielded for each k.
    """
    e1 = _character(x, a, b, N, 1)
    z = e1.copy()
    for k in range(1, K + 1):
        if k > 1:
            z *= e1
        yield z


def fourier_average(x: TorusPoint, a: int, b: int, N: int, k: int) -> complex:
    """The Birkhoff average (1/N^2) sum e^(2 pi i k a^m b^n x)."""
    return complex(_character(x, a, b, N, k).mean())


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
    orbit_residues(x, c, o, N)  # checks a, b and N
    first = _residue_rows(x, c, o, N)(0, 1)[0]  # row 0 of the grid: the o-orbit of x
    rows = np.stack([first * pow(c, N, x.den) % x.den, first]) / x.den
    last, plain = np.exp(1j * k * (tau * rows.astype(float))).sum(axis=1)
    return abs(last - plain) / N**2


def _interval_membership(
    x: TorusPoint, a: int, b: int, N: int, lo: Fraction, hi: Fraction
) -> np.ndarray:
    """Exact indicator grid of a^m b^n x in the open interval (lo, hi) mod Z.

    With lo' = lo mod 1 and hi' = lo' + (hi - lo) < lo' + 1, r / den lies in
    the interval iff floor(lo' den) < r < ceil(hi' den) or, wrapping past 1,
    r < ceil(hi' den) - den.
    """
    orbit_residues(x, a, b, N)  # checks N before any grid is allocated
    if hi - lo >= 1:
        return np.ones((N, N), dtype=bool)
    lo_mod = lo % 1
    hi_mod = lo_mod + (hi - lo)
    lo_end = lo_mod.numerator * x.den // lo_mod.denominator
    hi_end = -(-hi_mod.numerator * x.den // hi_mod.denominator)
    out = np.empty((N, N), dtype=bool)

    def member(s: int, r: np.ndarray) -> None:
        out[s : s + len(r)] = (r > lo_end) & (r < hi_end) | (r < hi_end - x.den)

    _map_rows(x, a, b, N, member)
    return out


def _horizon_list(horizons: Sequence[int]) -> list[int]:
    horizons = list(horizons)
    if not horizons:
        raise ValueError("empty horizons")
    if min(horizons) < 1:
        raise ValueError("horizons must be >= 1")
    return horizons


def _corner_sums(grid: np.ndarray, horizons: list[int]) -> list:
    """The N x N corner total of `grid` for each N in `horizons`, each read once.

    Rows go one by one into column sums (bool rows as ints), so a corner's
    total depends on that corner alone, whatever the other horizons.
    """
    columns, read, corner = np.zeros(len(grid), dtype=np.result_type(grid, 0)), 0, {}
    for N in sorted(set(horizons)):
        for row in grid[read:N]:
            columns += row
        read = N
        corner[N] = columns[:N].sum()
    return [corner[N] for N in horizons]


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
    grid = _interval_membership(x, a, b, horizons[-1], lo, hi)
    measure = float(min(hi - lo, Fraction(1)))
    ratios = [int(s) / N**2 for N, s in zip(horizons, _corner_sums(grid, horizons))]
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
    out = [0.0] * len(horizons)
    for k, z in enumerate(_characters(x, a, b, max(horizons), K), start=1):
        for i, (N, total) in enumerate(zip(horizons, _corner_sums(z, horizons))):
            out[i] += 2.0 ** (1 - k) * abs(total) / N**2  # +k and -k contribute equally
    return out
