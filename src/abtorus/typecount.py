"""Type counting, entropy of symbol distributions and the dimension-bound formulas.

R(k, N, t) is the set of length-N words over k symbols whose empirical
symbol distribution has entropy at most t; its exact cardinality is a
sum of multinomial coefficients over admissible sorted count vectors.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .torus import TorusPoint, _running_products

ENTROPY_TOL = 1e-12  # documented tie tolerance for threshold comparisons
MAX_PARTS = 500  # cap on min(k, N): count_R's walk recurses once per part; Python allows 1000 frames
# Cap on the (M + 1) d^M Fractions of an itinerary record (q and M decimated
# distributions); d = 2, M = 15 holds 2^19 and runs in about a second.
MAX_CHOICES = 1 << 20


def entropy(p) -> float:
    """Shannon entropy -sum p_i log p_i in nats, with 0 log 0 = 0."""
    return -sum(float(v) * math.log(v) for v in p if v > 0)


def dist(word: Sequence[int], k: int) -> tuple[Fraction, ...]:
    """Empirical distribution of a word over symbols {1, ..., k}, exact rationals."""
    if len(word) == 0:
        raise ValueError("empty word")
    counts = [0] * k
    for s in word:
        if not 1 <= s <= k:
            raise ValueError(f"symbol {s} outside 1..{k}")
        counts[s - 1] += 1
    N = len(word)
    return tuple(Fraction(c, N) for c in counts)


def count_R(k: int, N: int, t: float) -> int:
    """Exact |R(k, N, t)|, by the method of types.

    Sums over non-increasing count vectors c_1 >= ... >= c_j > 0, j <= min(k, N),
    with entropy log N - sum c log c / N at most t (ties within ENTROPY_TOL count
    as inside): the multinomial N! / prod c! times the k! / ((k - j)! prod m_v!)
    ways to give the counts to symbols, m_v the number of parts equal to v.
    """
    if k < 1 or N < 1 or not t >= 0:
        raise ValueError("need k >= 1, N >= 1, t >= 0")
    if min(k, N) > MAX_PARTS:
        raise ValueError(f"min(k, N) = {min(k, N)} exceeds the part limit {MAX_PARTS}")
    clogc = [0.0] + [c * math.log(c) for c in range(1, N + 1)]
    log_N = math.log(N)
    bound = t + ENTROPY_TOL

    def walk(rem: int, top: int, slots: int, run: int, s: float, weight: int) -> int:
        # k - slots parts so far, the last `run` equal to `top`; s is their sum of
        # c log c, weight their multinomial times arrangements. A next part c <= top
        # leaves rem - c <= (slots - 1) c: with two slots left, the rest is one part.
        total = 0
        lo = -(-rem // slots)
        binom = math.comb(rem, lo)
        for c in range(lo, min(rem, top) + 1):
            r = run + 1 if c == top else 1
            sc = s + clogc[c]
            rest = rem - c
            if rest and slots > 2:
                total += walk(rest, c, slots - 1, r, sc, weight * binom * slots // r)
            elif log_N - (sc + clogc[rest]) / N <= bound:  # c or rest is the last part
                total += weight * binom * slots // r // (r + 1 if rest == c else 1)
            binom = binom * rest // (c + 1)
        return total

    return walk(N, N, k, 0, 0.0, 1)


def growth_profile(k: int, t: float, N_list: Sequence[int]) -> list[tuple[int, float]]:
    """Per horizon, (N, (1/N) log |R(k, N, t)|)."""
    N_list = list(N_list)
    if sorted(N_list) != N_list:
        raise ValueError("N_list must be ascending")
    return [(N, math.log(count_R(k, N, t)) / N) for N in N_list]


@dataclass(frozen=True)
class ChoiceRecord:
    """Itinerary of the a-orbit through the M-fold refined uniform partition."""

    indices: tuple[int, ...]  # 1-based refined-cell labels, one per orbit point
    q: tuple[Fraction, ...]  # symbol distribution of the itinerary
    decimated: tuple[tuple[Fraction, ...], ...]  # q_{M,l} for 0 <= l < M


def itinerary_choices(x: TorusPoint, a: int, d: int, M: int, N: int) -> ChoiceRecord:
    """Unique N-choice through the refinement of the depth-d partition by M steps of T_a.

    The refined cell of y is the tuple of depth-d cylinder indices of
    y, T_a y, ..., T_a^(M-1) y (left-closed convention), encoded as a
    base-d integer; q is the symbol distribution of the itinerary and
    the decimated subword distributions are returned alongside.
    """
    if d < 1 or M < 1 or N < M:
        raise ValueError("need d >= 1, M >= 1, N >= M")
    if a < 2:
        raise ValueError("a must be >= 2")
    size = M + 1  # (M + 1) d^M without forming d^M: that many factors d >= 2 pass the limit
    for _ in range(min(M, MAX_CHOICES.bit_length())):
        if size > MAX_CHOICES:
            break
        size *= d
    if size > MAX_CHOICES:
        raise ValueError(f"(M + 1) * d^M exceeds the limit {MAX_CHOICES} at -d {d} -M {M}")
    cyl = [r * d // x.den for r in _running_products(x.num, a, x.den, N + M - 1)]  # floor(d a^n x)
    k_M = d**M
    indices = []
    for n in range(N):
        cell = 0
        for i in range(M):
            cell = cell * d + cyl[n + i]
        indices.append(cell + 1)
    q = dist(indices, k_M)
    decimated = tuple(dist(indices[l::M], k_M) for l in range(M))
    return ChoiceRecord(indices=tuple(indices), q=q, decimated=decimated)


def kt_bound(a: int, b: int, t: float) -> float:
    """2 sqrt(log b) sqrt(t) / (log a + sqrt(log b) sqrt(t)).

    The admissible range is 0 < t < min{log b, (log a)^2 / log b}; NaN is
    outside it.  The formula tends to 1 as t tends to (log a)^2 / log b.
    """
    if min(a, b) < 2:
        raise ValueError("a, b must be >= 2")
    la, lb = math.log(a), math.log(b)
    upper = min(lb, la * la / lb)
    if not 0 < t < upper:
        if t >= upper:
            which = "log b" if lb <= la * la / lb else "(log a)^2 / log b"
            raise ValueError(f"t={t} >= {upper} (violates bound {which})")
        raise ValueError("t must be positive")
    root = math.sqrt(lb * t)
    return 2.0 * root / (la + root)


def q_bound(a: int, t: float) -> float:
    """2t / (log a + t) for 0 < t < log a."""
    if a < 2:
        raise ValueError("a must be >= 2")
    la = math.log(a)
    if not 0 < t < la:
        raise ValueError(f"t={t} outside (0, log a = {la})")
    return 2.0 * t / (la + t)
