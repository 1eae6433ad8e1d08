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

import numpy as np

from .torus import TorusPoint, _orbit_column

ENTROPY_TOL = 1e-12  # documented tie tolerance for threshold comparisons
MAX_PARTS = 500  # cap on min(k, N): count_R's walk recurses once per part; Python allows 1000 frames
MAX_VISITS = 1 << 20  # cap on the count vectors count_R's walk visits: reached in about 1 s on a 2-vCPU host
# Cap on the (M + 1) d^M Fractions of an itinerary record (q and M decimated
# distributions); d = 2, M = 15 holds 2^19 and runs in about a second.
MAX_CHOICES = 1 << 20
MAX_POINTS = 1 << 20  # cap on N: the record and the CLI line hold every label


def entropy(p) -> float:
    """Shannon entropy -sum p_i log p_i in nats, with 0 log 0 = 0."""
    return sum((-float(v) * math.log(v) for v in p if v > 0), 0.0)  # a point mass is 0.0 + -0.0 = +0.0


def dist(word: Sequence[int], k: int) -> tuple[Fraction, ...]:
    """Empirical distribution of a word over symbols {1, ..., k}, exact rationals, counted by one `np.bincount`."""
    if len(word) == 0:
        raise ValueError("empty word")
    w = np.asarray(word)  # an object array when a symbol is beyond int64
    bad = np.flatnonzero((w < 1) | (w > k))
    if bad.size:
        raise ValueError(f"symbol {word[bad[0]]} outside 1..{k}")
    N = len(word)
    return tuple(Fraction(c, N) for c in np.bincount(w - 1, minlength=k).tolist())


def _slide(n: int, lo: int, hi: int, W: int, bl: int, bh: int, lo2: int, hi2: int) -> tuple[int, int, int]:
    """The binomial window W = sum of C(n, j) over lo <= j < hi, with its boundary binomials
    bl = C(n, lo) and bh = C(n, hi - 1), moved to [lo2, hi2) over n - 1: the new (W, bl, bh).

    Both windows keep lo <= hi, lo <= n and hi >= 1 for their own n (an empty one
    too), so bl and bh are nonzero and every ratio step starts from a true value.
    The window grows at n to cover both ranges, drops to n - 1 by
    C(n, j) = C(n - 1, j) + C(n - 1, j - 1), which summed over [lo, hi) gives
    W(n) = 2 W(n - 1) + C(n - 1, lo - 1) - C(n - 1, hi - 1), and then shrinks.
    """
    while lo > lo2:
        lo -= 1
        bl = bl * (lo + 1) // (n - lo)
        W += bl
    while hi < hi2:
        bh = bh * (n - hi + 1) // hi
        W += bh
        hi += 1
    x = bl * lo // n  # C(n - 1, lo - 1)
    bl -= x
    if hi > n:  # C(n - 1, n) = 0, so [lo, n + 1) over n - 1 is [lo, n), whose last binomial is 1
        hi, bh = n, 1
        W = (W - x) >> 1
    else:
        bh = bh * (n - hi + 1) // n
        W = (W - x + bh) >> 1
    n -= 1
    while lo < lo2:
        W -= bl
        bl = bl * (n - lo) // (lo + 1)
        lo += 1
    while hi > hi2:
        W -= bh
        bh = bh * (hi - 1) // (n - hi + 2)
        hi -= 1
    return W, bl, bh


def count_R(k: int, N: int, t: float) -> int:
    """Exact |R(k, N, t)|, by the method of types.

    Sums over non-increasing count vectors c_1 >= ... >= c_j > 0, j <= min(k, N),
    with entropy log N - sum c log c / N at most t (ties within ENTROPY_TOL count
    as inside): the multinomial N! / prod c! times the k! / ((k - j)! prod m_v!)
    ways to give the counts to symbols, m_v the number of parts equal to v.

    The walk visits only parts c that can still pass: with the parts so far
    summing to s in c log c and rem - c = q c + r, the greedy completion
    (q parts c, then r) majorizes every other in parts <= c, so none exceeds
    s + (q + 1) c log c + r log r. That grows with c, and a binary search finds
    the least c it lets through. The bound keeps a float slack, so the count is
    the same exact integer as the full walk's. More than MAX_VISITS visited
    vectors is a ValueError naming -K, -N and -t.

    With three parts left, every c2 >= rest - c2 from the first passing one up
    passes, so the leaves under a part c sum C(rest, c2) over a window of c2.
    The window is built by binomial ratio steps for the first c of a run of
    siblings and carried by `_slide` to each next c, where n = rest drops by one
    and the ends move a step or two; c2 = c and c2 = rest - c2, whose
    arrangements differ, are weighted apart, and the sum over the siblings is
    multiplied by the shared weight once.
    """
    if k < 1 or N < 1 or not t >= 0:
        raise ValueError("need k >= 1, N >= 1, t >= 0")
    if min(k, N) > MAX_PARTS:
        raise ValueError(f"min(k, N) = {min(k, N)} exceeds the part limit {MAX_PARTS}")
    clogc = [0.0] + [c * math.log(c) for c in range(1, N + 1)]
    log_N = math.log(N)
    bound = t + ENTROPY_TOL
    # A vector passes when its sum of c log c reaches N (log N - bound); the slack
    # covers float rounding, so the prune keeps every vector the leaf test accepts.
    need = N * (log_N - bound) - 1e-9 * (1 + N * log_N)
    visits = 0

    def least(rem: int, top: int, slots: int, s: float) -> tuple[int, int]:
        # The least next part c whose greedy completion reaches need (else end), and
        # end = min(rem, top) + 1; every c between them counts as a visited vector.
        nonlocal visits
        lo, hi = -(-rem // slots), min(rem, top) + 1
        end = hi
        while lo < hi:
            mid = (lo + hi) // 2
            q, r = divmod(rem - mid, mid)
            if s + (q + 1) * clogc[mid] + clogc[r] < need:
                lo = mid + 1
            else:
                hi = mid
        visits += end - lo
        if visits > MAX_VISITS:
            raise ValueError(f"count_R visits more than {MAX_VISITS} count vectors at -K {k} -N {N} -t {t}")
        return lo, end

    def walk(rem: int, top: int, slots: int, run: int, s: float, weight: int) -> int:
        # k - slots parts so far, the last `run` equal to `top`; s is their sum of
        # c log c, weight their multinomial times arrangements. A next part c <= top
        # leaves rem - c <= (slots - 1) c: with two slots left, the rest is one part.
        lo, end = least(rem, top, slots, s)
        total = inner = 0  # inner: binom summed over the leaves with r = 1 and rest != c
        binom = math.comb(rem, lo)
        if slots == 3:
            acc = 0  # over weight: binom times the ways of the leaves below each c < top
            wn = 0  # n of the window carried from the c before, 0 when there is none
            for c in range(lo, end):
                sc = s + clogc[c]
                rest = rem - c
                if not rest:  # c = rem is the last part, and the last c
                    if log_N - (sc + clogc[rest]) / N <= bound:
                        total += weight * binom * 3 // (run + 1 if c == top else 1)
                    break
                # Two parts c2 >= rest - c2 remain. The leaf test rises with c2: c2 log c2 +
                # (rest - c2) log(rest - c2) grows by at least 2 / N a step, while the float
                # rounding of two such sums, under 8 N log N 2^-53, stays below that for
                # N < 10^7. So every c2 from the first passing one passes, and the leaves sum
                # C(rest, c2) over a window [lo2, hi2), carried from the c before while both
                # are nonempty.
                lo2, hi2 = least(rest, c, 2, sc)
                while lo2 < hi2 and log_N - (sc + clogc[lo2] + clogc[rest - lo2]) / N > bound:
                    lo2 += 1  # the prune's slack leaves a few such steps
                if lo2 == hi2:
                    wn = 0
                else:
                    if wn:
                        W, bl, bh = _slide(wn, wlo, whi, W, bl, bh, lo2, hi2)
                    else:
                        bl = bh = W = math.comb(rest, lo2)
                        for j in range(lo2 + 1, hi2):
                            bh = bh * (rest - j + 1) // j
                            W += bh
                    wn, wlo, whi = rest, lo2, hi2
                    if c < top:
                        # 3 symbols for c, 2 for c2 and 1 for rest - c2: 6 ways a leaf, over 2
                        # where c2 = c, over 2 where c2 = rest - c2 and over 6 where all three are equal
                        v = 6 * W
                        if hi2 > c:
                            v -= bh * (5 if rest == 2 * c else 3)
                        if 2 * lo2 == rest and lo2 < c:
                            v -= 3 * bl
                        acc += binom * v
                    else:  # c lengthens the run of top: walk's leaf weights at two slots
                        r = run + 1
                        w2 = weight * binom * 3 // r
                        v = 2 * W
                        if hi2 > c:
                            v -= 2 * bh
                            total += w2 * bh * 2 // (r + 1) // (r + 2 if rest == 2 * c else 1)
                        if 2 * lo2 == rest and lo2 < c:
                            v -= bl
                        total += w2 * v
                binom = binom * rest // (c + 1)
            return total + weight * acc
        for c in range(lo, end):
            sc = s + clogc[c]
            rest = rem - c
            if rest and slots > 2:
                r = run + 1 if c == top else 1
                total += walk(rest, c, slots - 1, r, sc, weight * binom * slots // r)
            elif log_N - (sc + clogc[rest]) / N <= bound:  # c or rest is the last part
                if c == top or rest == c:
                    r = run + 1 if c == top else 1
                    total += weight * binom * slots // r // (r + 1 if rest == c else 1)
                else:
                    inner += binom
            binom = binom * rest // (c + 1)
        return total + inner * weight * slots

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
    # (M + 1) d^M without forming d^M: that many factors d >= 2 pass the limit
    if (M + 1) * d ** min(M, MAX_CHOICES.bit_length()) > MAX_CHOICES:
        raise ValueError(f"(M + 1) * d^M exceeds the limit {MAX_CHOICES} at -d {d} -M {M}")
    if N > MAX_POINTS:
        raise ValueError(f"N = {N} exceeds the itinerary limit {MAX_POINTS}")
    col = _orbit_column(x.num, a, x.den, N + M - 1)  # a^n num mod den
    cyl = (col * d // x.den).astype(np.int64)  # floor(d a^n x)
    # The label of point n is 1 + its M digits cyl[n .. n+M-1] in base d, exact as d^M <= 2^20;
    # at d = 1 every digit is 0, so one window digit gives the same labels.
    w = M if d > 1 else 1
    places = d ** np.arange(w - 1, -1, -1, dtype=np.int64)
    indices = np.lib.stride_tricks.sliding_window_view(cyl[M - w :], w) @ places + 1
    q = dist(indices, d**M)
    decimated = tuple(dist(indices[l::M], d**M) for l in range(M))
    return ChoiceRecord(indices=tuple(indices.tolist()), q=q, decimated=decimated)


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
        which = "log b" if lb <= la * la / lb else "(log a)^2 / log b"
        if t >= upper:
            raise ValueError(f"t={t} >= {upper} (violates bound {which})")
        raise ValueError("t must be positive" if t <= 0 else f"t={t} outside (0, {which} = {upper})")  # t is NaN
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
