"""Slow references for the orbit grid, the test family, the bump and the type count: pow, np.cos / np.sin, Fraction and
mpmath evaluations, and the per-leaf count walk."""
import math
from fractions import Fraction

import numpy as np

# 2 pi in x87 extended precision (64-bit significand) where np.longdouble has it.
TAU_LD = 2 * np.longdouble("3.14159265358979323846264338327950288")


def exact_residues(x, a, b, N):
    """The N x N grid of exact residues pow(a, m, den) * pow(b, n, den) * num % den of x = num/den."""
    apow, bpow = ([pow(c, i, x.den) for i in range(N)] for c in (a, b))
    return [[am * bn * x.num % x.den for bn in bpow] for am in apow]


def member_values(f, x):
    """eta + (1 - eta)(1 + trig(2 pi j x)) / 2 of the member f at the floats x, by np.cos or np.sin."""
    trig = np.cos if f.kind == "cos" else np.sin
    return f.eta + (1.0 - f.eta) * (1.0 + trig(2.0 * np.pi * f.freq * np.asarray(x))) / 2.0


def bump_mean(bump, cells) -> Fraction:
    """The exact mean of the doubles bump(cells)."""
    values = np.asarray(bump(cells)).ravel().tolist()
    return sum(map(Fraction, values)) / len(values)


def mp_member_mean(f, cells):
    """The mean of f over the double cells, in 30-digit mpmath."""
    import mpmath

    with mpmath.workdps(30):
        trig = mpmath.cospi if f.kind == "cos" else mpmath.sinpi
        mean = mpmath.fsum(trig(2 * f.freq * mpmath.mpf(c)) for c in np.ravel(cells).tolist()) / np.size(cells)
        eta = mpmath.mpf(f.eta)
        return eta + (1 - eta) * (1 + mean) / 2


def ld_member_mean(f, cells) -> Fraction:
    """The mean of f over the double cells in np.longdouble: within about 2^-60 of it with a 64-bit significand."""
    trig = np.cos if f.kind == "cos" else np.sin
    mean = trig(TAU_LD * f.freq * np.asarray(cells, dtype=np.longdouble)).mean(dtype=np.longdouble)
    eta = np.longdouble(f.eta)
    return Fraction(*(eta + (1 - eta) * (1 + mean) / 2).as_integer_ratio())


def walk_count_R(k, N, t):
    """(|R(k, N, t)|, visits) by the per-leaf walk: count_R's pruned walk with one binomial
    update and one leaf test per count vector, and no window over the last two parts.

    It reads `typecount.MAX_VISITS` when called, so a test that patches the cap
    patches both.
    """
    from abtorus import typecount
    from abtorus.typecount import ENTROPY_TOL, MAX_PARTS

    MAX_VISITS = typecount.MAX_VISITS
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

    def walk(rem: int, top: int, slots: int, run: int, s: float, weight: int) -> int:
        # k - slots parts so far, the last `run` equal to `top`; s is their sum of
        # c log c, weight their multinomial times arrangements. A next part c <= top
        # leaves rem - c <= (slots - 1) c: with two slots left, the rest is one part.
        nonlocal visits
        lo, hi = -(-rem // slots), min(rem, top) + 1
        end = hi
        while lo < hi:  # the least c whose greedy completion reaches need, else end
            mid = (lo + hi) // 2
            q, r = divmod(rem - mid, mid)
            if s + (q + 1) * clogc[mid] + clogc[r] < need:
                lo = mid + 1
            else:
                hi = mid
        visits += end - lo
        if visits > MAX_VISITS:
            raise ValueError(f"count_R visits more than {MAX_VISITS} count vectors at -K {k} -N {N} -t {t}")
        total = inner = 0  # inner: binom summed over the leaves with r = 1 and rest != c
        binom = math.comb(rem, lo)
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

    return walk(N, N, k, 0, 0.0, 1), visits
