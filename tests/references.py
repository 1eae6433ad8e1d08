"""Slow references for the orbit grid, the test family and the bump: pow, np.cos / np.sin, Fraction and mpmath evaluations."""
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
