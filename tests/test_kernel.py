"""Differential tests of the orbit-residue kernel and its consumers against exact references."""
import math
from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import TorusPoint, orbit_fracs, orbit_grid, orbit_residues
from abtorus.measures import _bin_counts, _interval_membership

# Both sides of the int64/bigint switch (6**30 also passes 2**63), the trivial
# circle, and small denominators so that d > den and exact interval-end hits
# are common.
DENS = st.one_of(
    st.sampled_from([1, 2**31 - 1, 2**31, 6**13, 6**30]),
    st.integers(min_value=1, max_value=60),
)
# 6k+1 is prime to 2 and 3, so the power-of-2 and power-of-6 denominators survive reduction.
points = st.builds(
    lambda k, den: TorusPoint(6 * k + 1, den), st.integers(0, 10**12), DENS
)
# 2**11 and 6**5 share the primes of 2**31 and 6**k, so some orbits reach residue 0.
mults = st.one_of(st.integers(min_value=2, max_value=10**6), st.sampled_from([2**11, 6**5]))
sides = st.integers(min_value=1, max_value=7)


def exact_residues(x, a, b, N):
    return [[pow(a, m, x.den) * pow(b, n, x.den) * x.num % x.den for n in range(N)] for m in range(N)]


@settings(max_examples=200, deadline=None)
@given(points, mults, mults, sides)
def test_residues_and_fracs_match_exact(x, a, b, N):
    rows = list(orbit_residues(x, a, b, N))
    exact = exact_residues(x, a, b, N)
    assert [row.tolist() for row in rows] == exact
    assert all(row.dtype == (np.int64 if x.den < 2**31 else object) for row in rows)
    fracs = orbit_fracs(x, a, b, N)
    assert fracs.shape == (N, N) and fracs.dtype == np.float64
    for m in range(N):
        for n in range(N):
            f = float(fracs[m, n])
            assert abs(Fraction(f) - Fraction(exact[m][n], x.den)) <= Fraction(math.ulp(f)) / 2


@settings(max_examples=100, deadline=None)
@given(points, mults, mults, sides)
def test_orbit_grid_reads_residues(x, a, b, N):
    grid = orbit_grid(x, a, b, N)
    assert grid == [[TorusPoint(r, x.den) for r in row] for row in exact_residues(x, a, b, N)]


@settings(max_examples=200, deadline=None)
@given(points, mults, mults, sides, st.integers(min_value=1, max_value=120))
def test_bin_counts_match_fraction_reference(x, a, b, N, d):
    ref = [0] * d
    for row in exact_residues(x, a, b, N):
        for r in row:
            ref[math.floor(Fraction(r, x.den) * d)] += 1
    assert _bin_counts(x, a, b, N, d).tolist() == ref


def reference_membership(y: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """y + k in the open interval (lo, hi) for some integer k, or the interval covers the circle."""
    if hi - lo >= 1:
        return True
    return any(lo < y + k < hi for k in range(math.floor(lo) - 1, math.ceil(hi) + 2))


@settings(max_examples=300, deadline=None)
@given(points, mults, mults, sides, st.data())
def test_interval_membership_matches_fraction_reference(x, a, b, N, data):
    exact = exact_residues(x, a, b, N)
    orbit_values = [Fraction(r, x.den) for row in exact for r in row]

    def end():
        # an orbit point (hit exactly) or an arbitrary rational, shifted by an integer
        base = data.draw(
            st.one_of(
                st.sampled_from(orbit_values),
                st.fractions(min_value=0, max_value=1, max_denominator=50),
            )
        )
        return base + data.draw(st.integers(min_value=-2, max_value=2))

    lo = end()
    hi = data.draw(
        st.one_of(
            st.builds(end),
            st.fractions(min_value=0, max_value=3, max_denominator=50).map(lambda t: lo + t),
        ).filter(lambda h: h > lo)
    )
    grid = _interval_membership(x, a, b, N, lo, hi)
    assert grid.shape == (N, N)
    ref = [[reference_membership(Fraction(r, x.den), lo, hi) for r in row] for row in exact]
    assert grid.tolist() == ref


def test_interval_membership_edge_cases():
    x = TorusPoint(1, 5)  # orbit under 2, 3 visits 1/5, 2/5, 3/5, 4/5
    grid = _interval_membership(x, 2, 3, 4, Fraction(1, 5), Fraction(3, 5))
    assert sorted(set(grid.sum(axis=1).tolist())) == [1]  # only 2/5 lies strictly inside
    wrap = _interval_membership(x, 2, 3, 4, Fraction(-1, 5), Fraction(3, 10))
    assert grid.shape == wrap.shape and wrap.sum() == 4  # only 1/5, through the wrap
    assert _interval_membership(x, 2, 3, 4, Fraction(1, 5), Fraction(6, 5)).all()
    assert _bin_counts(TorusPoint(0, 1), 2, 3, 3, 7).tolist() == [9, 0, 0, 0, 0, 0, 0]
