"""Differential tests of the orbit-residue kernel and its consumers against exact references."""
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import DigitWord, TorusPoint, orbit_fracs, orbit_grid, orbit_residues, point_of_word, torus
from abtorus.measures import _bin_counts, _interval_membership
from abtorus.torus import _digit_length

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


def residue_grid(x, a, b, N):
    """The N x N residues, the row blocks of `orbit_residues` stacked."""
    return np.vstack(list(orbit_residues(x, a, b, N)))


def exact_residues(x, a, b, N):
    return [[pow(a, m, x.den) * pow(b, n, x.den) * x.num % x.den for n in range(N)] for m in range(N)]


@settings(max_examples=200, deadline=None)
@given(points, mults, mults, sides)
def test_residues_and_fracs_match_exact(x, a, b, N):
    rows = residue_grid(x, a, b, N)
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


# ---- row blocks of orbit_residues ------------------------------------------

BLOCK_ROWS = 5
# x = (den - 1)/den with a, b = -1 mod den: den = 2^31 - 1 forms the largest
# int64 products (den - 1)^2 < 2^62, den = 2^31 is the first object-path
# denominator, and multipliers >= den reduce before their first product.
EDGE_CASES = [
    (TorusPoint(2**31 - 2, 2**31 - 1), 2**31 - 2, 2**31 - 2),
    (TorusPoint(2**31 - 2, 2**31 - 1), 2**31 + 6, 3 * 2**31 - 4),
    (TorusPoint(2**31 - 1, 2**31), 2**31 - 1, 2**31 - 1),
    (TorusPoint(2**31 - 1, 2**31), 2**31 + 3, 2**32 + 7),
]


def block_heights(N, R):
    return [min(R, N - s) for s in range(0, N, R)]


def assert_fracs_nearest(fracs, exact, den):
    for m, row in enumerate(exact):
        for n, r in enumerate(row):
            f = float(fracs[m, n])
            assert abs(Fraction(f) - Fraction(r, den)) <= Fraction(math.ulp(f)) / 2


@pytest.mark.parametrize("N", [BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 1])
@pytest.mark.parametrize("x, a, b", EDGE_CASES)
def test_residue_blocks_at_block_edges(monkeypatch, x, a, b, N):
    monkeypatch.setattr(torus, "_BLOCK_CELLS", BLOCK_ROWS * N)  # blocks of BLOCK_ROWS rows
    blocks = list(orbit_residues(x, a, b, N))
    assert [len(blk) for blk in blocks] == block_heights(N, BLOCK_ROWS)
    assert all(blk.shape[1] == N and blk.dtype == (np.int64 if x.den < 2**31 else object) for blk in blocks)
    exact = exact_residues(x, a, b, N)
    assert np.vstack(blocks).tolist() == exact
    assert_fracs_nearest(orbit_fracs(x, a, b, N), exact, x.den)


@pytest.mark.parametrize("N", [180, 181, 182, 363])
def test_residue_blocks_at_the_block_constant(N):
    """R = 2^15 // N rows: 182 > N at 180, exactly N at 181, and short last blocks at 182 and 363."""
    x = TorusPoint(2**31 - 2, 2**31 - 1)
    blocks = list(orbit_residues(x, 2**31 - 2, 3, N))
    assert [len(blk) for blk in blocks] == block_heights(N, max(1, torus._BLOCK_CELLS // N))
    assert np.vstack(blocks).tolist() == exact_residues(x, 2**31 - 2, 3, N)


@settings(max_examples=200, deadline=None)
@given(points, mults, mults, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=40))
def test_small_blocks_stack_to_the_exact_grid(x, a, b, N, cells):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_BLOCK_CELLS", cells)
        blocks = list(orbit_residues(x, a, b, N))
        fracs = orbit_fracs(x, a, b, N)
        counts = _bin_counts(x, a, b, N, 7)
        inside = _interval_membership(x, a, b, N, Fraction(1, 3), Fraction(5, 4))
    assert [len(blk) for blk in blocks] == block_heights(N, max(1, cells // N))
    exact = exact_residues(x, a, b, N)
    assert np.vstack(blocks).tolist() == exact
    assert_fracs_nearest(fracs, exact, x.den)
    cells_exact = [Fraction(r, x.den) for row in exact for r in row]
    assert counts.tolist() == [sum(math.floor(y * 7) == j for y in cells_exact) for j in range(7)]
    assert inside.ravel().tolist() == [not Fraction(1, 4) <= y <= Fraction(1, 3) for y in cells_exact]


@settings(max_examples=200, deadline=None)
@given(points, mults, mults, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=40), st.data())
def test_builder_rows_are_the_exact_rows_of_any_span(x, a, b, N, cells, data):
    """Rows [s, e) of the one residue builder, and the blocks `_map_rows` hands out, are rows of the pow grid."""
    s = data.draw(st.integers(0, N - 1))
    e = data.draw(st.integers(s + 1, N))
    exact = exact_residues(x, a, b, N)
    span = torus._residue_rows(x, a, b, N)(s, e)
    assert span.dtype == (np.int64 if x.den < 2**31 else object)
    assert span.tolist() == exact[s:e]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_BLOCK_CELLS", cells)
        got = torus._map_rows(x, a, b, N, lambda t, blk: (t, blk))
    R = max(1, cells // N)
    assert [t for t, _ in got] == list(range(0, N, R))
    assert [len(blk) for _, blk in got] == block_heights(N, R)
    assert np.vstack([blk for _, blk in got]).tolist() == exact


def test_residue_blocks_keep_memory_small():
    """Reading every block at the largest side holds a few blocks, not the 512 MiB int64 grid."""
    x = TorusPoint(2**31 - 2, 2**31 - 1)
    tracemalloc.start()
    try:
        for blk in orbit_residues(x, 2, 3, torus.MAX_SIDE):
            assert len(blk) == torus._BLOCK_CELLS // torus.MAX_SIDE
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


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


# ---- the base-ab digit automaton path of orbit_fracs -------------------------

PAIRS = [(2, 3), (3, 2), (2, 5), (4, 6)]


@st.composite
def digit_words(draw):
    """(a, b, digits): base-ab words built from random digits, zero blocks and all-(ab-1) blocks."""
    a, b = draw(st.sampled_from(PAIRS))
    ab = a * b
    block = st.one_of(
        st.lists(st.integers(0, ab - 1), min_size=1, max_size=12),
        st.integers(1, 60).map(lambda n: [0] * n),
        st.integers(1, 60).map(lambda n: [ab - 1] * n),
    )
    digits = [d for part in draw(st.lists(block, min_size=1, max_size=6)) for d in part]
    return a, b, digits


def check_against_residues(x, a, b, N):
    """Every cell equals row / den from orbit_residues and is within 1/2 ulp of r / den."""
    fracs = orbit_fracs(x, a, b, N)
    assert fracs.shape == (N, N) and fracs.dtype == np.float64
    for m, row in enumerate(residue_grid(x, a, b, N)):
        assert fracs[m].tolist() == (row / x.den).tolist()
        for n, r in enumerate(row.tolist()):
            f = float(fracs[m, n])
            assert abs(Fraction(f) - Fraction(r, x.den)) <= Fraction(math.ulp(f)) / 2
    return fracs


@settings(max_examples=150, deadline=None)
@given(digit_words(), st.integers(min_value=1, max_value=40))
def test_digit_path_matches_residues(word, N):
    a, b, digits = word
    x = point_of_word(DigitWord(a * b, digits))
    # the digit path runs exactly for den >= 2^31; smaller den stay on the int64 path
    assert bool(_digit_length(x, a, b)) == (x.den >= 2**31)
    check_against_residues(x, a, b, N)


def test_digit_length_rule():
    assert _digit_length(TorusPoint(1, 6**40), 2, 3) == 40
    assert _digit_length(TorusPoint(1, 2**40 * 3), 2, 3) == 40
    assert _digit_length(TorusPoint(1, 2**31 - 1), 2, 3) == 0  # int64 path
    assert _digit_length(TorusPoint(1, 6**40 * 5), 2, 3) == 0  # big-integer path
    assert _digit_length(TorusPoint(1, 6**40), 2**11, 6**5) == 8
    assert _digit_length(TorusPoint(1, 6**40), 2**20, 3**10) == 0  # (ab)^2 > 2^53


@pytest.mark.parametrize("x", [TorusPoint(1, 5), TorusPoint(1, 6**40), TorusPoint(1, 6**40 * 5)])
@pytest.mark.parametrize(
    "a, b, N", [(1, 3, 3), (2, 1, 3), (0, 0, 3), (2, 3, 0), (2, 3, -1), (2, 3, torus.MAX_SIDE + 1)]
)
def test_kernel_rejects_bad_multipliers_and_sides(x, a, b, N):
    """Each path rejects a, b < 2 and N outside 1..MAX_SIDE at the call, the digit path included."""
    msg = "a, b must be >= 2" if min(a, b) < 2 else "N must be >= 1" if N < 1 else "exceeds the grid"
    with pytest.raises(ValueError, match=msg):
        orbit_residues(x, a, b, N)  # no row is read
    with pytest.raises(ValueError, match=msg):
        orbit_fracs(x, a, b, N)


def count_uncertified(monkeypatch):
    """Wrap the window certifier; the returned list collects its uncertified cell counts."""
    seen = []
    certify = torus._window_fracs

    def counted(*args):
        vals, ok = certify(*args)
        seen.append(int((~ok).sum()))
        return vals, ok

    monkeypatch.setattr(torus, "_window_fracs", counted)
    return seen


def test_digit_path_underflow_falls_back(monkeypatch):
    # 590 leading zeros: x ~ 6^-591 is below the smallest subnormal, so r / den is 0.0
    digits = [0] * 590 + [5, 1, 4, 1, 5, 2, 3, 5, 1, 3]
    x = point_of_word(DigitWord(6, digits))
    seen = count_uncertified(monkeypatch)
    fracs = check_against_residues(x, 2, 3, 6)
    assert fracs[0, 0] == 0.0 and x.num > 0
    assert sum(seen) > 0


@pytest.mark.parametrize(
    "value, expected",
    [
        # the exact midpoint between 1/2 and 1/2 + 2^-53 rounds to even
        (Fraction(1, 2) + Fraction(1, 2**54), 0.5),
        # 6^-60 above that midpoint, decided by digits after the two windows
        (Fraction(1, 2) + Fraction(1, 2**54) + Fraction(1, 6**60), 0.5 + 2.0**-53),
    ],
)
def test_digit_path_near_tie_falls_back(monkeypatch, value, expected):
    x = TorusPoint(value.numerator, value.denominator)
    assert _digit_length(x, 2, 3)
    seen = count_uncertified(monkeypatch)
    fracs = check_against_residues(x, 2, 3, 5)
    assert fracs[0, 0] == expected
    assert sum(seen) > 0


def near_midpoints():
    """Points of 40-44 base-6 digits next to a midpoint between two doubles."""
    rng = random.Random(0)
    # midpoints just below a power of two, where the gap below is half the gap above
    for e in range(1, 50):
        m = Fraction(1, 2 ** (e - 1)) - Fraction(1, 2 ** (53 + e))
        for D in (40, 43):
            k = round(m * 6**D)
            yield from (TorusPoint(k + dk, 6**D) for dk in range(-3, 4))
    # a digit right after the two 20-digit windows lifts y over a midpoint
    for e in range(3, 45):
        for _ in range(20):
            m = Fraction(rng.randrange(2**53, 2**54) | 1, 2 ** (53 + e))
            prefix = m.numerator * 6**40 // m.denominator
            d = int((m - Fraction(prefix, 6**40)) * 6**41) + 1
            if d < 6:
                yield TorusPoint(prefix * 6 + d, 6**41)


def test_digit_path_near_midpoints():
    for x in near_midpoints():
        assert _digit_length(x, 2, 3)
        assert orbit_fracs(x, 2, 3, 2).tolist() == [
            [r / x.den for r in row.tolist()] for row in residue_grid(x, 2, 3, 2)
        ]


def test_digit_path_tail_digit_decides(monkeypatch):
    # base 4 (a = b = 2) has 26-digit windows.  y = 2^-52 + 3 * 4^-53 sits above the
    # midpoint 2^-52 + 2^-105 only through digit 52, the first one after both windows.
    x = TorusPoint(2**54 + 3, 4**53)
    seen = count_uncertified(monkeypatch)
    fracs = check_against_residues(x, 2, 2, 3)
    assert fracs[0, 0] == 2.0**-52 + 2.0**-104
    assert sum(seen) > 0


def test_digit_path_certifies_all_zero_windows(monkeypatch):
    # a^j x = 2^(j-40) needs only 40 - j digits; the zero windows past them are exact
    seen = count_uncertified(monkeypatch)
    check_against_residues(TorusPoint(1, 2**40), 2, 3, 50)
    assert sum(seen) == 0
