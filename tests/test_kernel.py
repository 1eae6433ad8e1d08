"""Differential tests of the orbit-residue kernel and its consumers against exact references."""
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import (
    DigitWord, TorusPoint, digits_of, measures, orbit_fracs, orbit_grid, orbit_residues, point_of_word, torus
)
from abtorus.measures import _character_sums, _interval_test
from abtorus.torus import _bin_counts, _digit_length
from references import exact_residues

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


def membership_grid(x, a, b, N, lo, hi):
    """The interval test of `semiequidist_profile` on the stacked row blocks of `orbit_residues`."""
    return _interval_test(x.den, lo, hi)(residue_grid(x, a, b, N))


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
        inside = membership_grid(x, a, b, N, Fraction(1, 3), Fraction(5, 4))
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
    """Rows [s, e) of the one residue builder, and the blocks `_spread` hands it in `_bin_counts`, are rows of the pow grid."""
    s = data.draw(st.integers(0, N - 1))
    e = data.draw(st.integers(s + 1, N))
    exact = exact_residues(x, a, b, N)
    span = torus._residue_rows(x, a, b, N)(s, e)
    assert span.dtype == (np.int64 if x.den < 2**31 else object)
    assert span.tolist() == exact[s:e]
    builder, got = torus._residue_rows, []

    def recorded_rows(*args):
        rows = builder(*args)

        def recorded(t, u):
            blk = rows(t, u)
            got.append((t, blk))
            return blk

        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_BLOCK_CELLS", cells)
        mp.setattr(torus, "_residue_rows", recorded_rows)
        _bin_counts(x, a, b, N, 7)
    got.sort(key=lambda t_blk: t_blk[0])  # the threads may finish their runs in any order
    R = max(1, cells // N)
    assert [t for t, _ in got] == list(range(0, N, R))
    assert [len(blk) for _, blk in got] == block_heights(N, R)
    assert np.vstack([blk for _, blk in got]).tolist() == exact


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**40), st.integers(2, 2**70), st.integers(1, 2**31 - 1), st.integers(1, 3000))
def test_power_column_matches_pow(z, c, den, N):
    """The power-doubled int64 column is z c^n mod den, c at or above den (and 2^63) included."""
    col = torus._power_column(z, c, den, N)
    assert col.dtype == np.int64
    assert col.tolist() == [z * pow(c, n, den) % den for n in range(N)]


def test_power_column_at_the_side_limit():
    z, c, den, N = 987654321, 3**45, 2**31 - 1, torus.MAX_SIDE
    assert torus._power_column(z, c, den, N).tolist() == [z * pow(c, n, den) % den for n in range(N)]


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


# Row periods: 2 has order 3 mod 7, 5 mod 31, 31 mod 2^31 - 1 and 61 mod
# 2^61 - 1; 3 has order 6 mod 7 and 30 mod 31, and orders past every side
# here mod the two Mersenne primes.  12, 112 and 6^5 share a factor with a,
# and 7 * 2^31 with 2, so no row of theirs recurs.  The last two take the
# big-integer path, the rest the int64 path.
PERIOD_DENS = [1, 7, 31, 12, 112, 6**5, 2**31 - 1, 2**61 - 1, 7 * 2**31]
PERIOD_CAP = 121  # a longer period counts as none: N then stays below it


def brute_period(x, a, N):
    """Least P < N with a^P num = num mod den, by pow; N if there is none."""
    return next((P for P in range(1, N) if pow(a, P, x.den) * x.num % x.den == x.num), N)


@st.composite
def periodic_grids(draw):
    """(x, a, b, N) with N one of P - 1, P, P + 1, kP, kP + r for the row period P, or N < P."""
    den = draw(st.sampled_from(PERIOD_DENS))
    x = TorusPoint(draw(st.one_of(st.just(0), st.just(1), st.integers(0, den - 1))), den)
    a, b = draw(st.sampled_from([(2, 3), (3, 2)]))
    P = brute_period(x, a, PERIOD_CAP)
    if P == PERIOD_CAP:
        return x, a, b, draw(st.integers(1, 40))
    k, r = draw(st.integers(2, 3)), draw(st.integers(1, max(1, P - 1)))
    return x, a, b, draw(st.sampled_from([n for n in (P - 1, P, P + 1, k * P, k * P + r) if n >= 1]))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(PERIOD_DENS), st.integers(0, 2**62), st.sampled_from([2, 3, 5, 2**11, 6**5]), st.integers(1, 150))
def test_row_period_is_the_least_pow_period_capped_at_N(den, num, a, N):
    x = TorusPoint(num, den)
    assert torus._row_period(x, a, N) == brute_period(x, a, N)


def test_row_period_examples():
    assert [torus._row_period(TorusPoint(1, den), 2, 100) for den in (7, 31, 2**31 - 1, 2**61 - 1)] == [3, 5, 31, 61]
    assert torus._row_period(TorusPoint(0, 5), 2, 100) == 1  # 0/1 is fixed
    assert torus._row_period(TorusPoint(1, 7), 2, 3) == 3  # P = N: no repeat inside the grid
    assert torus._row_period(TorusPoint(1, 12), 2, 100) == 100  # 2/12 has den 6: never back
    assert torus._row_period(TorusPoint(1, 6**40), 3, 8192) == 8192  # the digit path
    assert torus._row_period(TorusPoint(123456789, 1_000_000_007), 2, 8192) == 8192  # order 500000003


def pow_fracs(x, a, b, N):
    """The N x N grid of pow residues over den, each int / int correctly rounded."""
    return np.array([[r / x.den for r in row] for row in exact_residues(x, a, b, N)])


@settings(max_examples=200, deadline=None)
@given(periodic_grids())
def test_periodic_rows_equal_the_pow_reference(grid):
    """Rows computed once and copied equal the correctly rounded pow grid, bit for bit."""
    x, a, b, N = grid
    assert np.array_equal(orbit_fracs(x, a, b, N), pow_fracs(x, a, b, N))


@pytest.mark.parametrize(
    "x, a, b, P",
    [
        (TorusPoint(5, 2**31 - 1), 2, 3, 31),  # int64
        (TorusPoint(123456789123, 2**61 - 1), 2, 3, 61),  # big-integer rows
        (TorusPoint(3, 7), 3, 2, 6),
    ],
)
@pytest.mark.parametrize("N", ["P-1", "P", "P+1", "2P", "2P+r"])
def test_periodic_rows_at_the_period_edges(x, a, b, P, N):
    N = {"P-1": P - 1, "P": P, "P+1": P + 1, "2P": 2 * P, "2P+r": 2 * P + P // 2}[N]
    assert torus._row_period(x, a, N) == min(P, N)
    assert np.array_equal(orbit_fracs(x, a, b, N), pow_fracs(x, a, b, N))


def period_outputs(x, a, b, horizons):
    """Every output `_corner_totals` makes: the character sums and what is read off them, and the interval counts."""
    N = max(horizons)
    return (
        _character_sums(x, a, b, horizons, 3).tolist(),
        measures.empirical_measure(x, a, b, N, 5, 4).fourier,
        measures.convergence_diagnostic(x, a, b, horizons, 4),
        measures.semiequidist_profile(x, a, b, (Fraction(1, 5), Fraction(7, 10)), sorted(set(horizons)), 0.5).ratios,
    )


@pytest.mark.parametrize(
    "x, a, b, P",
    [
        (TorusPoint(3, 7), 2, 3, 3),
        (TorusPoint(1, 2**31 - 1), 2, 3, 31),
        (TorusPoint(1, 2**61 - 1), 2, 3, 61),  # big-integer rows
        (TorusPoint(1, 3**20), 1 + 3**15, 3, 243),  # the digit path: 1 + 3^15 has order 3^5 mod 3^20
    ],
)
def test_periodic_row_sums_equal_the_sums_of_every_row(monkeypatch, x, a, b, P):
    """Row sums copied from row m mod P give the totals of every row summed, bit for bit."""
    horizons = [2 * P + P // 2 + 1, 1, P - 1, P, P + 1, 2 * P, 2 * P - 1]  # below, at and above P, and off its multiples
    assert torus._row_period(x, a, max(horizons)) == P
    assert (_digit_length(x, a, b) > 0) == (x.den == 3**20)
    periodic = period_outputs(x, a, b, horizons)
    monkeypatch.setattr(torus, "_row_period", lambda x, a, N: N)
    assert period_outputs(x, a, b, horizons) == periodic


@pytest.mark.parametrize(
    "x, N, P",
    [
        (TorusPoint(3, 7), 40, 3),
        (TorusPoint(1, 2**31 - 1), 100, 31),
        (TorusPoint(1, 2**61 - 1), 150, 61),  # big-integer rows
        (TorusPoint(123456789, 1_000_000_007), 300, 300),  # aperiodic int64 rows: P = N
    ],
)
def test_corner_totals_ask_only_for_the_rows_before_the_period(monkeypatch, x, N, P):
    """The planes are asked for row spans that tile [0, P), and the totals are those of the whole grid.

    A second output reads the same plane from row 2, so the rows read reach
    N + 2 and an aperiodic grid's period is N + 2.
    """
    monkeypatch.setattr(torus, "_BLOCK_CELLS", 8 * N)  # 8-row blocks: several below every period but 3
    assert torus._row_period(x, 2, N) == P
    period = P if P < N else N + 2
    assert torus._row_period(x, 2, N + 2) == period
    rows, inside = torus._residue_rows(x, 2, 3, N, 2), _interval_test(x.den, Fraction(1, 5), Fraction(7, 10))
    asked = []

    def planes(s, e):
        asked.append((s, e))
        return [inside(rows(s, e))]

    horizons = [N, 1, P, N // 2, N - 1]
    plain, shifted = torus._corner_totals(x, 2, horizons, planes, [(0, 0), (0, 2)], np.int32)
    asked.sort()
    assert [s for s, _ in asked] == [0] + [e for _, e in asked[:-1]] and asked[-1][1] == period
    grid = inside(np.array(exact_residues(x, 2, 3, N + 2), dtype=object))
    assert plain.tolist() == [int(grid[:h, :h].sum()) for h in horizons]
    assert shifted.tolist() == [int(grid[2 : h + 2, :h].sum()) for h in horizons]


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
    grid = membership_grid(x, a, b, N, lo, hi)
    assert grid.shape == (N, N) and grid.dtype == bool
    ref = [[reference_membership(Fraction(r, x.den), lo, hi) for r in row] for row in exact]
    assert grid.tolist() == ref


def test_interval_membership_edge_cases():
    x = TorusPoint(1, 5)  # orbit under 2, 3 visits 1/5, 2/5, 3/5, 4/5
    grid = membership_grid(x, 2, 3, 4, Fraction(1, 5), Fraction(3, 5))
    assert sorted(set(grid.sum(axis=1).tolist())) == [1]  # only 2/5 lies strictly inside
    wrap = membership_grid(x, 2, 3, 4, Fraction(-1, 5), Fraction(3, 10))
    assert grid.shape == wrap.shape and wrap.sum() == 4  # only 1/5, through the wrap
    assert membership_grid(x, 2, 3, 4, Fraction(1, 5), Fraction(6, 5)).all()
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


# (3, 2): the power of 2 in den falls by one per step below the diagonal and the
# power of 3 above it, so the last nonzero digit moves.  The last point has K = 135
# digits, more than N = 30, and a 70-digit zero run: its first windows are all zero,
# and only digits past the first S + 2W = 70 make their cells nonzero.
@pytest.mark.parametrize(
    "x, N",
    [
        (TorusPoint(1, 2**40), 50),
        (TorusPoint(7, 2**35 * 3**5), 50),
        (TorusPoint(3**50 - 1, 2**3 * 3**50), 60),
        (point_of_word(DigitWord(6, [4, 1, 5, 2, 3] + [0] * 70 + [1, 3, 5, 2, 4] * 12)), 30),
    ],
)
@pytest.mark.parametrize("states", [0, 1, 2, 3])  # _BLOCK_CELLS = 1, and blocks of 1-3 whole states
def test_digit_blocks_of_whole_states_match_residues(monkeypatch, fresh_pool, x, N, states):
    """At 1-3 threads, on blocks with and without diagonals cut by the N - d edge: diagonal d
    keeps its cells up to its state's last nonzero digit and the N - d edge, and a block is
    certified 2W digits past its widest extent; a block of states past the last digit has none."""
    K = _digit_length(x, 3, 2)
    assert K
    L = K + 40  # 2W = 40 digits in base 6
    monkeypatch.setattr(torus, "_BLOCK_CELLS", max(1, -(-states * L // 2)))  # 2 _BLOCK_CELLS // L = states
    R = max(1, states)
    cut = [min(K, N - j) > N - (j + min(R, N - j) - 1) for j in range(0, N, R)]
    assert any(cut) == (R > 1) and (not all(cut) or K > N)  # one state never meets the edge
    heights, widths = [], []
    certify = torus._window_fracs

    def spy(block, *args):
        heights.append(len(block))
        widths.append(block.shape[1])
        return certify(block, *args)

    monkeypatch.setattr(torus, "_window_fracs", spy)
    monkeypatch.setattr(torus, "_THREADS", 1)
    fracs = check_against_residues(x, 3, 2, N)
    assert max(heights) == R
    if x == TorusPoint(1, 2**40):  # x2 sends it to 0 from state 40 on: a block of extent 0
        assert 40 in widths
    for threads in (2, 3):
        if torus._pool is not None:
            torus._pool.shutdown()
        monkeypatch.setattr(torus, "_pool", None)  # a pool of threads - 1 helpers
        monkeypatch.setattr(torus, "_THREADS", threads)
        assert np.array_equal(orbit_fracs(x, 3, 2, N), fracs)


def test_bit_pattern_below_is_nextafter(monkeypatch):
    """The double below f > 0 from its bit pattern, on random positive doubles (subnormals
    included) and on the kernel's own cells of 2^-40, which reach 1/2 = 0.3, 1/4 = 0.13 and
    1/8 = 0.043 in base 6: the gap below a power of two is half the gap above it."""
    f = np.random.default_rng(0).integers(1, 0x7FF0000000000000, 100_000).view(np.float64)
    assert np.array_equal(torus._below(f, np.empty_like(f)), np.nextafter(f, -np.inf))
    seen = set()
    below = torus._below

    def checked(f, out):
        pos = f > 0
        want = np.nextafter(f[pos], -np.inf)
        seen.update(f[pos][np.log2(f[pos]) % 1 == 0].tolist())
        res = below(f, out)
        assert np.array_equal(res[pos], want)
        return res

    monkeypatch.setattr(torus, "_below", checked)
    x = point_of_word(digits_of(TorusPoint(1, 2**40), 6, 40))
    check_against_residues(x, 2, 3, 40)
    assert {0.5, 0.25, 0.125} <= seen


WINDOW_BASES = [(4, 26), (6, 20), (10, 15), (24, 11), (2**11 * 6**5, 2)]  # ab and its window width W


def horner_windows(block, S, ab, W):
    """The W-digit windows at i < S + W, one Horner step per digit."""
    V = block[:, : S + W].copy()
    for i in range(1, W):
        V *= ab
        V += block[:, i : i + S + W]
    return V


@pytest.mark.parametrize("ab, W", WINDOW_BASES)
@pytest.mark.parametrize("rows", ["random", "top"])
def test_doubled_windows_equal_horner_windows(ab, W, rows):
    """Every window width the digit path allows, up to the top window (ab)^W - 1."""
    assert ab**W <= 2**53 < ab ** (W + 1)
    rng = np.random.default_rng(ab)
    for S in (1, 2, 7, 31, 64):
        shape = (5, S + 2 * W + int(rng.integers(0, 9)))
        block = rng.integers(0, ab, shape) if rows == "random" else np.full(shape, ab - 1)
        V = torus._digit_windows(block, ab, W, np.empty((3, block.size)))[:, : S + W]
        assert np.array_equal(V, horner_windows(block, S, ab, W))
        if rows == "top":
            assert V.max() == ab**W - 1


def digits_below_one(y: Fraction, ab: int) -> list[int]:
    """The base-ab digits of y in [0, 1) with den | ab^L, up to its last nonzero digit."""
    digits = []
    while y:
        y *= ab
        digits.append(int(y))
        y -= int(y)
    return digits


@st.composite
def digit_tails(draw):
    """Random tails after a zero run, and tails next to or on a midpoint between two doubles."""
    ab, W = draw(st.sampled_from(WINDOW_BASES))
    if draw(st.booleans()):
        body = draw(st.lists(st.integers(0, ab - 1), max_size=150)) + [draw(st.integers(1, ab - 1))]
        return ab, W, [0] * draw(st.integers(0, 600)) + body
    # an odd multiple of 2^-(54 + e) is a midpoint; ab is even, so its expansion ends
    mid = Fraction(2 * draw(st.integers(2**52, 2**53 - 1)) + 1, 2 ** (54 + draw(st.integers(0, 60))))
    L = len(digits_below_one(mid, ab)) + draw(st.integers(1, 400))
    return ab, W, digits_below_one(mid + draw(st.sampled_from([-1, 0, 1])) * Fraction(1, ab**L), ab)


@settings(max_examples=300, deadline=None)
@given(digit_tails())
def test_tail_value_is_the_correctly_rounded_tail(tail_case):
    """A tail read only as far as rounding needs equals Fraction's correctly rounded value."""
    ab, W, tail = tail_case
    exact = Fraction(sum(d * ab ** (len(tail) - 1 - t) for t, d in enumerate(tail)), ab ** len(tail))
    powers = ab ** np.arange(W - 1, -1, -1, dtype=np.int64)
    assert torus._tail_value(np.array(tail, dtype=np.int64), ab, powers) == float(exact)


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
    """Wrap the exact fallback; the returned list gets a 1 for each uncertified cell it recomputes."""
    seen = []
    fallback = torus._tail_value

    def counted(*args):
        seen.append(1)
        return fallback(*args)

    monkeypatch.setattr(torus, "_tail_value", counted)
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
    # a^j x = 2^(j-40) needs only 40 - j digits; the zero cells past them cost no fallback
    seen = count_uncertified(monkeypatch)
    check_against_residues(TorusPoint(1, 2**40), 2, 3, 50)
    assert sum(seen) == 0
