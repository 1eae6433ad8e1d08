import math
import random
from math import tau
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import (
    EmpiricalMeasure,
    TorusPoint,
    convergence_diagnostic,
    empirical_measure,
    fourier_average,
    invariance_defect,
    orbit_fracs,
    orbit_residues,
    point_of_word,
    semiequidist_profile,
)
from abtorus import measures, torus
from abtorus.torus import _running_products
from references import exact_residues
from words import random_word


def lebesgue_distance(mu: EmpiricalMeasure) -> float:
    """Weak* distance from mu to Lebesgue, whose nonzero modes vanish: sum of 2^-|k| |mu_hat(k)|."""
    return sum(2.0 ** -abs(k) * abs(c) for k, c in mu.fourier.items() if k != 0)


def test_point_mass_measure():
    mu = empirical_measure(TorusPoint(0, 1), 2, 3, 4, 5, 3)
    assert mu.weights == (1.0, 0.0, 0.0, 0.0, 0.0)
    for k in range(-3, 4):
        assert mu.fourier[k] == 1


def test_weights_example():
    mu = empirical_measure(TorusPoint(1, 5), 2, 3, 2, 5, 0)
    assert mu.weights == (0.0, 0.5, 0.25, 0.25, 0.0)


def test_half_point_fourier_vanishes():
    # orbit of 1/2 under (2,3) at N=2 is 1/2, 0, 1/2, 0
    assert abs(fourier_average(TorusPoint(1, 2), 2, 3, 2, 1)) < 1e-15
    assert abs(empirical_measure(TorusPoint(1, 2), 2, 3, 2, 2, 1).fourier[1]) < 1e-15


def test_fourier_trivial_cases():
    assert fourier_average(TorusPoint(0, 1), 2, 3, 7, 5) == pytest.approx(1.0, abs=1e-12)
    assert fourier_average(TorusPoint(3, 7), 2, 3, 4, 0) == pytest.approx(1.0, abs=1e-12)


def test_exact_count_consistency():
    mu = empirical_measure(TorusPoint(3, 11), 2, 3, 6, 7, 0)
    for w in mu.weights:
        assert (w * 36) == int(round(w * 36))


def test_weak_star_identity_and_example():
    leb = EmpiricalMeasure(d=4, weights=(0.25,) * 4, fourier={0: 1, 1: 0j, -1: 0j, 2: 0j, -2: 0j}, N=0)
    assert lebesgue_distance(leb) == 0.0
    delta0 = empirical_measure(TorusPoint(0, 1), 2, 3, 5, 4, 2)
    assert lebesgue_distance(delta0) == pytest.approx(1.5)  # every mode of a point mass at 0 is 1


def test_invariance_defect_fixed_point():
    assert invariance_defect(TorusPoint(0, 1), 2, 3, 50, 1, "a") == 0.0


def test_invariance_defect_telescoping_bound():
    rng = random.Random(11)
    for _ in range(10):
        x = TorusPoint(rng.randrange(1, 10**6), rng.randrange(2, 10**6))
        k = rng.choice([1, 2, 5])
        for N in (10, 100):
            for which in ("a", "b"):
                assert invariance_defect(x, 2, 3, N, k, which) <= 2.0 / N


def test_invariance_defect_boundary_identity():
    # the a-defect telescopes to the m = N vs m = 0 rows
    x, N, k = TorusPoint(5, 97), 40, 2
    fracs = orbit_fracs(x, 2, 3, N + 1)
    vals = np.exp(2j * np.pi * k * fracs)
    direct = abs((vals[N, :N] - vals[0, :N]).sum()) / N**2
    assert invariance_defect(x, 2, 3, N, k, "a") == pytest.approx(direct, abs=1e-14)


def reference_invariance_defect(x, a, b, N, k, map_choice):
    """The defect summed over the whole (N+1) x (N+1) character grid."""
    vals = np.exp(1j * k * (2 * np.pi * orbit_fracs(x, a, b, N + 1)))
    shifted = vals[1:, :N] if map_choice == "a" else vals[:N, 1:]
    return abs(shifted.sum() - vals[:N, :N].sum()) / N**2


@pytest.mark.parametrize(
    "x",
    [TorusPoint(3, 1000003), point_of_word(random_word(6, 300, seed=7)), TorusPoint(5, 7**20)],
)
@pytest.mark.parametrize("map_choice", ["a", "b"])
@pytest.mark.parametrize("N, k", [(1, 1), (1, -3), (17, 2), (40, -5), (64, 1)])
def test_invariance_defect_matches_full_grid(x, map_choice, N, k):
    # int64, digit-automaton and big-integer points; the two rows against the whole grid
    got = invariance_defect(x, 2, 3, N, k, map_choice)
    assert abs(got - reference_invariance_defect(x, 2, 3, N, k, map_choice)) < 1e-12


@pytest.mark.parametrize("x", [TorusPoint(2**31 - 2, 2**31 - 1), TorusPoint(5, 7**20)])
@pytest.mark.parametrize("c, o", [(2, 3), (3, 2)])
@pytest.mark.parametrize("N", [1, 33, 1000])
def test_invariance_row_is_row_zero_of_the_first_block(x, c, o, N):
    # orbit_residues' first row is the running products of o, on the int64 and big-integer paths
    row = _running_products(x.num, o, x.den, N)
    block_row = next(orbit_residues(x, c, o, N))[0]
    assert block_row.dtype == (np.int64 if x.den < 2**31 else object)
    assert row == block_row.tolist()


def test_semiequidist_stuck_orbit():
    rep = semiequidist_profile(
        TorusPoint(0, 1), 2, 3, (Fraction(2, 5), Fraction(3, 5)), [10, 20, 40], 0.5
    )
    assert rep.ratios == [0.0, 0.0, 0.0]
    assert not rep.verdict


def test_semiequidist_interval_containing_fixed_point():
    rep = semiequidist_profile(
        TorusPoint(0, 1), 2, 3, (Fraction(-1, 10), Fraction(1, 10)), [10, 20], 1.0
    )
    assert rep.ratios == [1.0, 1.0]
    assert rep.verdict


def test_semiequidist_full_circle_ratio_one():
    rep = semiequidist_profile(
        TorusPoint(3, 17), 2, 3, (Fraction(0), Fraction(1)), [5, 10], 0.5
    )
    assert rep.ratios == [1.0, 1.0]


def test_semiequidist_rejects_bad_input():
    with pytest.raises(ValueError):
        semiequidist_profile(TorusPoint(0, 1), 2, 3, (0, Fraction(1, 2)), [], 0.5)
    with pytest.raises(ValueError):
        semiequidist_profile(TorusPoint(0, 1), 2, 3, (0, Fraction(1, 2)), [10], 1.5)


# 5739^2 + 93^2 + 5^2 + 2^2 + 1^2 + 8129^2 + ... + 8192^2 = 2^32; a repeat reads no more cells.
AT_COUNT_LIMIT = [1, 2, 5, 93, 5739, *range(8129, 8193), 8192]


class NoGrid(Exception):
    pass


def no_grid(*args):
    raise NoGrid


@pytest.mark.parametrize("horizons, rejected", [(AT_COUNT_LIMIT, False), (sorted(AT_COUNT_LIMIT + [3]), True)])
def test_semiequidist_bounds_the_counted_cells_before_any_grid(monkeypatch, horizons, rejected):
    monkeypatch.setattr(measures, "_residue_rows", no_grid)
    expected = pytest.raises(ValueError, match=f"--horizons would read {2**32 + 9} cells") if rejected else pytest.raises(NoGrid)
    with expected:
        semiequidist_profile(TorusPoint(1, 7), 2, 3, (0, Fraction(1, 2)), horizons, 0.5)


@pytest.mark.parametrize(
    "horizons, K, rejected",
    [(AT_COUNT_LIMIT, 1, False), (AT_COUNT_LIMIT, 2, True), ([8192, 8192], 64, False), ([8192, 8192], 65, True)],
)
def test_character_sums_bound_the_cell_powers_before_any_grid(monkeypatch, horizons, K, rejected):
    """K times h^2 over the distinct horizons may reach 2^32; past it no grid is made."""
    monkeypatch.setattr(measures, "_frac_rows", no_grid)
    powers = K * sum(h * h for h in set(horizons))
    assert (powers > 2**32) == rejected
    expected = pytest.raises(ValueError, match=f"-K {K} would sum {powers} cell powers") if rejected else pytest.raises(NoGrid)
    with expected:
        convergence_diagnostic(TorusPoint(1, 7), 2, 3, horizons, K)


@pytest.mark.parametrize("horizons", [[0, 5], [-3, 5], [0]])
def test_nonpositive_horizons_rejected(horizons):
    x = TorusPoint(1, 7)
    with pytest.raises(ValueError, match="horizons must be >= 1"):
        semiequidist_profile(x, 2, 3, (0, Fraction(1, 2)), horizons, 0.5)
    with pytest.raises(ValueError, match="horizons must be >= 1"):
        convergence_diagnostic(x, 2, 3, horizons, 2)


def test_convergence_diagnostic_fixed_point():
    dists = convergence_diagnostic(TorusPoint(0, 1), 2, 3, [5, 10, 20], 2)
    assert dists == pytest.approx([1.5, 1.5, 1.5])


def test_convergence_diagnostic_no_coefficients():
    assert convergence_diagnostic(TorusPoint(1, 7), 2, 3, [5, 10], 0) == [0.0, 0.0]


def test_convergence_diagnostic_rejects_negative_K(monkeypatch):
    """K < 0 has no coefficients to sum: it is refused before any grid, not reported as distance 0."""

    def no_grid(*args):
        raise AssertionError("a row source was made before K was checked")

    monkeypatch.setattr(measures, "_frac_rows", no_grid)
    with pytest.raises(ValueError, match=r"^K must be >= 0$"):
        convergence_diagnostic(TorusPoint(1, 7), 2, 3, [5], -2)


# int64 (periodic and aperiodic), big-integer rows and the base-6 digit path.
K0_POINTS = [TorusPoint(1, 7), TorusPoint(5, 1000003), TorusPoint(1, 2**61 - 1), point_of_word(random_word(6, 40, seed=3))]


@pytest.mark.parametrize("x", K0_POINTS)
def test_no_coefficients_build_no_grid(monkeypatch, x):
    """At K = 0 no float row source is made: the bins are those read beside K = 2, the distances 0."""
    weights = empirical_measure(x, 2, 3, 30, 7, 2).weights
    monkeypatch.setattr(measures, "_frac_rows", no_grid)
    mu = empirical_measure(x, 2, 3, 30, 7, 0)
    assert mu.weights == weights and mu.fourier == {0: 1}
    assert convergence_diagnostic(x, 2, 3, [30, 10, 30], 0) == [0.0, 0.0, 0.0]
    side = f"N = {torus.MAX_SIDE + 1} exceeds the grid side limit {torus.MAX_SIDE}"
    for a, b, N, message in ((2, 3, torus.MAX_SIDE + 1, side), (1, 3, 30, "a, b must be >= 2"), (2, 0, 30, "a, b must be >= 2")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            empirical_measure(x, a, b, N, 7, 0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            convergence_diagnostic(x, a, b, [5, N], 0)


def test_a_million_weights_sum_to_one():
    """sum() of these 2^20 weights is 1 + 6.4e-12, past the tolerance; their correctly rounded sum is 1."""
    mu = empirical_measure(TorusPoint(123456789, 1000000007), 2, 3, 999, 1 << 20, 0)
    assert len(mu.weights) == 1 << 20 and abs(sum(mu.weights) - 1.0) > 1e-12
    assert math.fsum(mu.weights) == 1.0


def test_weights_that_miss_one_are_refused():
    with pytest.raises(ValueError, match=r"^weights sum to 0\.9, not 1$"):
        EmpiricalMeasure(d=2, weights=(0.5, 0.4), fourier={0: 1}, N=1)


def test_fourier_data_off_the_unit_disc_is_refused():
    with pytest.raises(ValueError, match=r"^fourier\[0\] must be exactly 1$"):
        EmpiricalMeasure(d=1, weights=(1.0,), fourier={0: 0.5}, N=1)
    with pytest.raises(ValueError, match=r"^\|fourier\[1\]\| > 1$"):
        EmpiricalMeasure(d=1, weights=(1.0,), fourier={0: 1, 1: 1.5j, -1: -1.5j}, N=1)


def test_invariance_defect_refuses_k_zero_and_unknown_maps():
    x = TorusPoint(3, 7)
    with pytest.raises(ValueError, match="^k must be nonzero$"):
        invariance_defect(x, 2, 3, 10, 0, "a")
    with pytest.raises(ValueError, match="^map_choice must be 'a' or 'b'$"):
        invariance_defect(x, 2, 3, 10, 1, "c")


def test_semiequidist_profile_refuses_descending_horizons_and_empty_intervals():
    x = TorusPoint(3, 7)
    with pytest.raises(ValueError, match="^horizons must be ascending$"):
        semiequidist_profile(x, 2, 3, (Fraction(1, 4), Fraction(1, 2)), [20, 10], 0.5)
    with pytest.raises(ValueError, match="^empty interval$"):
        semiequidist_profile(x, 2, 3, (Fraction(1, 2), Fraction(1, 2)), [10, 20], 0.5)


def inside_reference(y: Fraction, lo: Fraction, hi: Fraction) -> bool:
    """y + k in the open interval (lo, hi) for some integer k, or the interval covers the circle."""
    return hi - lo >= 1 or any(lo < y + k < hi for k in range(math.floor(lo) - 1, math.ceil(hi) + 2))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10**12), st.sampled_from([1000003, 2**31 - 1, 6**30, 2**61 - 1]),
    st.integers(1, 24), st.integers(1, 8), st.data(),
)
def test_semiequidist_counts_match_fraction_reference(k, den, N, R, data):
    """Each horizon's count over its corner m, n < h, in R-row blocks, equals a count of exact points.

    The horizons repeat and one of them ends on a block edge; den = 6^30
    is a digit-path point of orbit_fracs, 2^61 - 1 a big-integer one.
    """
    x = TorusPoint(6 * k + 1, den)
    R = min(R, N)
    edge = data.draw(st.sampled_from(range(R, N + 1, R)))
    horizons = sorted(data.draw(st.lists(st.integers(1, N), max_size=4)) + [edge, edge, N])
    lo = data.draw(st.fractions(-2, 2, max_denominator=40))
    hi = lo + data.draw(st.fractions(0, 3, max_denominator=40).filter(lambda t: t > 0))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_BLOCK_CELLS", R * N)
        ratios = semiequidist_profile(x, 2, 3, (lo, hi), horizons, 0.5).ratios
    inside = [[inside_reference(Fraction(r, x.den), lo, hi) for r in row] for row in exact_residues(x, 2, 3, N)]
    assert ratios == [sum(sum(row[:h]) for row in inside[:h]) / h**2 for h in horizons]


def test_convergence_diagnostic_unsorted_horizons():
    x = TorusPoint(3, 1000003)
    assert convergence_diagnostic(x, 2, 3, [40, 10, 25], 3) == [
        convergence_diagnostic(x, 2, 3, [N], 3)[0] for N in (40, 10, 25)
    ]


def test_convergence_diagnostic_unsorted_horizons_over_many_blocks(monkeypatch):
    """Blocks of 5 rows: each horizon spans 2 to 8 blocks and its total reads only its own row sums."""
    x, horizons = TorusPoint(3, 1000003), [40, 10, 25, 10]
    one_block = [convergence_diagnostic(x, 2, 3, [N], 3)[0] for N in horizons]
    monkeypatch.setattr(torus, "_BLOCK_CELLS", 5 * 40)
    assert convergence_diagnostic(x, 2, 3, horizons, 3) == one_block
    assert [convergence_diagnostic(x, 2, 3, [N], 3)[0] for N in horizons] == one_block


def exact_phase_sum(residues, den, k):
    """sum e^(2 pi i (k r mod den) / den), each phase reduced exactly before it is rounded."""
    phases = [tau * (k * r % den / den) for r in residues]
    return complex(math.fsum(map(math.cos, phases)), math.fsum(map(math.sin, phases)))


@settings(max_examples=40, deadline=None)
@given(
    st.integers(1, 2**70), st.sampled_from([1000003, 2**31 - 1, 2**61 - 1, 6**30]),
    st.integers(1, 30), st.lists(st.integers(1, 30), min_size=1, max_size=3), st.integers(-16, 16),
)
def test_character_sums_match_exact_phases(num, den, N, horizons, k):
    """int64, big-integer and digit-automaton points: every Fourier output within 1e-13."""
    x, K = TorusPoint(num, den), 6
    grid = exact_residues(x, 2, 3, N)
    cells = [r for row in grid for r in row]
    assert abs(fourier_average(x, 2, 3, N, k) - exact_phase_sum(cells, x.den, k) / N**2) < 1e-13
    mu = empirical_measure(x, 2, 3, N, 4, K)
    for j in range(1, K + 1):
        assert abs(mu.fourier[j] - exact_phase_sum(cells, x.den, j) / N**2) < 1e-13
    top = max(horizons)
    grid = exact_residues(x, 2, 3, top)
    for h, got in zip(horizons, convergence_diagnostic(x, 2, 3, horizons, K)):
        corner = [r for row in grid[:h] for r in row[:h]]
        want = sum(2.0 ** (1 - j) * abs(exact_phase_sum(corner, x.den, j)) / h**2 for j in range(1, K + 1))
        assert abs(got - want) < 1e-13


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2), (2, 4), (4, 2)]),
    st.sampled_from(["periodic", "int64", "object", "digit"]),
    st.integers(1, 2**70),
    st.integers(1, 20),
    st.lists(st.integers(1, 12), min_size=1, max_size=3),
    st.integers(1, 3),
)
def test_shifted_character_sums_match_exact_phases(pair, path, num, K, horizons, threads):
    """Plane j = u a^alpha b^beta is plane u read from row alpha and column beta: each sum within 1e-13 per cell of the exact phases.

    K <= 20 shifts by up to 4 rows or columns, past horizons as small as 1.
    The rows of den 7 repeat with period 3 or 6, so the shifted rows wrap
    the `_row_period`; the other paths are int64, big-integer and the
    base-ab digit automaton.  Blocks of 1-2 rows run on 1-3 threads.
    """
    a, b = pair
    x = TorusPoint(num, {"periodic": 7, "int64": 1000003, "object": 3**40 + 2, "digit": (a * b) ** 20}[path])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_THREADS", threads)
        mp.setattr(torus, "_BLOCK_CELLS", 16)
        mp.setattr(torus, "_pool", None)
        try:
            got = measures._character_sums(x, a, b, horizons, K)
        finally:
            if torus._pool is not None:
                torus._pool.shutdown()
    for i, h in enumerate(horizons):
        corner = [r for row in exact_residues(x, a, b, h) for r in row]
        for j in range(1, K + 1):
            assert abs(got[j - 1, i] - exact_phase_sum(corner, x.den, j)) < 1e-13 * h * h, (j, h)


@pytest.mark.parametrize("x", [TorusPoint(1, 7), point_of_word(random_word(6, 40, seed=3))])
@pytest.mark.parametrize("K", [2, 16])
def test_shift_margin_is_not_a_grid_side_before_any_grid(monkeypatch, x, K):
    """At N = MAX_SIDE, K >= 2 reads rows and columns past N, and every check passes up to the first grid work."""
    monkeypatch.setattr(torus, "_power_column", no_grid)  # the int64 rows' first work
    monkeypatch.setattr(torus, "_digit_fracs", no_grid)
    N = torus.MAX_SIDE
    with pytest.raises(NoGrid):
        empirical_measure(x, 2, 3, N, 7, K)
    with pytest.raises(NoGrid):
        convergence_diagnostic(x, 2, 3, [5, N], K)
    with pytest.raises(ValueError, match=f"^N = {N + 1} exceeds the grid side limit {N}$"):
        convergence_diagnostic(x, 2, 3, [5, N + 1], K)


def test_fourier_average_reduces_k_mod_den_before_the_phase():
    """k = 123456789012345678901 is -250369 mod 1000003; each cell is then within
    (6.5 + 2 pi |k'|) 2^-53 of e(k' f), and f within 2^-53 of r / den."""
    x, N, k = TorusPoint(3, 1000003), 50, 123456789012345678901
    cells = [r for row in exact_residues(x, 2, 3, N) for r in row]
    got = fourier_average(x, 2, 3, N, k)
    assert got == fourier_average(x, 2, 3, N, -250369)
    assert abs(got - exact_phase_sum(cells, x.den, k) / N**2) < (6.5 + 4 * math.pi * 250369) * 2.0**-53 + 1e-15


def test_phase_limit_is_announced_before_any_grid(monkeypatch):
    """|k mod den| < 2^42 keeps the table indices exact; only den > 2^43 can break it."""
    def no_grid(*args):
        raise AssertionError("a row source was made before the limit was checked")

    monkeypatch.setattr(measures, "_frac_rows", no_grid)
    x = TorusPoint(3, 2**61 - 1)
    for k in (2**42, -(2**42), 2**42 + 7 * x.den):
        with pytest.raises(ValueError, match=r"^-K -?\d+ is -?4398046511104 mod the denominator 2305843009213693951: "):
            fourier_average(x, 2, 3, 5, k)
    with pytest.raises(ValueError, match=r"^-K 4398046511104 is "):
        invariance_defect(x, 2, 3, 5, 2**42)
    assert measures._frequency(2**42 - 1, x.den) == 2**42 - 1
    assert measures._frequency(x.den - 2**42 + 1, x.den) == -(2**42) + 1


def test_turn_tables_are_correctly_rounded():
    """T1[i] = e(i / 2^11) and T2[i] = e(i / 2^22), each component the double nearest a 40-digit value."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for table, bits in ((measures._T1, 11), (measures._T2, 22)):
            assert table.shape == (2**11,)
            for i, z in enumerate(table.tolist()):
                exact = mpmath.expjpi(mpmath.mpf(i) / 2 ** (bits - 1))
                assert z == complex(float(exact.real), float(exact.imag)), (bits, i)


def _near(f: float) -> st.SearchStrategy:
    """f and its two neighbouring doubles, kept in [0, 1]."""
    return st.sampled_from([f, min(1.0, math.nextafter(f, 2.0)), max(0.0, math.nextafter(f, -1.0))])


PHASE_CELLS = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, math.nextafter(1.0, 0.0), 1.0]),
    st.integers(0, 2**11).flatmap(lambda i: _near(i / 2**11)),  # T1 boundaries
    st.integers(0, 2**22).flatmap(lambda i: _near(i / 2**22)),  # T2 boundaries
)


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(st.sampled_from([0, 1, -1, 7, -7, 15, -15, 2**41, -(2**41)]), st.integers(-(2**42) + 1, 2**42 - 1)),
    st.lists(PHASE_CELLS, min_size=1, max_size=8),
)
def test_phases_are_within_the_stated_ulps(k, cells):
    """Each cell of `_phases` is within (6.5 + 2 pi |k|) 2^-53 of the 40-digit e(k f) of its exact double f."""
    mpmath = pytest.importorskip("mpmath")
    got = measures._phases(np.array(cells), k).tolist()
    with mpmath.workdps(40):
        for f, z in zip(cells, got):
            err = abs(mpmath.mpc(z) - mpmath.expjpi(2 * k * mpmath.mpf(f)))
            assert err <= (6.5 + 2 * math.pi * abs(k)) * 2.0**-53, (k, f)


def test_character_sum_limit_is_announced_before_any_grid(monkeypatch):
    """K * len(horizons) <= MAX_SUMS holds at equality; one more is refused before any float row is made."""
    x = TorusPoint(1, 7)
    assert len(convergence_diagnostic(x, 2, 3, [3, 2], measures.MAX_SUMS // 2)) == 2

    def no_grid(*args):
        raise AssertionError("a row source was made before the limit was checked")

    monkeypatch.setattr(measures, "_frac_rows", no_grid)
    with pytest.raises(ValueError, match=r"^K = 2049 exceeds the Fourier limit 2048 \(K \* horizons <= 4096\)$"):
        convergence_diagnostic(x, 2, 3, [3, 2], measures.MAX_SUMS // 2 + 1)
    with pytest.raises(ValueError, match=r"^K = 4097 exceeds the Fourier limit 4096 "):
        empirical_measure(x, 2, 3, 3, 2, measures.MAX_SUMS + 1)


def test_convergence_diagnostic_random_digits():
    x = point_of_word(random_word(6, 4000, seed=42))
    dists = convergence_diagnostic(x, 2, 3, [50, 100, 150, 200], 8)
    assert dists[-1] < 0.1


def test_matches_empirical_fourier():
    x = TorusPoint(4, 31)
    mu = empirical_measure(x, 2, 3, 7, 5, 3)
    for k in (1, 2, 3):
        assert mu.fourier[k] == pytest.approx(fourier_average(x, 2, 3, 7, k), abs=1e-14)
        assert mu.fourier[-k] == pytest.approx(mu.fourier[k].conjugate())


def reference_fourier(x, a, b, N, k):
    return np.exp(1j * k * 2 * np.pi * orbit_fracs(x, a, b, N))


@pytest.mark.parametrize(
    "x",
    [TorusPoint(3, 1000003), point_of_word(random_word(6, 300, seed=7)), TorusPoint(5, 7**20)],
)
def test_shared_character_sums_match_per_k_exp(x):
    # int64, digit-automaton and big-integer orbit paths
    K, horizons = 16, [60, 15, 37]
    mu = empirical_measure(x, 2, 3, 60, 5, K)
    dists = convergence_diagnostic(x, 2, 3, horizons, K)
    ref = [0.0] * len(horizons)
    for k in range(1, K + 1):
        z = reference_fourier(x, 2, 3, 60, k)
        assert abs(mu.fourier[k] - z.mean()) < 1e-12
        prefix = z.cumsum(axis=0).cumsum(axis=1)
        for i, N in enumerate(horizons):
            ref[i] += 2.0 ** (1 - k) * abs(prefix[N - 1, N - 1]) / N**2
    assert max(abs(d - r) for d, r in zip(dists, ref)) < 1e-12


@pytest.mark.parametrize(
    "x",
    [TorusPoint(3, 1000003), point_of_word(random_word(6, 300, seed=7)), TorusPoint(5, 7**20)],
)
@pytest.mark.parametrize("K", [1, 4])
def test_convergence_diagnostic_is_weak_star_distance_of_empirical_measure(x, K):
    # int64, digit-automaton and big-integer points: the corner sums of one grid
    # against a separate empirical measure per horizon
    horizons, d = [1, 7, 20, 33], 5
    dists = convergence_diagnostic(x, 2, 3, horizons, K)
    for N, got in zip(horizons, dists):
        mu = empirical_measure(x, 2, 3, N, d, K)
        assert abs(got - lebesgue_distance(mu)) < 1e-12


def _moebius(n: int) -> int:
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _totient(n: int) -> int:
    return sum(1 for u in range(1, n + 1) if math.gcd(u, n) == 1)


def _order(c: int, q: int) -> int:
    n, z = 1, c % q
    while z != 1:
        z, n = z * c % q, n + 1
    return n


def _generated(gens: tuple[int, ...], q: int) -> set[int]:
    """The subgroup of (Z/q)^x that gens generate, by closure under multiplication."""
    seen, todo = {1}, [1]
    while todo:
        u = todo.pop()
        for g in gens:
            v = u * g % q
            if v not in seen:
                seen.add(v)
                todo.append(v)
    return seen


@pytest.mark.parametrize(
    "q, p, k, N, want",
    [
        (7, 1, 1, 6, Fraction(-1, 6)),
        (35, 1, 7, 12, Fraction(-1, 4)),
        (5, 1, 2, 4, Fraction(-1, 4)),
        (11, 4, -3, 10, Fraction(-1, 10)),
        (13, 5, 3, 12, Fraction(-1, 12)),
        (25, 2, 5, 20, Fraction(-1, 4)),
        (25, 1, 1, 40, Fraction(0)),
        (49, 3, 7, 42, Fraction(-1, 6)),
        (49, 1, 49, 42, Fraction(1)),
        (77, 2, 11, 30, Fraction(-1, 6)),
        (91, 1, 1, 12, Fraction(1, 72)),
        # k reduced mod q first: k tau f at these k keeps no bit of the phase
        (7, 1, 1 + 7 * 10**30, 6, Fraction(-1, 6)),
        (11, 4, -3 - 11 * 10**25, 10, Fraction(-1, 10)),
        (49, 1, 49 * 10**20, 42, Fraction(1)),
    ],
)
def test_fourier_average_is_exact_ramanujan_sum(q, p, k, N, want):
    """With <2, 3> = (Z/q)^x and ord_q(2), ord_q(3) | N, (m, n) -> 2^m 3^n covers the
    units uniformly, so the average of e(k 2^m 3^n p/q) is c_q(kp)/phi(q) = mu(g)/phi(g)
    with g = q/gcd(q, kp)."""
    a, b = 2, 3
    assert math.gcd(q, a * b) == 1 and math.gcd(p, q) == 1
    assert N % _order(a, q) == 0 and N % _order(b, q) == 0
    assert _generated((a, b), q) == {u for u in range(1, q) if math.gcd(u, q) == 1}
    g = q // math.gcd(q, k * p)
    assert Fraction(_moebius(g), _totient(g)) == want
    c = fourier_average(TorusPoint(p, q), a, b, N, k)
    assert abs(c - float(want)) <= 1e-14
