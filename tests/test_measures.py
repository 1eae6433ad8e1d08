import math
import random
from fractions import Fraction

import numpy as np
import pytest

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
from abtorus.torus import _running_products
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
    # the row invariance_defect reads without building a block, on the int64 and big-integer paths
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


def test_convergence_diagnostic_unsorted_horizons():
    x = TorusPoint(3, 1000003)
    assert convergence_diagnostic(x, 2, 3, [40, 10, 25], 3) == [
        convergence_diagnostic(x, 2, 3, [N], 3)[0] for N in (40, 10, 25)
    ]


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
