"""End-to-end acceptance checks. Each test prints one PASS/FAIL line.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines alongside the pytest verdicts.
"""
import itertools
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

from abtorus import (
    MoranStructure,
    TorusPoint,
    box_counting_estimate,
    count_R,
    dist,
    entropy,
    invariance_defect,
    itinerary_choices,
    kt_bound,
    moran_dims,
    orbit_grid,
    q_bound,
    realize_intervals,
    semiequidist_profile,
)


def _report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f" -- {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_1_exact_orbit_oracle():
    start = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(100):
        x = TorusPoint(rng.randrange(10**6), rng.randrange(1, 10**6))
        a = rng.choice([2, 3, 5, 6])
        b = rng.choice([2, 3, 5, 6])
        grid = orbit_grid(x, a, b, 50)
        ym = x
        for m in range(50):
            y = ym
            for n in range(50):
                if grid[m][n] != y:
                    ok = False
                y = TorusPoint(b * y.num, y.den)
            ym = TorusPoint(a * ym.num, ym.den)
        if not ok:
            break
    elapsed = time.monotonic() - start
    _report(
        "criterion 1: orbit grid == iterated maps (100 seeded cases, N=50)",
        ok and elapsed < 5.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_invariance_defect_bound():
    start = time.monotonic()
    rng = random.Random(202)
    worst = 0.0
    ok = True
    for _ in range(50):
        x = TorusPoint(rng.randrange(10**6), rng.randrange(1, 10**6))
        k = rng.randrange(1, 6)
        for N in (10, 50, 200):
            for which in ("a", "b"):
                d = invariance_defect(x, 2, 3, N, k, which)
                worst = max(worst, d * N / 2.0)
                if d > 2.0 / N:
                    ok = False
    elapsed = time.monotonic() - start
    _report(
        "criterion 2: invariance defect <= 2/N (50 seeded pairs, N in {10,50,200})",
        ok and elapsed < 10.0,
        f"worst defect*N/2 = {worst:.4f}, {elapsed:.2f}s",
    )


def test_criterion_3_moran_dimensions_and_box_counting():
    start = time.monotonic()
    thirds = MoranStructure.parse("n=2;c=1/3 periodic")
    dims_a = moran_dims(thirds, 20)
    want_a = math.log(2) / math.log(3)
    ok = abs(dims_a.s1 - want_a) < 1e-12 and abs(dims_a.s2 - want_a) < 1e-12

    alt = MoranStructure.parse("n=2,4;c=1/4 periodic")
    dims_b = moran_dims(alt, 20)
    ok = ok and abs(dims_b.s1 - 0.75) < 1e-12 and abs(dims_b.s2 - 0.75) < 1e-12

    est_a = box_counting_estimate(
        realize_intervals(thirds, 10), [Fraction(1, 3**j) for j in range(4, 10)]
    )
    est_b = box_counting_estimate(
        realize_intervals(alt, 10), [Fraction(1, 4**j) for j in range(3, 9)]
    )
    ok = ok and abs(est_a - want_a) < 0.05 and abs(est_b - 0.75) < 0.05
    elapsed = time.monotonic() - start
    _report(
        "criterion 3: Moran dimension formulas and depth-10 box counting",
        ok and elapsed < 30.0,
        f"s=log2/log3 & 3/4 exact; box {est_a:.4f}/{est_b:.4f}, {elapsed:.2f}s",
    )


def _brute_counts(k, N, ts):
    """|R(k, N, t)| for each t in ts, from one enumeration of the k^N words."""
    totals = [0] * len(ts)
    for word in itertools.product(range(1, k + 1), repeat=N):
        counts = Counter(word)
        h = -sum(c / N * math.log(c / N) for c in counts.values())
        for i, t in enumerate(ts):
            if h <= t + 1e-12:
                totals[i] += 1
    return totals


def test_criterion_4_type_counting():
    start = time.monotonic()
    ok = True
    for k in (1, 2, 3):
        for N in range(1, 13):
            ts = [0.0, 0.3, 0.5] + ([math.log(k)] if k > 1 else [])
            if [count_R(k, N, t) for t in ts] != _brute_counts(k, N, ts):
                ok = False
    worst_slack = -1.0
    for N in range(1, 2001):
        v = math.log(count_R(2, N, 0.5)) / N
        slack = 0.5 + 2 * math.log(N + 1) / N - v
        worst_slack = slack if worst_slack < 0 else min(worst_slack, slack)
        if v > 0.5 + 2 * math.log(N + 1) / N:
            ok = False
    elapsed = time.monotonic() - start
    _report(
        "criterion 4: count_R == brute force (k<=3, N<=12) and finite-N growth bound (N<=2000)",
        ok and elapsed < 60.0,
        f"min bound slack {worst_slack:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_bound_formula_identity():
    start = time.monotonic()
    worst = 0.0
    for a, b in [(2, 3), (3, 2), (2, 5)]:
        top = min(math.log(a), math.log(b))
        for i in range(1, 101):
            t = top * i / 101.0
            worst = max(worst, abs(kt_bound(a, b, t * t / math.log(b)) - q_bound(a, t)))
    ok = worst < 1e-12
    t_star = math.log(2) ** 2 / math.log(3)  # below log 3: the admissible range ends here
    limit_gap = abs(kt_bound(2, 3, t_star * (1 - 1e-12)) - 1.0)
    ok = ok and limit_gap < 1e-9
    elapsed = time.monotonic() - start
    _report(
        "criterion 5: substitution identity on 100-point grids and endpoint limit 1",
        ok and elapsed < 1.0,
        f"max identity gap {worst:.2e}, endpoint gap {limit_gap:.2e}, {elapsed:.2f}s",
    )


def test_criterion_6_irregular_synthesis(report_d2):
    start = time.monotonic()
    rep = report_d2
    ok = rep.passed and len(rep.levels) == 2
    margins = []
    for k, lc in enumerate(rep.levels, start=1):
        ok = ok and len(lc.deviation_margins) == k
        ok = ok and all(m > 0 for m in lc.deviation_margins)
        margins.extend(lc.deviation_margins)
    bump = rep.levels[-1]
    ok = ok and bump.bump_threshold == pytest.approx(0.125)
    ok = ok and bump.bump_average > 0.125 and bump.bump_margin > 0
    elapsed = time.monotonic() - start
    _report(
        "criterion 6: synthesized point passes both irregularity checks (a=2,b=3,r=1/2,depth 2,seed 0)",
        ok,
        f"min (A) margin {min(margins):.4f}, (B) average {bump.bump_average:.4f} > 0.125, "
        f"+{elapsed:.2f}s after shared pipeline",
    )


def _next_prime(n):
    def is_prime(m):
        if m < 2:
            return False
        for p in range(2, int(math.isqrt(m)) + 1):
            if m % p == 0:
                return False
        return True

    while not is_prime(n):
        n += 1
    return n


def test_criterion_7_semiequidistribution():
    start = time.monotonic()
    rng = random.Random(707)
    q = _next_prime(10**5 + rng.randrange(1000))
    x = TorusPoint(rng.randrange(1, q), q)
    U = (Fraction(0), Fraction(1, 2))
    rep = semiequidist_profile(x, 2, 3, U, [75, 150, 225, 300], 0.9)
    ratio = rep.ratios[-1]
    ok = abs(ratio - 0.5) < 0.05 and rep.verdict

    stuck = semiequidist_profile(
        TorusPoint(0, 1), 2, 3, (Fraction(1, 4), Fraction(3, 4)), [75, 150, 300], 0.9
    )
    ok = ok and stuck.ratios == [0.0, 0.0, 0.0] and not stuck.verdict
    elapsed = time.monotonic() - start
    _report(
        "criterion 7: generic rational near-equidistributes on (0,1/2); fixed point fails",
        ok and elapsed < 30.0,
        f"q={q}, ratio at N=300 = {ratio:.4f}, {elapsed:.2f}s",
    )


def test_criterion_8_entropy_toolkit():
    start = time.monotonic()
    rng = random.Random(808)
    ok = True
    for _ in range(1000):
        raw_p = [rng.random() + 1e-6 for _ in range(3)]
        raw_q = [rng.random() + 1e-6 for _ in range(3)]
        p = [v / sum(raw_p) for v in raw_p]
        qv = [v / sum(raw_q) for v in raw_q]
        lam = rng.random()
        mix = [lam * a + (1 - lam) * b for a, b in zip(p, qv)]
        if entropy(mix) < lam * entropy(p) + (1 - lam) * entropy(qv) - 1e-12:
            ok = False
    for _ in range(1000):
        k = rng.randrange(2, 5)
        c1 = [rng.randrange(1, k + 1) for _ in range(rng.randrange(1, 10))]
        c2 = [rng.randrange(1, k + 1) for _ in range(rng.randrange(1, 10))]
        n1, n2 = len(c1), len(c2)
        expect = tuple(
            (n1 * a + n2 * b) / (n1 + n2) for a, b in zip(dist(c1, k), dist(c2, k))
        )
        if dist(c1 + c2, k) != expect:
            ok = False
    for M in range(1, 9):
        if entropy(itinerary_choices(TorusPoint(0, 1), 2, 2, M, 30).q) / M != 0.0:
            ok = False
    elapsed = time.monotonic() - start
    _report(
        "criterion 8: entropy concavity, concatenation identity, zero-entropy fixed point",
        ok and elapsed < 10.0,
        f"{elapsed:.2f}s",
    )
