import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abtorus import (
    TorusPoint,
    count_R,
    dist,
    entropy,
    growth_profile,
    itinerary_choices,
    kt_bound,
    point_of_word,
    q_bound,
)
from references import walk_count_R
from words import random_word
from abtorus import typecount
from abtorus.typecount import ENTROPY_TOL


def brute_count_R(k, N, t):
    """Independent oracle: enumerate all k^N words."""
    total = 0
    for word in itertools.product(range(1, k + 1), repeat=N):
        counts = Counter(word)
        h = -sum(c / N * math.log(c / N) for c in counts.values())
        if h <= t + 1e-12:
            total += 1
    return total


def _compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def composition_count_R(k, N, t):
    """Reference: the multinomial of every composition of N into k parts
    (ordered counts, zeros allowed) whose entropy is at most t. It sums c log c
    over the counts in non-increasing order, as count_R does, so the two
    compare the same float with t."""
    total = 0
    for comp in _compositions(N, k):
        s = 0.0
        for c in sorted(comp, reverse=True):
            if c:
                s += c * math.log(c)
        if math.log(N) - s / N <= t + ENTROPY_TOL:
            total += math.factorial(N) // math.prod(math.factorial(c) for c in comp)
    return total


def test_entropy_examples():
    assert entropy([0.25] * 4) == pytest.approx(math.log(4), abs=1e-12)
    assert entropy([1.0, 0.0, 0.0]) == 0.0
    for point_mass in ([1.0], [0.0, 1.0], [Fraction(1), Fraction(0)]):
        assert math.copysign(1.0, entropy(point_mass)) == 1.0  # +0.0, not -0.0
    assert entropy([0.5, 0.25, 0.25]) == pytest.approx(1.5 * math.log(2), abs=1e-12)


@settings(max_examples=200)
@given(
    st.integers(2, 6),
    st.floats(0.0, 1.0),
    st.data(),
)
def test_entropy_concavity(k, lam, data):
    raw_p = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    raw_q = data.draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    p = [v / sum(raw_p) for v in raw_p]
    q = [v / sum(raw_q) for v in raw_q]
    mix = [lam * a + (1 - lam) * b for a, b in zip(p, q)]
    assert entropy(mix) >= lam * entropy(p) + (1 - lam) * entropy(q) - 1e-12


def test_dist_examples():
    assert dist((1, 1, 2), 2) == (Fraction(2, 3), Fraction(1, 3))
    assert dist((3, 3, 3), 3) == (0, 0, 1)
    with pytest.raises(ValueError):
        dist((), 2)


def test_dist_refuses_a_symbol_outside_the_alphabet():
    with pytest.raises(ValueError, match=r"^symbol 3 outside 1\.\.2$"):
        dist((1, 3), 2)
    with pytest.raises(ValueError, match=r"^symbol 0 outside 1\.\.2$"):
        dist((0,), 2)
    with pytest.raises(ValueError, match=r"^symbol 5 outside 1\.\.3$"):  # the first bad symbol, not the extreme 0
        dist((2, 5, 0), 3)
    with pytest.raises(ValueError, match=rf"^symbol {2**70} outside 1\.\.2$"):  # beyond int64
        dist((1, 2**70), 2)


def test_dist_concatenation_identity():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randrange(2, 5)
        c1 = [rng.randrange(1, k + 1) for _ in range(rng.randrange(1, 12))]
        c2 = [rng.randrange(1, k + 1) for _ in range(rng.randrange(1, 12))]
        n1, n2 = len(c1), len(c2)
        joined = dist(c1 + c2, k)
        p1, p2 = dist(c1, k), dist(c2, k)
        weighted = tuple(
            (Fraction(n1) * a + Fraction(n2) * b) / (n1 + n2)
            for a, b in zip(p1, p2)
        )
        assert joined == weighted


def test_count_R_examples():
    assert count_R(2, 2, 0.0) == 2
    assert count_R(2, 3, 0.64) == 8
    assert count_R(2, 3, 0.5) == 2
    assert count_R(60, 60, 0.1) == 212460  # types (60) and (59, 1): 60 + 60 * 60 * 59 words


def test_count_R_extremes():
    for k, N in [(2, 6), (3, 5)]:
        assert count_R(k, N, math.log(k)) == k**N
        assert count_R(k, N, 0.0) == k


def test_count_R_monotone_in_t():
    prev = 0
    for t in (0.0, 0.2, 0.4, 0.6, math.log(2)):
        cur = count_R(2, 9, t)
        assert cur >= prev
        prev = cur


def test_count_R_against_brute_force():
    for k in (1, 2, 3):
        for N in (1, 3, 5, 8):
            for t in (0.0, 0.3, 0.5, math.log(k) if k > 1 else 0.1):
                assert count_R(k, N, t) == brute_count_R(k, N, t)


@settings(max_examples=225, deadline=None)
@given(st.integers(1, 6), st.integers(1, 25), st.data())
def test_count_R_matches_composition_sum(k, N, data):
    kind = data.draw(st.sampled_from(["tie", "small", "any"]), label="kind")
    if kind == "tie":
        # the threshold sits exactly on the entropy of a type class
        cuts = sorted(data.draw(st.lists(st.integers(0, N), min_size=k - 1, max_size=k - 1)))
        counts = [hi - lo for lo, hi in zip([0, *cuts], [*cuts, N])]
        t = max(0.0, math.log(N) - sum(c * math.log(c) for c in counts if c) / N)
    elif kind == "small":  # t <= 0.3 log k, where the walk's bound prunes most vectors
        t = data.draw(st.floats(0.0, 0.3)) * math.log(k)
    else:
        t = data.draw(st.floats(0.0, math.log(k) + 0.1))
    assert count_R(k, N, t) == composition_count_R(k, N, t)


@pytest.mark.parametrize("k", [2, 3])
def test_count_R_keeps_types_on_the_threshold_to_the_last_ulp(k):
    """t + ENTROPY_TOL within 2 ulps of a type's entropy, where float rounding decides
    the leaf test: the walk's bound must keep every vector that test accepts."""
    for N in range(1, 17):
        for counts in {tuple(sorted(comp, reverse=True)) for comp in _compositions(N, k)}:
            s = 0.0
            for c in counts:
                if c:
                    s += c * math.log(c)
            t = math.log(N) - s / N - ENTROPY_TOL
            for step in (-2, -1, 0, 1, 2):
                u = t
                for _ in range(abs(step)):
                    u = math.nextafter(u, math.copysign(math.inf, step))
                if u >= 0:
                    assert count_R(k, N, u) == composition_count_R(k, N, u), (N, counts, step)


@pytest.mark.parametrize("k, N, t, limit", [(60, 60, 0.1, 16), (3, 600, 0.72 * math.log(3), 12000)])
def test_count_R_walk_stays_under_its_pruned_visit_count(monkeypatch, k, N, t, limit):
    """Limits just above the pruned walks' 3 and 11,310 visits; the full walks visit
    more than 2^20 and 30,701, so a walk without the prune fails on its count."""
    monkeypatch.setattr(typecount, "MAX_VISITS", limit)
    assert count_R(k, N, t) > 0


@settings(max_examples=150, deadline=None)
@given(st.integers(3, 6), st.integers(1, 400), st.data())
def test_count_R_windows_match_the_per_leaf_walk(k, N, data):
    """count_R against the per-leaf walk of `references.walk_count_R`: equal counts, and the
    same visits, so the cap raises one vector below them and passes at them. Walks past
    20,000 visits must raise in both. Thresholds are any t or a type's entropy within 2 ulps."""
    if data.draw(st.booleans(), label="tie"):
        cuts = sorted(data.draw(st.lists(st.integers(0, N), min_size=k - 1, max_size=k - 1)))
        s = 0.0
        for c in sorted((hi - lo for lo, hi in zip([0, *cuts], [*cuts, N])), reverse=True):
            if c:
                s += c * math.log(c)
        t = math.log(N) - s / N - ENTROPY_TOL
        step = data.draw(st.integers(-2, 2), label="ulps")
        for _ in range(abs(step)):
            t = math.nextafter(t, math.copysign(math.inf, step))
        t = max(t, 0.0)
    else:
        t = data.draw(st.floats(0.0, math.log(k) + 0.1))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(typecount, "MAX_VISITS", 20_000)
        try:
            want, visits = walk_count_R(k, N, t)
        except ValueError:
            with pytest.raises(ValueError, match="^count_R visits more than 20000 count vectors"):
                count_R(k, N, t)
            return
        assert count_R(k, N, t) == want
        mp.setattr(typecount, "MAX_VISITS", visits - 1)
        with pytest.raises(ValueError, match=f"^count_R visits more than {visits - 1} count vectors"):
            count_R(k, N, t)
        mp.setattr(typecount, "MAX_VISITS", visits)
        assert count_R(k, N, t) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60), st.data())
def test_slide_keeps_the_binomial_window_sum(n, data):
    """Random walks of `_slide` down to n = 1, each step n - 1 with lo and hi moved by up to
    two: windows from lo = 0 to hi = n + 1, and empty ones, against math.comb sums."""
    lo = data.draw(st.integers(0, n), label="lo")
    hi = data.draw(st.integers(lo + 1, n + 1), label="hi")
    W = sum(math.comb(n, j) for j in range(lo, hi))
    bl, bh = math.comb(n, lo), math.comb(n, hi - 1)
    moves = data.draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=n - 1, max_size=n - 1))
    for dlo, dhi in moves:
        n -= 1  # targets keep lo <= n and hi >= 1, so both boundary binomials stay nonzero
        lo2 = min(max(lo + dlo, 0), n)
        hi2 = min(max(hi + dhi, lo2, 1), n + 1)
        W, bl, bh = typecount._slide(n + 1, lo, hi, W, bl, bh, lo2, hi2)
        lo, hi = lo2, hi2
        assert (W, bl, bh) == (sum(math.comb(n, j) for j in range(lo, hi)), math.comb(n, lo), math.comb(n, hi - 1))


def test_count_R_alphabet_larger_than_length():
    assert count_R(1500, 2, 1.0) == 1500**2
    assert count_R(7, 3, 0.0) == 7
    assert count_R(7, 3, math.log(3)) == 7**3


@pytest.mark.parametrize("k, N, t", [(2, 5, math.nan), (2, 5, -0.1), (0, 5, 1.0), (2, 0, 1.0)])
def test_count_R_rejects_bad_arguments(k, N, t):
    with pytest.raises(ValueError, match="need k >= 1, N >= 1, t >= 0"):
        count_R(k, N, t)


def test_growth_profile():
    prof = growth_profile(2, math.log(2), [3, 5, 8])
    for N, v in prof:
        assert v == pytest.approx(math.log(2), abs=1e-12)
    prof = growth_profile(3, 0.0, [2, 4, 6])
    for N, v in prof:
        assert v == pytest.approx(math.log(3) / N, abs=1e-12)
    for N, v in growth_profile(2, 0.5, [10, 50, 200]):
        assert v <= 0.5 + 2 * math.log(N + 1) / N


def test_growth_profile_rejects_unsorted():
    with pytest.raises(ValueError):
        growth_profile(2, 0.5, [10, 5])


def test_itinerary_fixed_point():
    rec = itinerary_choices(TorusPoint(0, 1), 2, 3, 2, 6)
    assert len(set(rec.indices)) == 1
    assert entropy(rec.q) == 0.0


def test_itinerary_period_two():
    rec = itinerary_choices(TorusPoint(1, 3), 2, 2, 1, 4)
    assert rec.q == (Fraction(1, 2), Fraction(1, 2))
    assert entropy(rec.q) == pytest.approx(math.log(2), abs=1e-12)


def test_itinerary_decimation_identity():
    # q is the length-weighted average of the decimated subword distributions
    x = TorusPoint(5, 97)
    rec = itinerary_choices(x, 2, 2, 3, 12)
    total = [Fraction(0)] * len(rec.q)
    weight = Fraction(0)
    for l, sub in enumerate(rec.decimated):
        n_l = len(rec.indices[l :: 3])
        for i, v in enumerate(sub):
            total[i] += n_l * v
        weight += n_l
    assert tuple(v / weight for v in total) == rec.q
    # concavity consequence: some decimated subword has entropy <= H(q)
    assert min(entropy(s) for s in rec.decimated) <= entropy(rec.q) + 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 10**6), st.sampled_from([1, 7, 96, 2**31 - 1, 6**30 + 1]), st.integers(2, 12),
    st.integers(1, 5), st.integers(1, 10), st.integers(0, 30),
)
def test_itinerary_matches_iterated_maps(num, den, a, d, M, extra):
    """Labels read off the residues a^n num mod den equal M-digit labels of the exact T_a chain, and q and q_{M,l} their counts."""
    assume((M + 1) * d**M <= 1 << 12)  # the record holds that many Fractions
    x, N = TorusPoint(num, den), M + extra  # N >= M, so no decimated subword is empty
    pts = [x]
    for _ in range(N + M - 2):
        pts.append(TorusPoint(a * pts[-1].num, pts[-1].den))
    cyl = [p.num * d // p.den for p in pts]  # the depth-d cylinder index floor(d p)
    want = [1 + sum(cyl[n + i] * d ** (M - 1 - i) for i in range(M)) for n in range(N)]
    rec = itinerary_choices(x, a, d, M, N)
    assert list(rec.indices) == want

    def counts(word):
        return tuple(Fraction(word.count(s), len(word)) for s in range(1, d**M + 1))

    assert rec.q == counts(want)
    assert rec.decimated == tuple(counts(want[l::M]) for l in range(M))


def test_itinerary_rejects_multiplier_below_two():
    with pytest.raises(ValueError, match="a must be >= 2"):
        itinerary_choices(TorusPoint(1, 5), 1, 2, 2, 4)


def test_itinerary_alphabet_limit_holds_at_equality(monkeypatch):
    """(M + 1) d^M equal to the limit passes, one more symbol or step is rejected; d = 1 too."""
    monkeypatch.setattr(typecount, "MAX_CHOICES", 4 * 4**3)
    x = TorusPoint(1, 7)
    assert len(itinerary_choices(x, 2, 4, 3, 3).q) == 4**3
    assert len(itinerary_choices(x, 2, 1, 255, 255).q) == 1
    for d, M in [(5, 3), (4, 4), (1, 256)]:
        with pytest.raises(ValueError, match=f"exceeds the limit 256 at -d {d} -M {M}$"):
            itinerary_choices(x, 2, d, M, M)


def test_itinerary_length_limit_holds_at_equality(monkeypatch):
    monkeypatch.setattr(typecount, "MAX_POINTS", 10)
    x = TorusPoint(1, 7)
    assert len(itinerary_choices(x, 2, 2, 3, 10).indices) == 10
    with pytest.raises(ValueError, match="^N = 11 exceeds the itinerary limit 10$"):
        itinerary_choices(x, 2, 2, 3, 11)


def block_entropy(x, a, d, M, N):
    """H(q)/M: the finite-horizon per-step entropy of the itinerary."""
    return entropy(itinerary_choices(x, a, d, M, N).q) / M


def test_block_entropy_fixed_point():
    for M in range(1, 9):
        assert block_entropy(TorusPoint(0, 1), 2, 2, M, 20) == 0.0


def test_block_entropy_period_two():
    want = math.log(2) / 2
    assert block_entropy(TorusPoint(1, 3), 2, 2, 2, 400) == pytest.approx(want, abs=1e-2)


def test_block_entropy_random_digits():
    x = point_of_word(random_word(2, 4000, seed=3))
    est = block_entropy(x, 2, 2, 3, 3000)
    assert est == pytest.approx(math.log(2), abs=0.05)


def test_kt_bound_value():
    t = 0.1
    root = math.sqrt(math.log(3) * t)
    assert kt_bound(2, 3, t) == pytest.approx(2 * root / (math.log(2) + root), abs=1e-12)


def test_kt_bound_range_errors():
    with pytest.raises(ValueError):
        kt_bound(2, 3, 0.0)
    with pytest.raises(ValueError, match="log"):
        kt_bound(2, 3, 10.0)
    with pytest.raises(ValueError, match=r"^t=nan outside \(0, \(log a\)\^2 / log b = "):
        kt_bound(2, 3, float("nan"))  # NaN fails both range comparisons
    with pytest.raises(ValueError, match=r"^t=nan outside \(0, log b = "):
        kt_bound(5, 3, float("nan"))


def test_kt_bound_endpoint_limit():
    # at (2, 3) the range ends at t* = (log 2)^2 / log 3 < log 3, where the formula reaches 1
    t_star = math.log(2) ** 2 / math.log(3)
    assert kt_bound(2, 3, t_star * (1 - 1e-12)) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError, match=r"\(log a\)\^2 / log b"):
        kt_bound(2, 3, t_star)


def test_q_bound():
    assert q_bound(2, 0.3) == pytest.approx(0.6 / (math.log(2) + 0.3), abs=1e-12)
    with pytest.raises(ValueError):
        q_bound(2, math.log(2))
    with pytest.raises(ValueError):
        q_bound(2, -0.1)


def test_substitution_identity():
    for a, b in [(2, 3), (3, 2), (2, 5)]:
        top = min(math.log(a), math.log(b))
        for i in range(1, 20):
            t = top * i / 20.0 * 0.999
            t_sub = t * t / math.log(b)
            assert abs(kt_bound(a, b, t_sub) - q_bound(a, t)) < 1e-12
