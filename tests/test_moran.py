import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from abtorus import MoranStructure, box_counting_estimate, moran_dims, realize_intervals
from abtorus.moran import DimensionPair, Realization


def periodic(n_list, c_list):
    spec = "n=" + ",".join(map(str, n_list)) + ";c=" + ",".join(map(str, c_list)) + " periodic"
    return MoranStructure.parse(spec)


def endpoints(realization):
    """(left endpoint, length) of every interval, as Fractions."""
    den = realization.den
    return [(Fraction(left, den), Fraction(realization.length, den)) for left in realization.lefts]


def _realize_reference(struct, depth):
    """Slow exact reference: (left, length) Fraction pairs, one interval at a time."""
    intervals = [(Fraction(0), Fraction(1))]
    for k in range(1, depth + 1):
        n, c = struct.term(k)
        intervals = [(left + i * c * length, c * length) for left, length in intervals for i in range(n)]
    return intervals


def _box_reference(intervals, scales):
    """Slow exact reference: the set of boxes each Fraction interval meets, then the same regression."""
    xs, ys = [], []
    for eps in map(Fraction, scales):
        boxes = set()
        for left, length in intervals:
            i_min = left // eps
            i_max = -((-(left + length)) // eps) - 1  # last box starting strictly before the right end
            if i_max < i_min:
                i_max = i_min
            boxes.update(range(i_min, i_max + 1))
        xs.append(math.log(eps.denominator) - math.log(eps.numerator))
        ys.append(math.log(len(boxes)))
    return _slope(xs, ys)


def _slope(xs, ys):
    """The least-squares slope of `box_counting_estimate`, in the same float steps."""
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return sxy / sxx


def test_full_packing_dimension_one():
    dims = moran_dims(periodic([2], ["1/2"]), 10)
    assert dims.s1 == pytest.approx(1.0, abs=1e-12)
    assert dims.s2 == pytest.approx(1.0, abs=1e-12)
    assert dims.exact


def test_middle_thirds_dimension():
    dims = moran_dims(periodic([2], ["1/3"]), 10)
    want = math.log(2) / math.log(3)
    assert dims.s1 == pytest.approx(want, abs=1e-12)
    assert dims.s2 == pytest.approx(want, abs=1e-12)


def test_alternating_cycle_dimension():
    dims = moran_dims(periodic([2, 4], ["1/4"]), 10)
    assert dims.s1 == pytest.approx(0.75, abs=1e-12)
    assert dims.s2 == pytest.approx(0.75, abs=1e-12)


def test_explicit_list_matches_periodic():
    explicit = MoranStructure(counts=(2,) * 40, ratios=(Fraction(1, 3),) * 40)
    dims = moran_dims(explicit, 30)
    want = math.log(2) / math.log(3)
    assert dims.s1 == pytest.approx(want, abs=1e-12)
    assert not dims.exact


def test_invalid_structures_rejected():
    with pytest.raises(ValueError):
        MoranStructure(counts=(3,), ratios=(Fraction(1, 2),))  # n*c > 1
    with pytest.raises(ValueError):
        MoranStructure(counts=(1,), ratios=(Fraction(1),))  # c not < 1
    with pytest.raises(ValueError):
        moran_dims(periodic([2], ["1/3"]), 1)
    with pytest.raises(ValueError, match="explicit structure needs at least 2 terms"):
        moran_dims(MoranStructure(counts=(2,), ratios=(Fraction(1, 3),)), 64)


def test_structures_and_dimension_pairs_refuse_malformed_terms():
    with pytest.raises(ValueError, match="^counts and ratios must have equal length$"):
        MoranStructure(counts=(2, 2), ratios=(Fraction(1, 3),))
    with pytest.raises(ValueError, match="^empty structure$"):
        MoranStructure(counts=(), ratios=())
    with pytest.raises(ValueError, match="^child counts must be positive$"):
        MoranStructure(counts=(0,), ratios=(Fraction(1, 3),))
    with pytest.raises(ValueError, match=r"^invalid dimension pair \(0\.5, 0\.6\)$"):
        DimensionPair(0.5, 0.6, False)
    with pytest.raises(ValueError, match=r"^invalid dimension pair \(1\.5, 1\.0\)$"):
        DimensionPair(1.5, 1.0, False)


@settings(max_examples=50)
@given(
    st.lists(
        st.tuples(st.integers(1, 6), st.integers(2, 9)).filter(lambda t: t[0] < t[1]),
        min_size=14,
        max_size=25,
    )
)
def test_s2_below_s1_on_random_structures(pairs):
    counts = tuple(n for n, _ in pairs)
    ratios = tuple(Fraction(1, q) for _, q in pairs)
    dims = moran_dims(MoranStructure(counts=counts, ratios=ratios), len(pairs) - 1)
    assert dims.s2 <= dims.s1 + 1e-12
    assert 0 <= dims.s2 and dims.s1 <= 1 + 1e-12


def test_reciprocal_ratio_gives_dimension_one():
    struct = MoranStructure(
        counts=(2, 3, 5, 2, 7) * 4,
        ratios=tuple(Fraction(1, n) for n in (2, 3, 5, 2, 7) * 4),
    )
    dims = moran_dims(struct, 19)
    assert dims.s1 == pytest.approx(1.0, abs=1e-12)
    assert dims.s2 == pytest.approx(1.0, abs=1e-12)


def test_realize_depth_zero_and_one():
    struct = periodic([2], ["1/3"])
    assert endpoints(realize_intervals(struct, 0)) == [(Fraction(0), Fraction(1))]
    assert endpoints(realize_intervals(struct, 1)) == [
        (Fraction(0), Fraction(1, 3)),
        (Fraction(1, 3), Fraction(1, 3)),
    ]


def test_realize_depth_two_left_packed():
    struct = periodic([2], ["1/3"])
    got = endpoints(realize_intervals(struct, 2))
    assert [left for left, _ in got] == [
        Fraction(0),
        Fraction(1, 9),
        Fraction(1, 3),
        Fraction(4, 9),
    ]
    assert all(length == Fraction(1, 9) for _, length in got)


def test_realize_nesting_and_ratio():
    struct = periodic([2, 3], ["1/4", "1/5"])
    parents = endpoints(realize_intervals(struct, 1))
    children = endpoints(realize_intervals(struct, 2))
    n2, c2 = struct.term(2)
    for left, length in children:
        holders = [
            (pl, pll) for pl, pll in parents if pl <= left and left + length <= pl + pll
        ]
        assert len(holders) == 1
        assert length == c2 * holders[0][1]


def test_realize_budget():
    struct = periodic([1001], ["1/1001"])
    with pytest.raises(ValueError):
        realize_intervals(struct, 2)


def test_realize_refuses_a_negative_depth():
    with pytest.raises(ValueError, match="^depth must be >= 0$"):
        realize_intervals(periodic([2], ["1/3"]), -1)


def test_realize_depth_limit():
    struct = periodic([1], ["1/2"])
    assert len(realize_intervals(struct, 10**4)) == 1
    with pytest.raises(ValueError, match="depth 10001 exceeds the limit 10000"):
        realize_intervals(struct, 10**4 + 1)


def test_box_counting_full_circle():
    struct = periodic([3], ["1/3"])
    intervals = realize_intervals(struct, 6)
    scales = [Fraction(1, 3**j) for j in range(2, 6)]
    assert box_counting_estimate(intervals, scales) == pytest.approx(1.0, abs=0.02)


def test_box_counting_middle_thirds():
    struct = periodic([2], ["1/3"])
    intervals = realize_intervals(struct, 10)
    scales = [Fraction(1, 3**j) for j in range(4, 10)]
    est = box_counting_estimate(intervals, scales)
    assert est == pytest.approx(math.log(2) / math.log(3), abs=0.02)


def test_box_counting_single_point():
    struct = MoranStructure(counts=(1,) * 12, ratios=(Fraction(1, 3),) * 12)
    intervals = realize_intervals(struct, 10)
    scales = [Fraction(1, 3**j) for j in range(3, 8)]
    assert box_counting_estimate(intervals, scales) <= 0.05


def test_box_counting_within_dimension_band():
    struct = periodic([2, 4], ["1/4"])
    dims = moran_dims(struct, 12)
    intervals = realize_intervals(struct, 8)
    scales = [Fraction(1, 4**j) for j in range(3, 8)]
    est = box_counting_estimate(intervals, scales)
    assert dims.s2 - 0.05 <= est <= dims.s1 + 0.05


def test_box_counting_input_validation():
    intervals = Realization(np.array([0], dtype=object), 1, 2)  # [0, 1/2)
    with pytest.raises(ValueError):
        box_counting_estimate(intervals, [Fraction(1, 4), Fraction(1, 8)])
    with pytest.raises(ValueError):
        box_counting_estimate(intervals, [Fraction(1, 4)] * 3)


def test_box_counting_refuses_scales_with_one_float_logarithm():
    """Distinct scales 1/(10^20 + i) all have -log eps = 20 log 10 in doubles: the slope has no spread to fit."""
    intervals = Realization(np.array([0], dtype=object), 1, 2)  # [0, 1/2)
    scales = [Fraction(1, 10**20 + i) for i in range(3)]
    with pytest.raises(ValueError, match="^degenerate regression: scales with equal float logarithms$"):
        box_counting_estimate(intervals, scales)


@st.composite
def realizations_and_scales(draw):
    """A structure of p/q ratios, explicit or periodic with a preamble, a depth, and scales.

    A periodic structure is realized to depth <= 5.  An explicit one ends
    in a chain of 70 single children of ratio 1/2 or 1/3, so its den lies
    on either side of 2**63, the bound of the int64 lattice.  The scales
    mix small-denominator ones (coarse, and down to 1/20000), ones with a
    denominator v >= 2**63, ones with den * v just below or just above
    2**63 (both of the last two at eps about m/20000 for m < 20000), and
    multiples and fractions of the interval length, so boxes
    both hold many intervals and split one.
    """
    counts, ratios = [], []
    for _ in range(draw(st.integers(1, 4))):
        q = draw(st.integers(2, 12))
        p = draw(st.integers(1, q - 1))
        counts.append(draw(st.integers(1, min(4, q // p))))
        ratios.append(Fraction(p, q))
    if draw(st.booleans()):
        preamble = draw(st.integers(0, len(counts) - 1))
        struct = MoranStructure(tuple(counts), tuple(ratios), periodic=True, preamble=preamble)
        depth = draw(st.integers(0, 5))
    else:
        counts += [1] * 70
        ratios += [Fraction(1, draw(st.sampled_from([2, 3])))] * 70
        struct = MoranStructure(tuple(counts), tuple(ratios))
        depth = draw(st.integers(0, len(counts)) | st.integers(max(0, len(counts) - 40), len(counts)))
    length = math.prod((struct.term(k)[1] for k in range(1, depth + 1)), start=Fraction(1))
    den = math.prod(struct.term(k)[1].denominator for k in range(1, depth + 1))

    def with_denominator(v, m):  # about m / 20000 over v in lowest terms, so eps spans (0, 1)
        u = max(1, v * m // 20000)
        while math.gcd(u, v) > 1:  # gcd(v - 1, v) = 1 ends the search
            u += 1
        return Fraction(u, v)

    edge = [v for v in range((2**63 - 1) // den - 1, (2**63 - 1) // den + 3) if v >= 2]  # den * v < 2^63 up to the second
    scale = st.one_of(
        st.builds(Fraction, st.integers(1, 50), st.integers(51, 20000)),
        st.builds(with_denominator, st.integers(2**63, 2**66), st.integers(1, 19999)),
        st.builds(lambda m, k: length * Fraction(m, k), st.integers(1, 8), st.integers(1, 8)),
        *([st.builds(with_denominator, st.sampled_from(edge), st.integers(1, 19999))] if edge else []),
    )
    scales = [e for e in draw(st.lists(scale, min_size=3, max_size=6)) if 0 < e < 1]
    assume(len(scales) >= 3 and len(set(scales)) >= 2)
    return struct, depth, scales


@settings(max_examples=100, deadline=None)
@given(realizations_and_scales())
def test_lattice_realization_and_box_count_match_fraction_reference(case):
    struct, depth, scales = case
    realization = realize_intervals(struct, depth)
    assert realization.lefts.dtype == (np.int64 if realization.den < 2**63 else object)
    reference = _realize_reference(struct, depth)
    assert endpoints(realization) == reference
    if len({math.log(e.denominator) - math.log(e.numerator) for e in scales}) < 2:
        with pytest.raises(ValueError, match="equal float logarithms"):  # no slope to fit
            box_counting_estimate(realization, scales)
        return
    assert box_counting_estimate(realization, scales) == _box_reference(reference, scales)


def test_box_counting_fine_scales_need_no_box_set():
    # A set of box indices would hold 5*10**11 ints at eps = 10**-12; past
    # eps = 10**-19 the box count of [0, 1/2) exceeds 2^63.
    intervals = realize_intervals(periodic([1], ["1/2"]), 1)
    for exponents in ((10, 11, 12), (19, 20, 21)):
        start = time.perf_counter()
        est = box_counting_estimate(intervals, [Fraction(1, 10**j) for j in exponents])
        assert time.perf_counter() - start < 1.0
        assert est == pytest.approx(1.0, abs=1e-12)


def test_box_counts_past_2_63_are_summed_in_python_ints():
    # Four copies of [0, 1) at eps = 1/v each meet boxes 0 .. v-1 and share no
    # end box, so N(eps) = 4v.  For v > 2^61 that sum passes 2^63 while every
    # product stays below it: only the len * (v + 1) bound keeps it exact.
    stack = Realization(np.zeros(4, dtype=np.int64), 1, 1)
    vs = [2**62 + 1, 2**61 + 1, 2**60 + 1, 2**59 + 3]
    want = _slope([math.log(v) for v in vs], [math.log(4 * v) for v in vs])
    assert box_counting_estimate(stack, [Fraction(1, v) for v in vs]) == want


def test_parse_json_form():
    struct = MoranStructure.parse('{"n": [2, 4], "c": ["1/4", "1/4"], "periodic": true}')
    assert struct.periodic
    assert moran_dims(struct, 8).s1 == pytest.approx(0.75, abs=1e-12)
