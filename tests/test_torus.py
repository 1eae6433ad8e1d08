import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import (
    DigitWord,
    TorusPoint,
    digits_of,
    itinerary_choices,
    orbit_grid,
    point_of_word,
)

points = st.builds(
    TorusPoint,
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
)


def test_torus_point_normalizes():
    assert TorusPoint(2, 6) == TorusPoint(1, 3)
    assert TorusPoint(7, 3) == TorusPoint(1, 3)
    assert TorusPoint(0, 5) == TorusPoint(0, 1)
    assert TorusPoint(-1, 3) == TorusPoint(2, 3)


def test_zero_denominator_rejected():
    with pytest.raises(ValueError):
        TorusPoint(1, 0)


def test_digit_words_refuse_bad_bases_digits_and_lengths():
    with pytest.raises(ValueError, match="^base must be >= 2$"):
        DigitWord(1, ())
    with pytest.raises(ValueError, match="^digit 6 out of range for base 6$"):
        DigitWord(6, (0, 6))
    with pytest.raises(ValueError, match="^base must be >= 2$"):
        digits_of(TorusPoint(1, 3), 1, 4)
    with pytest.raises(ValueError, match="^L must be >= 1$"):
        digits_of(TorusPoint(1, 3), 10, 0)


def test_orbit_grid_examples():
    grid = orbit_grid(TorusPoint(1, 5), 2, 3, 2)
    assert grid == [
        [TorusPoint(1, 5), TorusPoint(3, 5)],
        [TorusPoint(2, 5), TorusPoint(1, 5)],
    ]
    zero = orbit_grid(TorusPoint(0, 1), 2, 3, 3)
    assert all(p == TorusPoint(0, 1) for row in zero for p in row)
    grid = orbit_grid(TorusPoint(1, 3), 2, 3, 2)
    assert grid == [
        [TorusPoint(1, 3), TorusPoint(0, 1)],
        [TorusPoint(2, 3), TorusPoint(0, 1)],
    ]


def test_orbit_grid_matches_iterated_maps():
    rng = random.Random(7)
    for _ in range(20):
        x = TorusPoint(rng.randrange(10**6), rng.randrange(1, 10**6))
        a, b = rng.choice([2, 3, 5, 6]), rng.choice([2, 3, 5, 6])
        grid = orbit_grid(x, a, b, 6)
        ym = x
        for m in range(6):
            y = ym
            for n in range(6):
                assert grid[m][n] == y
                y = TorusPoint(b * y.num, y.den)
            ym = TorusPoint(a * ym.num, ym.den)


@settings(max_examples=60)
@given(points, st.integers(2, 9), st.integers(2, 9))
def test_commutativity(x, a, b):
    ax, bx = TorusPoint(a * x.num, x.den), TorusPoint(b * x.num, x.den)
    assert TorusPoint(b * ax.num, ax.den) == TorusPoint(a * bx.num, bx.den)


def test_denominator_stability():
    x = TorusPoint(17, 360)
    for row in orbit_grid(x, 2, 3, 5):
        for p in row:
            assert 360 % p.den == 0


def test_digits_of_examples():
    assert digits_of(TorusPoint(1, 3), 6, 3).digits == (2, 0, 0)
    assert digits_of(TorusPoint(1, 7), 6, 4).digits == (0, 5, 0, 5)
    assert digits_of(TorusPoint(0, 1), 6, 2).digits == (0, 0)


def test_digits_of_long_division_oracle():
    # brute long division on 1/7 base 6
    num, den, expect = 1, 7, []
    for _ in range(8):
        num *= 6
        expect.append(num // den)
        num %= den
    assert digits_of(TorusPoint(1, 7), 6, 8).digits == tuple(expect)


def test_point_of_word_examples():
    assert point_of_word(DigitWord(6, (2, 0, 0))) == TorusPoint(1, 3)
    assert point_of_word(DigitWord(6, (0, 5))) == TorusPoint(5, 36)
    assert point_of_word(DigitWord(6, ())) == TorusPoint(0, 1)


@settings(max_examples=60)
@given(points, st.integers(2, 12), st.integers(1, 20))
def test_digit_round_trip(x, base, L):
    w = digits_of(x, base, L)
    y = point_of_word(w)
    assert abs(Fraction(x.num, x.den) - Fraction(y.num, y.den)) < 1 / base**L
    assert digits_of(y, base, L) == w


def cylinder_index(x: TorusPoint, d: int) -> int:
    """The depth-d cylinder index of x that `itinerary_choices` reads (its cells are 1-based)."""
    return itinerary_choices(x, 2, d, 1, 1).indices[0] - 1


def test_cylinder_of_examples():
    assert cylinder_index(TorusPoint(1, 3), 6) == 2
    assert cylinder_index(TorusPoint(0, 1), 10) == 0
    assert cylinder_index(TorusPoint(5, 36), 6) == 0


@settings(max_examples=40)
@given(points, st.integers(1, 50))
def test_cylinder_contains_point(x, d):
    # left-closed: x lies in [j/d, (j+1)/d)
    j = cylinder_index(x, d)
    assert Fraction(j, d) <= Fraction(x.num, x.den) < Fraction(j + 1, d)


def test_serialization_round_trip():
    x = TorusPoint(5, 36)
    assert TorusPoint.parse(str(x)) == x
    assert str(DigitWord(6, (2, 0, 5))) == "b6:205"
    assert str(DigitWord(12, (11, 0, 3))) == "b12:11.0.3"
