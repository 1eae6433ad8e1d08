"""Exact arithmetic on the circle R/Z.

Points are reduced rationals, the maps x -> c*x mod 1 act exactly, and
base-(a*b) digit words code points via the uniform Markov partition.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class TorusPoint:
    """A point of R/Z stored as a reduced fraction num/den in [0, 1)."""

    num: int
    den: int

    def __post_init__(self):
        if self.den == 0:
            raise ValueError("zero denominator")
        num, den = self.num, self.den
        if den < 0:
            num, den = -num, -den
        num %= den
        g = gcd(num, den)
        object.__setattr__(self, "num", num // g)
        object.__setattr__(self, "den", den // g)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __float__(self) -> float:
        return self.num / self.den

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "TorusPoint":
        p, _, q = text.partition("/")
        return cls(int(p), int(q) if q else 1)


@dataclass(frozen=True)
class DigitWord:
    """A finite digit word in a fixed base, coding the left endpoint of a cylinder."""

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError("base must be >= 2")
        object.__setattr__(self, "digits", tuple(int(d) for d in self.digits))
        for d in self.digits:
            if not 0 <= d < self.base:
                raise ValueError(f"digit {d} out of range for base {self.base}")

    def __len__(self) -> int:
        return len(self.digits)

    def __str__(self) -> str:
        sep = "" if self.base <= 10 else "."
        return f"b{self.base}:" + sep.join(str(d) for d in self.digits)

    @classmethod
    def parse(cls, text: str) -> "DigitWord":
        head, _, body = text.partition(":")
        if not head.startswith("b"):
            raise ValueError(f"not a digit word: {text!r}")
        base = int(head[1:])
        if not body:
            digits: tuple[int, ...] = ()
        elif base <= 10:
            digits = tuple(int(ch) for ch in body)
        else:
            digits = tuple(int(part) for part in body.split("."))
        return cls(base, digits)


@dataclass(frozen=True)
class CylinderInterval:
    """The interval [j/d, (j+1)/d] mod Z."""

    depth: int
    index: int

    def __post_init__(self):
        if self.depth < 1:
            raise ValueError("depth must be >= 1")
        if not 0 <= self.index < self.depth:
            raise ValueError("index out of range")

    def left(self) -> Fraction:
        return Fraction(self.index, self.depth)

    def right(self) -> Fraction:
        return Fraction(self.index + 1, self.depth)


def make_point(p: int, q: int) -> TorusPoint:
    """Normalized point (p mod q)/q; q = 0 is rejected."""
    return TorusPoint(p, q)


def apply_times(x: TorusPoint, c: int) -> TorusPoint:
    """The map T_c: x -> c*x mod 1, exactly."""
    return TorusPoint(c * x.num, x.den)


def orbit_residues(x: TorusPoint, a: int, b: int, N: int) -> Iterator[np.ndarray]:
    """The N rows of exact residues r[m, n] = a^m b^n num mod den of x = num/den.

    This is the one orbit kernel; its path depends only on the denominator.
    For den < 2^31 each row is an int64 array pow(a, m, den) * bcol % den,
    whose products stay below 2^62.  Larger denominators give object arrays
    of Python ints from the small-multiplier recurrence z -> z * b % den,
    so memory stays O(N) per row.
    """
    den = x.den
    if den < 2**31:
        bcol = np.array([pow(b, n, den) * x.num % den for n in range(N)], dtype=np.int64)
        for m in range(N):
            yield pow(a, m, den) * bcol % den
        return
    start = x.num
    for _ in range(N):
        row, z = [], start
        for _ in range(N):
            row.append(z)
            z = z * b % den
        yield np.array(row, dtype=object)
        start = start * a % den


def orbit_grid(x: TorusPoint, a: int, b: int, N: int) -> list[list[TorusPoint]]:
    """The N x N array of points a^m b^n x, read off the rows of `orbit_residues`."""
    if a < 2 or b < 2:
        raise ValueError("a, b must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    return [[TorusPoint(r, x.den) for r in row.tolist()] for row in orbit_residues(x, a, b, N)]


def orbit_fracs(x: TorusPoint, a: int, b: int, N: int) -> np.ndarray:
    """Float values r / den of the N x N orbit grid, within 1/2 ulp of the exact points.

    The residues come from `orbit_residues` (int64 rows for den < 2^31,
    big-integer rows otherwise); on both paths the one division r / den is
    correctly rounded.
    """
    out = np.empty((N, N))
    for m, row in enumerate(orbit_residues(x, a, b, N)):
        out[m] = row / x.den
    return out


def digits_of(x: TorusPoint, base: int, L: int) -> DigitWord:
    """First L digits of the greedy base expansion of x (trailing zeros at lattice points)."""
    if base < 2:
        raise ValueError("base must be >= 2")
    if L < 1:
        raise ValueError("L must be >= 1")
    digits = []
    num, den = x.num, x.den
    for _ in range(L):
        num *= base
        digits.append(num // den)
        num %= den
    return DigitWord(base, tuple(digits))


def point_of_word(w: DigitWord) -> TorusPoint:
    """Sum of w_i * base^-(i+1): the left endpoint of the cylinder coded by w."""
    num = 0
    for d in w.digits:
        num = num * w.base + d
    return TorusPoint(num, w.base ** len(w.digits))


def cylinder_of(x: TorusPoint, d: int) -> CylinderInterval:
    """The depth-d cylinder containing x, index floor(d*x) (left-closed convention)."""
    if d < 1:
        raise ValueError("depth must be >= 1")
    return CylinderInterval(d, x.num * d // x.den)


def random_word(base: int, length: int, seed: int) -> DigitWord:
    """Seeded i.i.d.-digit word."""
    rng = random.Random(seed)
    return DigitWord(base, tuple(rng.randrange(base) for _ in range(length)))
