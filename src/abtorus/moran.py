"""Homogeneous Moran structures and their Hausdorff-dimension bounds.

A structure is the pair of sequences {n_k} (child counts) and {c_k}
(uniform contraction ratios) with n_k * c_k <= 1 and sup c_k < 1.  The
two dimension bounds are

    s1 = liminf log(n_1...n_k) / -log(c_1...c_k)
    s2 = liminf log(n_1...n_k) / -log(c_1...c_k c_{k+1} n_{k+1})

and the realized set satisfies s2 <= dim_H <= s1.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np


def _log_fraction(f: Fraction) -> float:
    # math.log handles arbitrary-size integers
    return math.log(f.numerator) - math.log(f.denominator)


def _fields(pairs: list[tuple[str, object]], keys: tuple[str, ...]) -> dict:
    for i, (key, _) in enumerate(pairs):
        if key not in keys or key in dict(pairs[:i]):
            raise ValueError(f"struct spec key {key!r} is unknown or repeated")
    return dict(pairs)


def _entry(spec: dict, key: str, kind: type) -> list:
    """The checked list of numbers at `key`, its strings parsed by `kind`."""
    if key not in spec:
        raise ValueError(f"struct spec has no {key!r} entry")
    val = spec[key]
    if not isinstance(val, list) or not all(type(v) in (int, float, str) for v in val):
        raise ValueError(f"struct spec {key!r} entry must be a list of numbers")
    if not all(math.isfinite(v) for v in val if isinstance(v, float)):
        raise ValueError(f"struct spec {key!r} entry must be finite")
    if any("e" in v.lower() for v in val if isinstance(v, str)):  # 1e-300000 would build a huge integer
        raise ValueError(f"struct spec {key!r} entry must be written without exponents")
    try:
        return [kind(v) if isinstance(v, str) else v for v in val]
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"struct spec {key!r} entry must be a list of numbers") from None


@dataclass(frozen=True)
class MoranStructure:
    """Either an explicit finite prefix or an eventually periodic spec (preamble + cycle)."""

    counts: tuple[int, ...]
    ratios: tuple[Fraction, ...]
    periodic: bool = False
    preamble: int = 0  # number of leading non-cycling terms when periodic

    def __post_init__(self):
        if type(self.periodic) is not bool or type(self.preamble) is not int:
            raise ValueError("periodic must be true or false and preamble an integer")
        if any(isinstance(n, float) and not n.is_integer() for n in self.counts):
            raise ValueError("child counts must be integers")
        counts = tuple(int(n) for n in self.counts)
        ratios = tuple(Fraction(c) for c in self.ratios)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "ratios", ratios)
        if len(counts) != len(ratios):
            raise ValueError("counts and ratios must have equal length")
        if not counts:
            raise ValueError("empty structure")
        if not 0 <= self.preamble < (len(counts) if self.periodic else 1):
            raise ValueError("preamble out of range")
        for n, c in zip(counts, ratios):
            if n < 1:
                raise ValueError("child counts must be positive")
            if not 0 < c < 1:
                raise ValueError(f"ratio {c} outside (0, 1)")
            if n * c > 1:
                raise ValueError(f"n*c = {n * c} exceeds 1")

    def term(self, k: int) -> tuple[int, Fraction]:
        """1-based term (n_k, c_k)."""
        i = k - 1
        if not self.periodic:
            if i >= len(self.counts):
                raise IndexError(f"explicit structure has only {len(self.counts)} terms")
            return self.counts[i], self.ratios[i]
        if i < self.preamble:
            return self.counts[i], self.ratios[i]
        cycle = len(self.counts) - self.preamble
        j = self.preamble + (i - self.preamble) % cycle
        return self.counts[j], self.ratios[j]

    @classmethod
    def parse(cls, text: str) -> "MoranStructure":
        """Parse the compact form "n=2,4;c=1/4 periodic" or an explicit JSON spec."""
        text = text.strip()
        if text.startswith("{"):
            obj = _fields(json.loads(text, object_pairs_hook=list), ("n", "c", "periodic", "preamble"))
            return cls(
                counts=tuple(_entry(obj, "n", int)),
                ratios=tuple(_entry(obj, "c", Fraction)),
                periodic=obj.get("periodic", False),
                preamble=obj.get("preamble", 0),
            )
        periodic = False
        if text.endswith("periodic"):
            periodic = True
            text = text[: -len("periodic")].strip()
        pairs = []
        for part in filter(None, text.split(";")):
            key, _, val = part.partition("=")
            pairs.append((key.strip(), [v.strip() for v in val.split(",")]))
        fields = _fields(pairs, ("n", "c"))
        counts = _entry(fields, "n", int)
        ratios = _entry(fields, "c", Fraction)
        if periodic:
            # cycle the shorter list up to a common length
            m = math.lcm(len(counts), len(ratios))
            counts = (counts * (m // len(counts)))[:m]
            ratios = (ratios * (m // len(ratios)))[:m]
        elif len(counts) != len(ratios):
            raise ValueError("explicit spec needs equal-length n and c lists")
        return cls(counts=tuple(counts), ratios=tuple(ratios), periodic=periodic)


@dataclass(frozen=True)
class DimensionPair:
    s1: float
    s2: float
    exact: bool

    def __post_init__(self):
        if not -1e-12 <= self.s2 <= self.s1 + 1e-12 or self.s1 > 1 + 1e-12:
            raise ValueError(f"invalid dimension pair ({self.s1}, {self.s2})")


_BURN_IN = 10
_BUDGET = 10**6  # most intervals a realization may hold
_MAX_DEPTH = 10**4  # deepest realization: numerators grow with depth, so cost is quadratic in it


def moran_dims(struct: MoranStructure, K: int) -> DimensionPair:
    """Evaluate the s1/s2 formulas.

    Eventually periodic structures admit the exact limit via cycle sums
    (the bounded non-cycling contribution washes out, so s1 = s2).
    Explicit prefixes get a running-minimum liminf estimate after a
    burn-in, truncated at K terms.
    """
    if K < 2:
        raise ValueError("K must be >= 2")
    if struct.periodic:
        log_n = 0.0
        neg_log_c = 0.0
        for i in range(struct.preamble, len(struct.counts)):
            log_n += math.log(struct.counts[i])
            neg_log_c -= _log_fraction(struct.ratios[i])
        s = min(log_n / neg_log_c, 1.0)
        return DimensionPair(s1=s, s2=s, exact=True)

    if len(struct.counts) < 2:
        raise ValueError("explicit structure needs at least 2 terms")
    K = min(K, len(struct.counts) - 1)
    start = min(_BURN_IN, K)
    log_n = 0.0
    neg_log_c = 0.0
    s1_vals = []
    s2_vals = []
    for k in range(1, K + 1):
        n, c = struct.term(k)
        log_n += math.log(n)
        neg_log_c -= _log_fraction(c)
        if k < start:
            continue
        n_next, c_next = struct.term(k + 1)
        extra = -(_log_fraction(c_next) + math.log(n_next))  # -log(c_{k+1} n_{k+1}) >= 0
        s1_vals.append(log_n / neg_log_c)
        s2_vals.append(log_n / (neg_log_c + extra))
    return DimensionPair(
        s1=min(1.0, min(s1_vals)),
        s2=min(1.0, min(s2_vals)),
        exact=False,
    )


@dataclass(frozen=True)
class Realization:
    lefts: np.ndarray  # ascending Python-int numerators of the left endpoints over den
    length: int  # numerator of the length every interval shares
    den: int

    def __len__(self) -> int:
        return len(self.lefts)


def realize_intervals(struct: MoranStructure, depth: int) -> Realization:
    """Left-packed realization of every word of the given depth.

    Children sit flush against the parent's left edge, so nesting,
    disjoint interiors and the exact ratio condition hold by
    construction.  Depth 0 is the single interval [0, 1).
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if depth > _MAX_DEPTH:
        raise ValueError(f"depth {depth} exceeds the limit {_MAX_DEPTH}")
    lefts, length, den = np.zeros(1, dtype=object), 1, 1
    for k in range(1, depth + 1):
        n, c = struct.term(k)
        if len(lefts) * n > _BUDGET:
            raise ValueError(f"interval budget {_BUDGET} exceeded at depth {k}")
        lefts = (lefts[:, None] * c.denominator + np.arange(n, dtype=object) * length * c.numerator).ravel()
        length *= c.numerator
        den *= c.denominator
    return Realization(lefts, length, den)


def box_counting_estimate(intervals: Realization, scales: list[Fraction]) -> float:
    """Least-squares slope of log N(eps) against log(1/eps).

    N(eps) counts half-open grid boxes [i*eps, (i+1)*eps) meeting some
    interval; for eps = u/v those are boxes floor(left*v/(den*u)) to ceil(right*v/(den*u)) - 1.
    """
    if len(scales) < 3:
        raise ValueError("need at least 3 scales")
    scales = [Fraction(e) for e in scales]
    if len(set(scales)) < 2:
        raise ValueError("degenerate regression: identical scales")
    for e in scales:
        if not 0 < e < 1:
            raise ValueError("scales must lie in (0, 1)")
    xs, ys = [], []
    for eps in scales:
        box = intervals.den * eps.numerator
        first = intervals.lefts * eps.denominator // box
        last = -(-(intervals.lefts + intervals.length) * eps.denominator // box) - 1
        shared = int(np.count_nonzero(first[1:] == last[:-1]))  # only end boxes; int: counts pass 2^63
        xs.append(-_log_fraction(eps))
        ys.append(math.log((last - first + 1).sum() - shared))
    if len(set(xs)) < 2:  # distinct scales within an ulp of each other share one float log
        raise ValueError("degenerate regression: scales with equal float logarithms")
    x_bar = sum(xs) / len(xs)
    y_bar = sum(ys) / len(ys)
    sxx = sum((x - x_bar) ** 2 for x in xs)
    sxy = sum((x - x_bar) * (y - y_bar) for x, y in zip(xs, ys))
    return sxy / sxx
