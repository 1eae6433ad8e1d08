"""Exact arithmetic on the circle R/Z.

Points are reduced rationals, the maps x -> c*x mod 1 act exactly, and
base-(a*b) digit words code points via the uniform Markov partition.
"""
from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Iterator

import numpy as np

# Longest side of an orbit grid: 2^26 cells, a 512 MiB float grid.
MAX_SIDE = 1 << 13


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


def mult_indep_check(a: int, b: int) -> bool:
    """False iff a and b are powers of a common integer base (log a / log b rational)."""
    if a < 2 or b < 2:
        raise ValueError("a, b must be >= 2")
    while a != b:  # Euclid on the exponents: a > b are dependent iff b | a and a / b, b are
        a, b = max(a, b), min(a, b)
        if a % b:
            return True
        a //= b
    return False


# Cells per block of the orbit kernel: about 2^15 int64 cells (256 KiB), so a
# block and its temporaries stay in cache.  Residue blocks have
# `_block_rows(N)` rows; `_digit_fracs` certifies diagonals in blocks of the
# same size.
_BLOCK_CELLS = 1 << 15


def _block_rows(N: int) -> int:
    """Rows of one kernel block of an N-wide grid."""
    return max(1, _BLOCK_CELLS // N)


# Threads of the N^2 kernels: every CPU this process may run on.  The pool of
# the _THREADS - 1 helpers is made by the first `_spread` that needs it.
_THREADS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_pool = None


def _drop_pool() -> None:
    """A forked child has none of its parent's threads: it makes its own pool."""
    global _pool
    _pool = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _spread(task: Callable[[int, int], object], N: int, R: int) -> list:
    """[task(s, e) for the blocks [s, e) = [s, min(s + R, N)) of range(N)], in row order.

    At most _THREADS threads run the blocks, each a contiguous run of them,
    the calling thread the first.  A task must call no public function:
    perfbench's tracer wraps those, and its span stack belongs to the
    calling thread.  Each N^2 kernel makes every cell, or integer count,
    from its own block alone, so it gives the same result at any thread count.
    """
    blocks = -(-N // R)
    n = min(_THREADS, blocks)
    cuts = [R * (blocks * i // n) for i in range(n)] + [N]

    def run(s: int, e: int) -> list:
        return [task(t, min(t + R, e)) for t in range(s, e, R)]

    if n == 1:
        return run(0, N)
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_THREADS - 1)
    futures = [_pool.submit(run, s, e) for s, e in zip(cuts[1:-1], cuts[2:])]
    try:
        first = run(cuts[0], cuts[1])
    finally:
        rest = [f.result() for f in futures]
    return [r for part in (first, *rest) for r in part]


class _Counts:
    """Integer bin counts that `_spread` tasks add to under a lock as each block is counted."""

    def __init__(self, bins: int):
        self.total = np.zeros(bins, dtype=np.intp)
        self._lock = threading.Lock()

    def add(self, index: np.ndarray) -> None:
        block = np.bincount(index.astype(np.intp).ravel(), minlength=len(self.total))
        with self._lock:
            self.total += block


def _residue_rows(x: TorusPoint, a: int, b: int, N: int) -> Callable[[int, int], np.ndarray]:
    """rows(s, e): rows s .. e-1 of the residue grid of `orbit_residues`.

    The columns a^m num and b^n mod den are built once, each power a running
    product z -> z * c % den.  An int64 block is their outer product, reduced
    exactly as p - p // den * den: the products stay below 2^62.  An object
    row is a running product of b, faster than a Python-int outer product.
    """
    den = x.den
    acol = _running_products(x.num, a, den, N)
    if den < 2**31:
        acol = np.array(acol, dtype=np.int64)
        bcol = np.array(_running_products(1, b, den, N), dtype=np.int64)

        def rows(s: int, e: int) -> np.ndarray:
            blk = acol[s:e, None] * bcol
            blk -= blk // den * den  # a floor-divide by a scalar is faster than %
            return blk

        return rows
    return lambda s, e: np.array([_running_products(z, b, den, N) for z in acol[s:e]], dtype=object)


def _running_products(z: int, c: int, den: int, N: int) -> list[int]:
    """z * c^n mod den for n < N (z itself unreduced at n = 0)."""
    out = []
    for _ in range(N):
        out.append(z)
        z = z * c % den
    return out


def orbit_residues(x: TorusPoint, a: int, b: int, N: int) -> Iterator[np.ndarray]:
    """Exact residues r[m, n] = a^m b^n num mod den of x = num/den, in blocks of rows.

    The one exact orbit kernel: int64 blocks for den < 2^31, object blocks of
    Python ints otherwise.  It yields 2-D arrays of consecutive rows,
    max(1, _BLOCK_CELLS // N) rows each (the last may be shorter), which
    stack to the N x N grid, on the calling thread; the library's N^2
    consumers read the same blocks on threads through `_map_rows`.  a, b < 2
    and N outside 1..MAX_SIDE are rejected at the call; no residue is
    computed until the first block is read.
    """
    if min(a, b) < 2:
        raise ValueError("a, b must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > MAX_SIDE:
        raise ValueError(f"N = {N} exceeds the grid side limit {MAX_SIDE}")

    def blocks() -> Iterator[np.ndarray]:
        rows, R = _residue_rows(x, a, b, N), _block_rows(N)
        for s in range(0, N, R):
            yield rows(s, min(s + R, N))

    return blocks()


def _map_rows(x: TorusPoint, a: int, b: int, N: int, task: Callable[[int, np.ndarray], object]) -> list:
    """[task(s, residue rows s .. e-1)] over the blocks [s, e) of `_spread`, after `orbit_residues`' checks."""
    orbit_residues(x, a, b, N)
    rows = _residue_rows(x, a, b, N)
    return _spread(lambda s, e: task(s, rows(s, e)), N, _block_rows(N))


def orbit_grid(x: TorusPoint, a: int, b: int, N: int) -> list[list[TorusPoint]]:
    """The N x N array of points a^m b^n x, read off the blocks of `orbit_residues`.

    A per-cell `TorusPoint` reference: the `orbit` command formats the
    residue blocks directly and no library code calls this.
    """
    blocks = orbit_residues(x, a, b, N)
    return [[TorusPoint(r, x.den) for r in row] for blk in blocks for row in blk.tolist()]


def orbit_fracs(x: TorusPoint, a: int, b: int, N: int) -> np.ndarray:
    """Float values r / den of the N x N orbit grid, correctly rounded (within 1/2 ulp).

    When den >= 2^31 divides (ab)^K with (ab)^2 <= 2^53, the base-ab digit
    automaton of `_digit_fracs` gives the grid with no big-integer
    arithmetic.  Otherwise each block of `_map_rows`, int64 or object, is
    divided by den straight into its rows of the grid.  Each cell is the
    double nearest the exact point, so the paths agree.
    """
    orbit_residues(x, a, b, N)  # checks a, b and N before any path builds its grid
    K = _digit_length(x, a, b)
    if K:
        return _digit_fracs(x, a, b, N, K)
    out = np.empty((N, N))
    _map_rows(x, a, b, N, lambda s, blk: np.divide(blk, x.den, out=out[s : s + len(blk)], casting="unsafe"))
    return out


def _digit_length(x: TorusPoint, a: int, b: int) -> int:
    """Least K with den | (ab)^K when x, a, b (already checked >= 2) take the digit path; 0 otherwise."""
    rest, ab = x.den, a * b
    if rest < 2**31 or ab * ab > 2**53:
        return 0
    K = 0
    while rest > 1:  # step K removes gcd(rest, ab): one more factor ab of den
        g = gcd(rest, ab)
        if g == 1:
            return 0
        rest //= g
        K += 1
    return K


def _digit_fracs(x: TorusPoint, a: int, b: int, N: int, K: int) -> np.ndarray:
    """The orbit grid of x = sum_{i<K} d_i (ab)^-(i+1) from a base-ab digit automaton.

    Cell (m, n) is frac((ab)^s c^j x) with s = min(m, n), j = |m - n| and
    c = a (m >= n) or b (m < n), so diagonal j is the digit state of c^j x
    read from digit s on, and cells with s >= K are 0.  Times a is the
    local rule d_i <- a (d_i mod b) + d_{i+1} // b, which never carries
    further and keeps K digits; times b swaps a and b.  The automaton
    below the diagonal (with the diagonal) and the one above it run as
    two `_spread` tasks, each writing only its own cells; cells that
    `_window_fracs` cannot certify are merged from both and recomputed
    exactly on the calling thread, so the grid is the same at any thread
    count.
    """
    ab = a * b
    W = 1
    while ab ** (W + 1) <= 2**53:
        W += 1
    digits = np.zeros(K + 2 * W, dtype=np.int64)
    digits[:K] = digits_of(x, ab, K).digits
    out = np.zeros((N, N))
    flat = out.reshape(-1)

    def automata(first: int, stop: int) -> list[tuple[int, int]]:
        fallback = []
        for c, other, below in ((a, b, True), (b, a, False))[first:stop]:
            j = 0 if below else 1  # the main diagonal is read once
            state = digits if below else _times(digits, c, other)
            while j < N:
                S = min(K, N - j)
                rows = max(1, min(N - j, _BLOCK_CELLS // (S + 2 * W)))
                block = np.empty((rows, S + 2 * W), dtype=np.int64)
                last = np.empty(rows, dtype=np.int64)
                for i in range(rows):
                    block[i] = state[: S + 2 * W]
                    nonzero = np.flatnonzero(state)
                    last[i] = nonzero[-1] if nonzero.size else -1
                    state = _times(state, c, other)
                vals, ok = _window_fracs(block, last, S, ab, W)
                for i in range(rows):
                    d = j + i
                    diag = flat[d * N :: N + 1] if below else flat[d :: N + 1]
                    diag[: min(S, N - d)] = vals[i, : min(S, N - d)]
                for i, s in zip(*np.nonzero(~ok)):
                    d, s = j + int(i), int(s)
                    if s < N - d:
                        fallback.append((s + d, s) if below else (s, s + d))
                j += rows
        return fallback

    for part in _spread(automata, 2, 1):
        for m, n in part:
            out[m, n] = pow(a, m, x.den) * pow(b, n, x.den) * x.num % x.den / x.den
    return out


def _times(state: np.ndarray, c: int, other: int) -> np.ndarray:
    """One automaton step: the base-(c*other) digits of frac(c * y) from those of y."""
    q, r = np.divmod(state, other)
    out = c * r
    out[:-1] += q[1:]
    return out


# Veltkamp splitter for doubles, 2^27 + 1, and the unit roundoff 2^-53.
_SPLIT = 134217729.0
_U = 2.0**-53


def _window_fracs(block: np.ndarray, last: np.ndarray, S: int, ab: int, W: int):
    """Correctly rounded values of the digit tails at shifts s < S, and which are certified.

    Row i of `block` holds digits 0 .. S+2W-1 of one state and `last[i]` is
    the index of its last nonzero digit.  With C = (ab)^W <= 2^53, v1 and
    v2 the W-digit windows at s and s + W and t in [0, 1) the digits after
    them, the cell is y = (v1 + (v2 + t)/C) / C.  For v1 >= 1 the candidate
    f = f0 + rho/C takes rho = v1 + v2/C - f0 C from a Dekker two-product;
    f is certified when every rounding and t leave y - f strictly inside
    half the gap below f, so f is the double nearest y.  A cell with only
    zero digits comes out exactly 0.  Near-ties, and v1 = 0 over nonzero
    digits, stay uncertified.
    """
    V = block[:, : S + W].copy()
    for i in range(1, W):
        V *= ab
        V += block[:, i : i + S + W]
    v1, v2 = V[:, :S], V[:, W : W + S]
    C = float(ab**W)
    c_hi = _SPLIT * C - (_SPLIT * C - C)
    c_lo = C - c_hi
    hi = v1.astype(float)
    q = v2 / C  # within u q of v2 / C
    s = hi + q
    err = q - (s - hi)  # s + err = v1 + q exactly, as v1 >= q
    f0 = s / C
    p = f0 * C
    big = _SPLIT * f0
    f_hi = big - (big - f0)
    f_lo = f0 - f_hi
    e = ((f_hi * c_hi - p) + f_hi * c_lo + f_lo * c_hi) + f_lo * c_lo  # f0 C = p + e
    resid = (s - p) - e  # s - p is exact (Sterbenz)
    rho = resid + err
    delta = rho / C
    f = f0 + delta
    back = f - f0
    r2 = (f0 - (f - back)) + (delta - back)  # f + r2 = f0 + delta exactly
    gap = f - np.nextafter(f, -np.inf)
    half = gap / 2
    # y - f = r2 + (rho_exact - rho)/C + (rho/C - delta) + t/C^2; the first two
    # errors are below u((q + |resid| + |rho|)/C + |delta|), and the factor 16
    # also covers the roundings of the comparisons below.
    bound = 16 * _U * (gap + (q + np.abs(resid) + np.abs(rho)) / C + np.abs(delta))
    tail = np.arange(S) + 2 * W <= last[:, None]
    t_max = float(Fraction(1, ab ** (2 * W))) * (1 + 2.0**-50)
    ok = (v1 > 0) & (r2 + half > bound) & (half - r2 - tail * t_max > bound)
    return f, ok | (v1 == 0) & (v2 == 0) & ~tail


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
