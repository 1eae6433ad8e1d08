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
from typing import Callable, Iterable, Iterator

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
        p, slash, q = text.partition("/")
        return cls(int(p), int(q) if slash else 1)


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
# `_block_rows(N)` rows.  `_digit_fracs` steps blocks of about twice as many
# digits, each automaton in one set of eight scratch rows: on two threads,
# fewer and longer numpy calls beat blocks that fit in cache.
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


def _spread(task: Callable[[int, int], object], N: int, R: int) -> None:
    """Run task(s, e) for each block [s, e) = [s, min(s + R, N)) of range(N), and wait for all.

    At most _THREADS threads run the blocks, each a contiguous run of them,
    the calling thread the first.  A task must call no public function:
    perfbench's tracer wraps those, and its span stack belongs to the
    calling thread.  Each N^2 kernel makes every cell, or integer count,
    from its own block alone, so it gives the same result at any thread count.
    """
    blocks = -(-N // R)
    n = min(_THREADS, blocks)
    cuts = [R * (blocks * i // n) for i in range(n)] + [N]

    def run(s: int, e: int) -> None:
        for t in range(s, e, R):
            task(t, min(t + R, e))

    if n == 1:
        return run(0, N)
    global _pool
    if _pool is None:
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_THREADS - 1)
    futures = [_pool.submit(run, s, e) for s, e in zip(cuts[1:-1], cuts[2:])]
    try:
        run(cuts[0], cuts[1])
    finally:
        for f in futures:
            f.result()


def _check_grid(a: int, b: int, N: int) -> None:
    """Reject a, b < 2 and N outside 1..MAX_SIDE before any grid is made."""
    if min(a, b) < 2:
        raise ValueError("a, b must be >= 2")
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > MAX_SIDE:
        raise ValueError(f"N = {N} exceeds the grid side limit {MAX_SIDE}")


def _residue_rows(x: TorusPoint, a: int, b: int, N: int, margin: int = 0) -> Callable[[int, int], np.ndarray]:
    """rows(s, e): rows s .. e-1 of the residue grid of `orbit_residues` at side N + margin, after `_check_grid` of N.

    For den < 2^31 the columns num a^m and b^n mod den come from
    `_power_column`, and an int64 block is their outer product, reduced
    exactly as p - p // den * den: the products stay below 2^62.  Otherwise
    the column num a^m mod den is a `_running_products` list of Python ints,
    and each object row a running product of b, faster than a Python-int
    outer product.
    """
    _check_grid(a, b, N)
    den, N = x.den, N + margin
    if den < 2**31:
        acol, bcol = _power_column(x.num, a, den, N), _power_column(1, b, den, N)

        def rows(s: int, e: int) -> np.ndarray:
            blk = acol[s:e, None] * bcol
            blk -= blk // den * den  # a floor-divide by a scalar is faster than %
            return blk

        return rows
    acol = _running_products(x.num, a, den, N)
    return lambda s, e: np.array([_running_products(z, b, den, N) for z in acol[s:e]], dtype=object)


def _power_column(z: int, c: int, den: int, N: int) -> np.ndarray:
    """int64 z * c^n mod den for n < N, den < 2^31, by power doubling.

    col[L:2L] = col[:L] * (c^L mod den) mod den, so log2 N numpy steps
    replace N Python products; c is reduced mod den first, and every
    product of two residues stays below 2^62.
    """
    col = np.empty(N, dtype=np.int64)
    col[0] = z % den
    L, step = 1, c % den  # step = c^L mod den
    while L < N:
        n = min(L, N - L)
        part = col[:n] * step
        col[L : L + n] = part - part // den * den
        L, step = L + n, step * step % den
    return col


def _running_products(z: int, c: int, den: int, N: int) -> list[int]:
    """z * c^n mod den for n < N (z itself unreduced at n = 0), as Python ints.

    The big-denominator rows of `_residue_rows` and `typecount` read these;
    den < 2^31 columns come from `_power_column`.
    """
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
    consumers read the same blocks on the `_spread` threads.  a, b < 2
    and N outside 1..MAX_SIDE are rejected at the call; no row is computed
    until its block is read.
    """
    rows, R = _residue_rows(x, a, b, N), _block_rows(N)
    return (rows(s, min(s + R, N)) for s in range(0, N, R))


def orbit_grid(x: TorusPoint, a: int, b: int, N: int) -> list[list[TorusPoint]]:
    """The N x N array of points a^m b^n x, read off the blocks of `orbit_residues`.

    A per-cell `TorusPoint` reference: the `orbit` command formats the
    residue blocks directly and no library code calls this.
    """
    blocks = orbit_residues(x, a, b, N)
    return [[TorusPoint(r, x.den) for r in row] for blk in blocks for row in blk.tolist()]


def _row_period(x: TorusPoint, a: int, N: int) -> int:
    """Least P < N with a^P x = x, or N if there is none: row m of the grid is then row m mod P.

    A den sharing a factor with a has none (a x has a smaller denominator),
    so the digit path returns at once.
    """
    num, den = x.num, x.den
    if gcd(den, a) != 1:
        return N
    z = num * a % den
    for P in range(1, N):
        if z == num:
            return P
        z = z * a % den
    return N


def _bin_counts(x: TorusPoint, a: int, b: int, N: int, d: int) -> np.ndarray:
    """Orbit points per bin [j/d, (j+1)/d): residue r lands in bin floor(r*d/den).

    Each `_spread` block is counted by `np.bincount` and added to one total under a lock.
    """
    rows, total, lock = _residue_rows(x, a, b, N), np.zeros(d, dtype=np.intp), threading.Lock()

    def count(s: int, e: int) -> None:
        block = np.bincount((rows(s, e) * d // x.den).astype(np.intp).ravel(), minlength=d)
        with lock:
            np.add(total, block, out=total)

    _spread(count, N, _block_rows(N))
    return total


def _corner_totals(
    x: TorusPoint, a: int, horizons: list[int], planes: Callable[[int, int], Iterable[np.ndarray]], outputs: list[tuple[int, int]], dtype
) -> np.ndarray:
    """totals[o, i]: plane p of the grid of x summed over rows [alpha, alpha + h) and columns [0, h), h = horizons[i], for o = (p, alpha).

    planes(s, e) yields the planes 0, 1, ... of grid rows s .. e-1, in the
    `_spread` row blocks of a max(horizons)-wide grid; each is read before
    the next is asked for.  Each plane is summed to row h + max(alpha) for
    horizon h, and only rows before the `_row_period` of x under a, found
    over N + max(alpha) rows, are asked for: row m's sum over its first h
    columns, rows[p, i, m] with one i per distinct horizon, is that of row
    m mod the period.  A total is the sum of h row sums from row alpha, so
    it is the same at any block size, thread count or set of other horizons.
    """
    N, distinct = max(horizons), sorted(set(horizons))
    lift = max(alpha for _, alpha in outputs)
    period = _row_period(x, a, N + lift)
    rows = np.zeros((len({p for p, _ in outputs}), len(distinct), period), dtype=dtype)

    def task(s: int, e: int) -> None:
        for p, plane in enumerate(planes(s, e)):
            for i, h in enumerate(distinct):
                if s < h + lift:
                    rows[p, i, s : min(e, h + lift)] = plane[: h + lift - s, :h].sum(axis=1)

    _spread(task, period, _block_rows(N))
    return np.array([[rows[p, distinct.index(h), np.arange(alpha, alpha + h) % period].sum() for h in horizons] for p, alpha in outputs])


def _frac_rows(x: TorusPoint, a: int, b: int, N: int, margin: int = 0, whole: bool = False) -> Callable[[int, int], np.ndarray]:
    """rows(s, e): rows s .. e-1 of the float grid of `orbit_fracs` at side N + margin, after `_check_grid` of N.

    The one place the path is chosen.  On the digit path (`_digit_length`
    nonzero) a block is a slice of the whole `_digit_fracs` grid.
    Otherwise a block is its `_residue_rows` block divided by den when it
    is read, so no N x N array is held; with whole (no margin), a block is
    a slice of the grid these divisions fill first, as `orbit_fracs` does.
    """
    _check_grid(a, b, N)
    K = _digit_length(x, a, b)
    if K:
        grid = _digit_fracs(x, a, b, N + margin, K)
    else:
        residues = _residue_rows(x, a, b, N, margin)

        def rows(s: int, e: int, out: np.ndarray | None = None) -> np.ndarray:
            block = residues(s, e)  # without a float out, an object block would divide into Python floats
            return np.divide(block, x.den, out=np.empty(block.shape) if out is None else out, casting="unsafe")

        if not whole:
            return rows
        grid, P = np.empty((N, N)), _row_period(x, a, N)
        _spread(lambda s, e: rows(s, e, grid[s:e]), P, _block_rows(N))
        Q = N // P  # rows [qP, qP + P) repeat rows [0, P): one broadcast copy, then the rest
        grid[P : Q * P].reshape(Q - 1, P, N)[:], grid[Q * P :] = grid[:P], grid[: N - Q * P]
    return lambda s, e: grid[s:e]


def orbit_fracs(x: TorusPoint, a: int, b: int, N: int) -> np.ndarray:
    """Float values r / den of the N x N orbit grid, correctly rounded (within 1/2 ulp).

    The whole grid of `_frac_rows`.  When den >= 2^31 divides (ab)^K with
    (ab)^2 <= 2^53, the base-ab digit automaton of `_digit_fracs` gives it
    with no big-integer arithmetic.  Otherwise only the rows before the
    `_row_period` P are computed: each block of `_residue_rows`, int64 or
    object, is divided by den straight into its rows of the grid on the
    `_spread` threads, and every later row m is copied from row m mod P.
    Each cell is the double nearest the exact point, so the paths agree.
    """
    return _frac_rows(x, a, b, N, whole=True)(0, N)


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
    local rule d_i <- a (d_i mod b) + d_{i+1} // b = a d_i - ab q_i + q_{i+1},
    q = d // b, which never carries further and keeps K digits; times b
    swaps a and b.  The automaton below the diagonal and the one above it
    run as two `_spread` tasks; both write the main diagonal, with the same
    values.  Each steps its states straight into the rows of a block of
    max(1, 2 _BLOCK_CELLS // (K + 2W)) whole states, and diagonal d keeps
    its cells s < min(last + 1, N - d), last its state's last nonzero
    digit: the rest are 0 or off the grid.  A block is certified by
    `_window_fracs` to its widest extent, each kept cell it does not
    certify is recomputed exactly by `_tail_value` from its digits
    s .. last, on its own thread, so the grid is the same at any thread
    count, and then each diagonal's kept cells are written.
    """
    ab = a * b
    W = 1
    while ab ** (W + 1) <= 2**53:
        W += 1
    L = K + 2 * W
    R = max(1, 2 * _BLOCK_CELLS // L)
    first = digits_of(x, ab, K).digits
    out = np.zeros((N, N))
    flat = out.reshape(-1)
    powers = ab ** np.arange(W - 1, -1, -1, dtype=np.int64)  # a W-digit chunk's place values

    def automaton(c: int, other: int, below: bool) -> None:
        block = np.zeros((R + 1, L), dtype=np.int64)  # row n of an n-state block starts the next block
        scratch = np.empty((8, R * L))  # a block's digits as doubles, its windows and certificate buffers
        states = list(block[:, :K])
        states[0][:] = first
        qs, t = np.zeros(K + 1, dtype=np.int64), np.empty(K, dtype=np.int64)
        q, q_next = qs[:K], qs[1:]  # qs[K] stays 0: no digit K carries into digit K - 1
        for j in range(0, N, R):
            n = min(R, N - j)
            for now, nxt in zip(states[:n], states[1 : n + 1]):
                np.floor_divide(now, other, out=q)
                np.subtract(np.multiply(now, c, out=nxt), np.multiply(q, ab, out=t), out=nxt)
                nxt += q_next
            last = L - 1 - (block[:n, ::-1] != 0).argmax(axis=1)
            last[last == L - 1] = -1  # digit L - 1 is always 0: the state has no nonzero digit
            keep = np.minimum(last + 1, N - np.arange(j, j + n))  # diagonal d's nonzero cells in the grid
            S = keep.max()
            digits = scratch[0, : n * (S + 2 * W)].reshape(n, -1)
            digits[:] = block[:n, : S + 2 * W]
            vals, ok = _window_fracs(digits, ab, W, scratch[1:, : digits.size])
            for i, s in zip(*np.nonzero(~ok & (np.arange(S + 2 * W) < keep[:, None]))):
                vals[i, s] = _tail_value(block[i, s : last[i] + 1], ab, powers)
            for i, d in enumerate(range(j, j + n)):  # cell s of diagonal d: (s + d, s) below, (s, s + d) above
                (flat[d * N :: N + 1] if below else flat[d :: N + 1])[: keep[i]] = vals[i, : keep[i]]
            block[0] = block[n]

    _spread(lambda i, _: automaton(*((a, b, True), (b, a, False))[i]), 2, 1)
    return out


def _tail_value(tail: np.ndarray, ab: int, powers: np.ndarray) -> float:
    """sum_t tail[t] (ab)^-(t+1) for base-ab digits ending in a nonzero one, correctly rounded.

    powers holds the place values (ab)^(W-1), ..., 1 of a W-digit chunk,
    (ab)^W <= 2^53.  From its first nonzero digit f the tail is read to
    e = f + 2W, f + 4W, ... digits, W to a chunk.  The integer v of the
    digits read gives v / (ab)^e <= y < (v + 1) / (ab)^e, and Python's int
    division rounds each bound correctly, so rounding is monotone: once
    both round to the same double, y does too.  Read to its end,
    v / (ab)^e is y itself.  Only near-ties read far, so a long tail costs
    about as much as a short one.
    """
    W, C = len(powers), ab ** len(powers)
    f, n = int((tail != 0).argmax()), 2 * W
    while True:
        e = min(f + n, len(tail))
        start = f - (-(e - f) % W)  # e - start is a multiple of W, and the digits before f are zeros
        head = tail[start:e] if start >= 0 else np.concatenate([np.zeros(-start, dtype=np.int64), tail[:e]])
        v = 0
        for chunk in (head.reshape(-1, W) @ powers).tolist():
            v = v * C + chunk
        D = ab**e
        if e == len(tail) or v / D == (v + 1) / D:
            return v / D
        n *= 2


# Veltkamp splitter for doubles, 2^27 + 1, and the unit roundoff 2^-53.
_SPLIT = 134217729.0
_U = 2.0**-53


def _window_fracs(block: np.ndarray, ab: int, W: int, scratch: np.ndarray):
    """Correctly rounded values of the digit tails at each shift of `block`, and which are certified.

    Row i of `block` holds digits of one state; its cells are the shifts
    s with 2W digits after s in the row.  With C = (ab)^W <= 2^53, v1 and
    v2 the W-digit windows of `_digit_windows` at s and s + W and t in
    [0, 1) the digits after them, the cell is y = (v1 + (v2 + t)/C) / C.
    For v1 >= 1 the candidate f = f0 + rho/C takes rho = v1 + v2/C - f0 C
    from a Dekker two-product; f is certified when every rounding and t
    leave y - f strictly inside half the gap below f, so f is the double
    nearest y; t/C^2 is taken at its bound (ab)^-2W in every cell.
    Near-ties and v1 = 0 stay uncertified: the caller recomputes those it
    keeps exactly.  Each pass runs over the whole row-major block, in
    place in the seven rows of `scratch`.
    """
    v1 = _digit_windows(block, ab, W, scratch).reshape(-1)  # cell s of row i is v1[i * width + s]
    C = float(ab**W)
    c_hi = _SPLIT * C - (_SPLIT * C - C)
    c_lo = C - c_hi
    q, s, err, p, hi, e = scratch[1:7]  # rows 1 and 2 held the windows' scratch
    np.divide(v1[W:], C, out=q[:-W])  # q = v2 / C, within u q of it
    q[-W:] = 0
    np.add(v1, q, out=s)
    np.subtract(q, np.subtract(s, v1, out=err), out=err)  # s + err = v1 + q exactly, as v1 >= q
    ok = v1 > 0
    f0 = np.divide(s, C, out=v1)  # the windows are spent
    np.multiply(f0, C, out=p)
    s -= p  # exact (Sterbenz)
    np.multiply(f0, _SPLIT, out=hi)  # f0 = hi + lo, hi = big - (big - f0) for big = _SPLIT f0
    np.subtract(hi, np.subtract(hi, f0, out=e), out=hi)
    np.subtract(np.multiply(hi, c_hi, out=e), p, out=e)  # f0 C = p + e, summed left to right
    e += np.multiply(hi, c_lo, out=p)
    lo = np.subtract(f0, hi, out=hi)
    e += np.multiply(lo, c_hi, out=p)
    e += np.multiply(lo, c_lo, out=lo)
    resid = np.subtract(s, e, out=s)
    rho = np.add(resid, err, out=err)
    delta = np.divide(rho, C, out=p)
    # y - f = r2 + (rho_exact - rho)/C + (rho/C - delta) + t/C^2; the first two
    # errors are below u((q + |resid| + |rho|)/C + |delta|), and the factor 16
    # also covers the roundings of the comparisons below.
    bound = np.add(q, np.abs(resid, out=resid), out=q)
    bound += np.abs(rho, out=rho)
    f = np.add(f0, delta, out=s)
    back = np.subtract(f, f0, out=err)
    # f + r2 = f0 + delta exactly, for r2 = (f0 - (f - back)) + (delta - back)
    r2 = np.add(np.subtract(f0, np.subtract(f, back, out=e), out=e), np.subtract(delta, back, out=err), out=e)
    gap = np.subtract(f, _below(f, f0), out=f0)
    bound /= C
    bound += gap
    bound += np.abs(delta, out=delta)
    bound *= 16 * _U
    half = np.multiply(gap, 0.5, out=gap)
    ok &= np.add(r2, half, out=err) > bound
    room = np.subtract(half, r2, out=half)
    room -= float(Fraction(1, ab ** (2 * W))) * (1 + 2.0**-50)  # at least t/C^2 < (ab)^-2W, in every cell
    ok &= room > bound
    return f.reshape(block.shape), ok.reshape(block.shape)


def _below(f: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The double below each double f > 0, into out: its bit pattern as an int64, less one."""
    return np.subtract(f.view(np.int64), 1, out=out.view(np.int64)).view(np.float64)


def _digit_windows(block: np.ndarray, ab: int, W: int, scratch: np.ndarray) -> np.ndarray:
    """V[i, s]: the integer of digits s .. s+W-1 of row i of `block`, as a double, for s <= width - W.

    V is row 0 of `scratch`, and each pass runs over the rows laid end to
    end, with zeros past the last.  Windows of width 1, 2, 4, ... double by
    one multiply-add each, w_2k[p] = w_k[p] (ab)^k + w_k[p + k], into rows 1
    and 2 in turn; the set bits of W join them from the narrowest up: for
    W = 20, V = w_4 (ab)^16 + w_16[p + 4], floor(log2 W) + popcount(W) - 1
    steps in place of W - 1.  Every value is an integer below
    (ab)^W <= 2^53, so each step is exact in doubles.
    """
    V, buffers, w, k, width = scratch[0], scratch[1:3], block.reshape(-1), 1, 0
    V[:] = 0
    while True:
        if W & k:  # V, the first `width` digits of each window, takes the next k
            V *= ab**k
            V[: V.size - width] += w[width:]
            width += k
        if 2 * k > W:
            return V.reshape(block.shape)
        w2 = np.multiply(w, ab**k, out=buffers[k.bit_length() % 2])
        w2[:-k] += w[k:]
        w, k = w2, 2 * k


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
