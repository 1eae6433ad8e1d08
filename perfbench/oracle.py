"""Independent expected outputs for every benchmark job.

Each check recomputes a job's result by a different route than the library
(recurrences instead of modular powers, an integer lattice instead of
``Fraction`` intervals, sorted count vectors instead of compositions, a
digit cellular automaton instead of big-integer orbits) and compares:

* exact fields (integers, fractions, verdicts, exit codes, counts, orbit
  strings, ``bump_l``) must be equal;
* float fields must agree within ``FLOAT_TOL`` (absolute).

``FLOAT_TOL`` = 1e-9 admits any last-bit difference a faster kernel can
make: every float field is an average or a smooth function of at most
2493² cells whose values differ by a few ulp (< 1e-14 in total). It catches
a wrong bin, level or schedule: moving one cell of a grid of at most 2493²
cells moves an average by at least ~1e-7 times the test function's jump.
"""
from __future__ import annotations

import json
import math
import random
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from workloads import A, B

FLOAT_TOL = 1e-9
TWO_PI = 2.0 * math.pi

# The irregular construction at r=1/2: the schedule the Monte Carlo search
# settles on for every seed tried (all good-set samples hit), the Monte
# Carlo sample denominator, and the test-family offset.
IRR_R = Fraction(1, 2)
IRR_SCHEDULES = {1: ((23,), (48,)), 2: ((23, 1175), (48, 2493))}
MC_SAMPLES = 150  # good-set samples per level of the schedule search (the CLI's default)
SAMPLE_DEN = 2_147_483_647
ETA = 0.01
INTEGRAL = ETA + (1.0 - ETA) / 2.0  # Lebesgue integral of every test function
WINDOW = 21  # base-6 digits per float window: 6^21 < 2^63, tail < 6^-21


class CheckError(Exception):
    """A job's output differs from the expected output."""


def _close(name: str, got, want: float) -> None:
    if not abs(float(got) - want) <= FLOAT_TOL:
        raise CheckError(f"{name}: got {got!r}, expected {want!r} (tol {FLOAT_TOL})")


def _equal(name: str, got, want) -> None:
    if got != want:
        raise CheckError(f"{name}: got {str(got)[:200]}, expected {str(want)[:200]}")


def _partitions(total: int, parts: int, cap: int):
    """Nonincreasing count vectors of length `parts`, entries <= cap, summing to total."""
    if parts == 1:
        if total <= cap:
            yield (total,)
        return
    for head in range(min(total, cap), -1, -1):
        if head * parts < total:
            break
        for rest in _partitions(total - head, parts - 1, head):
            yield (head,) + rest


def _types(k: int, N: int):
    """(entropy, sorted count vector) of every type class of length-N words over k symbols."""
    for counts in _partitions(N, k, N):
        yield -sum(c / N * math.log(c / N) for c in counts if c), counts


class Oracle:
    """Expected outputs, with caches shared by the jobs of one run."""

    def __init__(self):
        self._entropies: dict[tuple[int, int], list[float]] = {}
        self._residues: dict[tuple[int, int], np.ndarray] = {}
        self._sums: dict[tuple, complex] = {}
        self.irregular_tries: list[int] | None = None

    # ---- type classes -------------------------------------------------

    def entropies(self, k: int, N: int) -> list[float]:
        """Entropy of every type class of length-N words over k symbols."""
        key = (k, N)
        if key not in self._entropies:
            self._entropies[key] = [h for h, _ in _types(k, N)]
        return self._entropies[key]

    def count_R(self, k: int, N: int, t: float) -> int:
        """Words per type class, summed over the classes with entropy <= t."""
        fact = [1] * (N + 1)
        for i in range(1, N + 1):
            fact[i] = fact[i - 1] * i
        total = 0
        for h, counts in _types(k, N):
            if h <= t:
                words = fact[N]
                for c in counts:
                    words //= fact[c]
                arrangements = fact[k]
                for c in set(counts):
                    arrangements //= fact[counts.count(c)]
                total += words * arrangements
        return total

    # ---- orbit grids of p/q with q < 2^31 -------------------------------

    def residues(self, p: int, q: int, N: int) -> np.ndarray:
        """R[m, n] = a^m b^n p mod q by row and column recurrences."""
        key = (p, q)
        have = self._residues.get(key)
        if have is None or have.shape[0] < N:
            col = np.empty(N, dtype=np.int64)
            v = p % q
            for n in range(N):
                col[n] = v
                v = v * B % q
            grid = np.empty((N, N), dtype=np.int64)
            grid[0] = col
            for m in range(1, N):
                grid[m] = grid[m - 1] * A % q
            self._residues[key] = have = grid
        return have[:N, :N]

    def char_sum(self, p: int, q: int, k: int, h: int) -> complex:
        """Sum of e(k · a^m b^n p / q) over 0 <= m, n < h, phases reduced exactly mod q."""
        key = (p, q, k, h)
        if key not in self._sums:
            r = self.residues(p, q, h) * k % q
            self._sums[key] = complex(np.exp(1j * TWO_PI * (r / q)).sum())
        return self._sums[key]

    # ---- irregular-d2 work counts ----------------------------------------

    def irregular_counts(self, depth: int) -> dict[str, int]:
        """Exact per-run counts of one verify-irregular job at `depth`.

        The schedule search tests MC_SAMPLES points per level at horizon N_k,
        synthesis tests the replayed donor tries at N_k, and verification
        builds one big-denominator grid at L_depth. Needs the replay, which
        the verify-irregular output check makes.
        """
        Ns, Ls = IRR_SCHEDULES[depth]
        tries = self.irregular_tries
        return {
            "torus.orbit_fracs.int64.cells": sum((MC_SAMPLES + t) * N * N for t, N in zip(tries, Ns)),
            "torus.orbit_fracs.bigint.cells": Ls[-1] ** 2,
            "irregular.membership_X.calls": MC_SAMPLES * depth + sum(tries),
            "irregular.synthesize_point.donor_tries": sum(tries),
        }

    # ---- dispatch -------------------------------------------------------

    def check(self, job, code, out: str) -> None:
        """Raise CheckError unless (code, out) is the expected output of `job`."""
        if code is None:
            raise CheckError(out)
        e = job.expect
        if job.func is not None:
            _equal("exit", code, 0)
            getattr(self, "_" + job.func)(e, json.loads(out))
            return
        cmd = job.argv[0]
        if cmd == "count-r":
            _equal("exit", code, 0)
            _equal("count", out, f"{self.count_R(e['k'], e['N'], e['t'])}\n")
            return
        payload = json.loads(out)
        want_code = getattr(self, "_" + cmd.replace("-", "_"))(e, payload)
        _equal("exit", code, want_code)

    # ---- orbit-stats ----------------------------------------------------

    def _empirical(self, e, out) -> int:
        p, q, N, d, K = e["p"], e["q"], e["N"], e["d"], e["K"]
        counts = np.bincount((self.residues(p, q, N) * d // q).ravel(), minlength=d)
        _equal("d", out["d"], d)
        _equal("N", out["N"], N)
        _equal("seed", out["seed"], 0)
        _equal("weights", out["weights"], [repr(int(c) / N**2) for c in counts])
        fourier = out["fourier"]
        _equal("fourier keys", sorted(map(int, fourier)), list(range(-K, K + 1)))
        _equal("fourier[0]", fourier["0"], ["1", "0"])
        for k in range(1, K + 1):
            c = self.char_sum(p, q, k, N) / N**2
            re, im = fourier[str(k)]
            _close(f"fourier[{k}].real", re, c.real)
            _close(f"fourier[{k}].imag", im, c.imag)
            _equal(f"fourier[{-k}]", [float(v) for v in fourier[str(-k)]], [float(re), -float(im)])
        return 0

    def _fourier(self, e, out) -> int:
        c = self.char_sum(e["p"], e["q"], e["k"], e["N"]) / e["N"] ** 2
        _equal("keys", sorted(out), ["imag", "k", "real", "seed"])
        _equal("k", out["k"], e["k"])
        _close("real", out["real"], c.real)
        _close("imag", out["imag"], c.imag)
        return 0

    def _equidist(self, e, out) -> int:
        p, q = e["p"], e["q"]
        lo, hi = e["U"]
        horizons = list(e["horizons"])
        r16 = self.residues(p, q, horizons[-1]) * 16
        inside = (r16 > lo * q) & (r16 < hi * q)
        ratios = [int(inside[:h, :h].sum()) / h**2 for h in horizons]
        measure = (hi - lo) / 16
        liminf = min(ratios[-max(1, len(ratios) // 4):])
        verdict = liminf >= e["t"] * measure - 0.05
        want = {
            "t_claim": e["t"],
            "target_measure": measure,
            "horizons": horizons,
            "ratios": ratios,
            "liminf_estimate": liminf,
            "tolerance": 0.05,
            "verdict": "pass" if verdict else "fail",
            "meta": {"x": f"{p}/{q}", "a": A, "b": B},
        }
        _equal("report", out, want)
        return 0 if verdict else 2

    def _orbit(self, e, out) -> int:
        q = e["q"]
        r = self.residues(e["p"], q, e["N"])
        g = np.gcd(r, q)
        num, den = (r // g).tolist(), (q // g).tolist()
        rows = [[f"{a}/{b}" for a, b in zip(nr, dr)] for nr, dr in zip(num, den)]
        _equal("orbit", out, {"orbit": rows, "seed": 0})
        return 0

    def _convergence_diagnostic(self, e, out) -> None:
        p, q, K = e["p"], e["q"], e["K"]
        horizons = list(e["horizons"])
        _equal("length", len(out), len(horizons))
        for i, h in enumerate(horizons):
            want = sum(2.0 ** (1 - k) * abs(self.char_sum(p, q, k, h)) / h**2 for k in range(1, K + 1))
            _close(f"distance[{h}]", out[i], want)

    def _invariance_defect(self, e, out) -> None:
        """Telescoped: shifting the grid once changes only its first and last row (or column)."""
        p, q, N, k = e["p"], e["q"], e["N"], e["k"]
        r = self.residues(p, q, N)
        if e["side"] == "a":
            first, last = r[0], r[N - 1] * A % q
        else:
            first, last = r[:, 0], r[:, N - 1] * B % q
        phases = np.exp(1j * TWO_PI * (np.stack([last, first]) * k % q / q))
        _close("defect", out, abs((phases[0] - phases[1]).sum()) / N**2)

    # ---- moran-types ----------------------------------------------------

    def _box_dim(self, e, out) -> int:
        """Box counts on the integer lattice m^-depth of the left-packed realization."""
        counts, m, depth = e["counts"], e["m"], e["depth"]
        lefts = np.zeros(1, dtype=np.int64)
        for k in range(1, depth + 1):
            n = counts[(k - 1) % len(counts)]
            lefts = (lefts[:, None] + m ** (depth - k) * np.arange(n)[None, :]).ravel()
        xs, ys = [], []
        for eps in map(Fraction, e["scales"].split(",")):
            size = eps * m**depth  # box width in lattice units; each interval is one unit long
            if size.denominator != 1:
                raise CheckError(f"scale {eps} is finer than the lattice")
            first = lefts // size.numerator
            last = np.maximum(-(-(lefts + 1) // size.numerator) - 1, first)
            if (last - first).max() > 1:
                raise CheckError("interval wider than two boxes")
            xs.append(math.log(eps.denominator) - math.log(eps.numerator))
            ys.append(math.log(len(np.union1d(first, last))))
        slope = float(np.polyfit(xs, ys, 1)[0])
        _equal("keys", sorted(out), ["depth", "estimate", "seed"])
        _equal("depth", out["depth"], depth)
        _close("estimate", out["estimate"], slope)
        return 0

    def _growth(self, e, out) -> int:
        k, t = e["k"], e["t"]
        profile = out["profile"]
        _equal("horizons", [N for N, _ in profile], list(e["horizons"]))
        for N, v in profile:
            _close(f"growth[{N}]", v, math.log(self.count_R(k, N, t)) / N)
        return 0

    def _itinerary(self, e, out) -> int:
        p, q, d, M, N = e["p"], e["q"], e["d"], e["M"], e["N"]
        cyl, v = [], p
        for _ in range(N + M - 1):
            cyl.append(d * v // q)
            v = v * A % q
        indices = []
        for n in range(N):
            cell = 0
            for i in range(M):
                cell = cell * d + cyl[n + i]
            indices.append(cell + 1)
        tally = np.bincount(indices, minlength=d**M + 1)[1:]
        _equal("indices", out["indices"], indices)
        _equal("q", out["q"], [str(Fraction(int(c), N)) for c in tally])
        _close("entropy", out["entropy"], -sum(c / N * math.log(c / N) for c in tally.tolist() if c))
        return 0

    def _moran_dim(self, e, out) -> int:
        """Periodic structure: the exact dimension is the cycle's sum log n_k over its sum log(1/c_k)."""
        counts, m = e["counts"], e["m"]
        s = min(sum(math.log(n) for n in counts) / (len(counts) * math.log(m)), 1.0)
        _equal("exact", out["exact"], True)
        _close("s1", out["s1"], s)
        _close("s2", out["s2"], s)
        return 0

    def _kt_bound(self, e, out) -> int:
        root = math.sqrt(math.log(B) * e["t"])
        _close("bound", out["bound"], 2 * root / (math.log(A) + root))
        return 0

    def _q_bound(self, e, out) -> int:
        _close("bound", out["bound"], 2 * e["t"] / (math.log(A) + e["t"]))
        return 0

    # ---- irregular-d2 ---------------------------------------------------

    def _verify_irregular(self, e, out) -> int:
        depth = e["depth"]
        Ns, Ls = IRR_SCHEDULES[depth]
        digits, self.irregular_tries = _synthesize(e["seed"], Ns, Ls)
        bump_l = 1
        while 3 * Fraction(1, (A * B) ** bump_l) >= (1 - IRR_R) ** 2:
            bump_l += 1
        s = float(A * B) ** -bump_l
        funcs = _family(depth) + [lambda v: np.clip((2.0 * s - v) / s, 0.0, 1.0)]
        sums = _grid_sums(digits, funcs, sorted(set(Ns) | set(Ls)))
        bump_threshold = float((1 - IRR_R) ** 2 / 2)
        _equal("bump_l", out["bump_l"], bump_l)
        _equal("seed", out["seed"], e["seed"])
        _equal("levels", [lc["level"] for lc in out["levels"]], list(range(1, depth + 1)))
        all_ok = True
        for k, lc in enumerate(out["levels"], start=1):
            N_k, L_k = Ns[k - 1], Ls[k - 1]
            _equal(f"level {k} thresholds", (lc["deviation_threshold"], lc["bump_threshold"]),
                   (1.0 / k, bump_threshold))
            _equal(f"level {k} averages", len(lc["averages"]), k)
            devs = []
            for i in range(k):
                avg = sums[i][N_k] / N_k**2
                devs.append(abs(avg - INTEGRAL))
                _close(f"level {k} average {i}", lc["averages"][i], avg)
                _close(f"level {k} deviation {i}", lc["deviations"][i], devs[-1])
                _equal(f"level {k} margin {i}", lc["deviation_margins"][i],
                       lc["deviation_threshold"] - lc["deviations"][i])
            bump_avg = sums[-1][L_k] / L_k**2
            _close(f"level {k} bump average", lc["bump_average"], bump_avg)
            _equal(f"level {k} bump margin", lc["bump_margin"], lc["bump_average"] - lc["bump_threshold"])
            ok = all(dv < 1.0 / k for dv in devs) and bump_avg > bump_threshold
            _equal(f"level {k} passed", lc["passed"], ok)
            all_ok &= ok
        _equal("passed", out["passed"], all_ok)
        return 0 if all_ok else 2


def _family(count: int) -> list:
    """The first `count` test functions eta + (1 - eta)(1 + trig(2 pi j x))/2:
    cosines at even positions, sines at odd ones, frequency j = (i + 2) // 2."""
    def member(freq, trig):
        return lambda v: ETA + (1.0 - ETA) * (1.0 + trig(TWO_PI * freq * v)) / 2.0

    return [member((i + 2) // 2, np.cos if i % 2 == 0 else np.sin) for i in range(count)]


def _member(num: int, k: int, N: int) -> bool:
    """The good-set test for the donor num/SAMPLE_DEN: first k family averages within 1/(3k)."""
    grid = np.empty((N, N), dtype=np.int64)
    v = num
    for n in range(N):
        grid[0, n] = v
        v = v * B % SAMPLE_DEN
    for m in range(1, N):
        grid[m] = grid[m - 1] * A % SAMPLE_DEN
    fracs = grid / SAMPLE_DEN
    return all(abs(float(f(fracs).mean()) - INTEGRAL) < 1.0 / (3 * k) for f in _family(k))


def _synthesize(seed: int, Ns, Ls) -> tuple[list[int], list[int]]:
    """The documented level-block recipe: donor digits, seeded free digits, zeros."""
    ab = A * B
    rng = random.Random(seed)
    digits = [0] * Ls[-1]
    tries_per_level = []
    L_prev = 0
    for k, (N_k, L_k) in enumerate(zip(Ns, Ls), start=1):
        tries = 0
        while True:
            tries += 1
            donor = rng.randrange(1, SAMPLE_DEN)
            if _member(donor, k, N_k):
                break
        tries_per_level.append(tries)
        num, donor_digits = donor, []
        for _ in range(N_k):
            num *= ab
            donor_digits.append(num // SAMPLE_DEN)
            num %= SAMPLE_DEN
        digits[L_prev:N_k] = donor_digits[L_prev:N_k]
        for i in range(N_k, L_k * IRR_R.numerator // IRR_R.denominator):
            digits[i] = rng.randrange(ab)
        L_prev = L_k
    return digits, tries_per_level


def _grid_sums(digits: list[int], funcs, horizons: list[int]) -> list[dict[int, float]]:
    """Sums of each f over the h x h orbit grid of x = 0.digits (base 6), per horizon h.

    Cell (m, n) is frac(6^s c^j x) with s = min(m, n), j = |m - n| and c = 2
    (m >= n) or 3 (m < n). In base 6, x -> 2x mod 1 is the local digit rule
    d_i <- (2 d_i + d_{i+1} // 3) mod 6 (x -> 3x: (3 d_i + d_{i+1} // 2) mod 6),
    and 6^s shifts by s digits, so each diagonal is one automaton state read
    through 21-digit windows.
    """
    ab = A * B
    H = max(horizons)
    pow6 = ab ** np.arange(WINDOW - 1, -1, -1, dtype=np.int64)
    state0 = np.zeros(len(digits) + WINDOW, dtype=np.int64)
    state0[: len(digits)] = digits
    sums = [dict.fromkeys(horizons, 0.0) for _ in funcs]
    for c, other, first_j in ((A, B, 0), (B, A, 1)):
        state = state0
        for j in range(H):
            if j >= first_j:
                n = H - j
                vals = (sliding_window_view(state[: n + WINDOW - 1], WINDOW) @ pow6) / float(ab) ** WINDOW
                for f, out in zip(funcs, sums):
                    prefix = np.cumsum(f(vals))
                    for h in horizons:
                        if j < h:
                            out[h] += float(prefix[h - 1 - j])
            carry = np.zeros_like(state)
            carry[:-1] = state[1:] // other
            state = (c * state + carry) % ab
    return sums
