"""The N^2 kernels give the same output at any thread count, and keep their threads to themselves."""
import hashlib
import inspect
import json
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abtorus import DigitWord, TorusPoint, build_test_family, irregular, measures, orbit_fracs, point_of_word, torus
from abtorus.irregular import IrregularRecipe, Schedule, bump_function
from abtorus.torus import _bin_counts
from references import bump_mean, exact_residues, ld_member_mean, mp_member_mean
from words import random_word

BLOCK_ROWS = 2
# One point per path of orbit_fracs: int64 (den < 2^31), the base-6 digit
# automaton (den = 6^40), and big-integer rows (den = 2^61 - 1, prime); and
# one whose rows repeat with period 3 (2^3 = 1 mod 7), so only rows 0..2 are
# computed and the rest are copies.
POINTS = {
    "int64": TorusPoint(2**31 - 2, 2**31 - 1),
    "digit": point_of_word(random_word(6, 40, seed=3)),
    "object": TorusPoint(123456789123, 2**61 - 1),
    "periodic": TorusPoint(3, 7),
}
# An int64 point with no repeated row on the grids below: the order of 2 mod
# the prime 10^9 + 7 is 500000003.  On den 2^31 - 1 every grid has only 31
# distinct rows, which fit in one block, so no second thread would start.
APERIODIC = TorusPoint(123456789, 1_000_000_007)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 60), st.integers(1, 12))
def test_spans_cover_the_rows_once_at_block_starts(threads, N, R):
    """_spread hands each R-row block to the task once, on at most min(_THREADS, blocks) threads."""
    got = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_THREADS", threads)
        mp.setattr(torus, "_pool", None)
        try:
            torus._spread(lambda s, e: got.append((s, e, threading.get_ident())), N, R)
        finally:
            if torus._pool is not None:
                torus._pool.shutdown()
    assert all(s % R == 0 and s < e <= s + R for s, e, _ in got)
    assert [r for s, e, _ in sorted(got) for r in range(s, e)] == list(range(N))
    assert len({ident for _, _, ident in got}) <= min(threads, -(-N // R))


@pytest.mark.parametrize("path", POINTS)
@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("edge", ["below", "at", "above", "2R+1"])
def test_grids_and_counts_equal_the_one_thread_result(monkeypatch, fresh_pool, path, threads, edge):
    N = {"below": threads * BLOCK_ROWS - 1, "at": threads * BLOCK_ROWS,
         "above": threads * BLOCK_ROWS + 1, "2R+1": 2 * BLOCK_ROWS + 1}[edge]
    x = POINTS[path]
    assert (torus._digit_length(x, 2, 3) > 0) == (path == "digit")
    assert (torus._row_period(x, 2, N) < N) == (path == "periodic" and N > 3)
    horizons = [N, 1, N // 2 + 1, N]  # unsorted, with a repeat
    sums = {}  # the character sums in one block of every row
    for t in (1, threads):
        monkeypatch.setattr(torus, "_THREADS", t)
        sums[t] = character_sums(x, N, horizons)
    monkeypatch.setattr(torus, "_BLOCK_CELLS", BLOCK_ROWS * N)  # blocks of BLOCK_ROWS rows
    results = {}
    for t in (1, threads):
        monkeypatch.setattr(torus, "_THREADS", t)
        fracs = orbit_fracs(x, 2, 3, N)
        counts = _bin_counts(x, 2, 3, N, 7)
        interval = (Fraction(3, 4), Fraction(6, 5))  # wraps past 1
        ratios = measures.semiequidist_profile(x, 2, 3, interval, sorted(horizons), 0.5).ratios  # the horizon counts
        results[t] = fracs, counts, ratios
        assert character_sums(x, N, horizons) == sums[1] == sums[t]
    (one, c_one, r_one), (many, c_many, r_many) = results[1], results[threads]
    assert np.array_equal(one, many)
    assert np.array_equal(c_one, c_many) and r_one == r_many


def character_sums(x, N, horizons):
    """Every public output read off the character sums: compared with ==, so bit for bit."""
    fourier = measures.empirical_measure(x, 2, 3, N, 7, 5).fourier
    averages = [measures.fourier_average(x, 2, 3, N, k) for k in (1, 3, -2, -15, 3 + 10**21 * x.den)]  # the last is 3 mod den
    return fourier, averages, measures.convergence_diagnostic(x, 2, 3, horizons, 5)


# Digit-path points for the recompute: a zero run of 45 >= 2W base-6 digits
# before a 511-digit tail, so the run's cells read nothing in their two
# windows; and den = 6^14 (the last digit is prime to 6) with K = 14 < N, so
# the x3 automaton reaches the dyadic points 3^j x, j >= 14.
ZERO_RUN = point_of_word(
    DigitWord(6, random_word(6, 5, seed=4).digits + (0,) * 45 + random_word(6, 510, seed=5).digits + (1,))
)
SHORT = point_of_word(DigitWord(6, random_word(6, 13, seed=6).digits + (1,)))


# The N = 30 grid in one block, and in blocks of 1 and 3 whole states: the
# recomputed cells then cross block boundaries, and every block after the
# first steps on from the carried state block[0] = block[n].
@pytest.mark.parametrize(
    "x, K, states",
    [pytest.param(x, K, states, id=name + (f"-{states}-state" if states else ""))
     for states in (None, 1, 3)
     for name, x, K in [("digit", POINTS["digit"], 40), ("zero-run", ZERO_RUN, 561), ("short", SHORT, 14)]],
)
def test_digit_fallbacks_of_both_automata_are_recomputed(monkeypatch, fresh_pool, x, K, states):
    """With no cell certified, each automaton recomputes every nonzero cell of its triangle exactly
    once, and no zero cell or cell off the grid; the main diagonal, which both write, twice."""
    if states:
        L = K + 40  # 2W = 40 digits in base 6
        monkeypatch.setattr(torus, "_BLOCK_CELLS", -(-states * L // 2))  # 2 _BLOCK_CELLS // L = states
    heights = []
    window = torus._window_fracs

    def certify_none(block, *args):
        heights.append(len(block))
        vals, ok = window(block, *args)
        return np.full_like(vals, np.nan), np.zeros_like(ok)

    monkeypatch.setattr(torus, "_window_fracs", certify_none)
    calls = []
    fallback = torus._tail_value

    def counted(*args):
        calls.append(1)
        return fallback(*args)

    monkeypatch.setattr(torus, "_tail_value", counted)
    N = 30
    assert torus._digit_length(x, 2, 3) == K
    exact = np.array([[r / x.den for r in row] for row in exact_residues(x, 2, 3, N)])
    for t in (1, 2, 3):
        monkeypatch.setattr(torus, "_THREADS", t)
        calls.clear()
        assert np.array_equal(orbit_fracs(x, 2, 3, N), exact)
        assert len(calls) == np.count_nonzero(exact) + np.count_nonzero(np.diag(exact))
    assert max(heights) == (states or N)


# sha256 of the little-endian float64 bytes of the 2493^2 verify grid of the
# depth-2 seed-0 word (K = 1246 digits).  Every cell is the correctly rounded
# double, so no rewrite of the digit kernel may move a bit of it.
SEED0_GRID_SHA256 = "62f0e5ef16e9e4101f6e2ee541718ea68462107fcd17dafecaaa375d8f956c63"


@pytest.mark.parametrize("threads", [1, 2])
def test_seed0_verify_grid_is_pinned(monkeypatch, fresh_pool, synth_d2, threads):
    word, recipe = synth_d2
    x, L = point_of_word(word), recipe.schedule.L[-1]
    assert (L, torus._digit_length(x, 2, 3)) == (2493, 1246)
    monkeypatch.setattr(torus, "_THREADS", threads)
    grid = np.ascontiguousarray(orbit_fracs(x, 2, 3, L), dtype="<f8")
    assert hashlib.sha256(grid.data).hexdigest() == SEED0_GRID_SHA256


# A depth-3 schedule on a 48-digit word with a zero block before each L_k,
# so every level's bump average is positive; level 3 reads the cos of
# frequency 2, the second power of the character sums.
SMALL = Schedule(a=2, b=3, r=Fraction(1, 2), l=(2, 2, 2), N=(5, 13, 29), L=(12, 24, 48))
SMALL_WORD = DigitWord(6, tuple(0 if i in range(8, 12) or i in range(19, 24) or i >= 40 else d
                                for i, d in enumerate(random_word(6, 48, seed=7).digits)))


def test_verify_reductions_match_exact_means(monkeypatch, fresh_pool):
    """verify_irregular's averages against exact means over the same double cells, at 1, 2 and 3 threads.

    A bump average is two float sums of at most L_k terms in [0, 1] and a
    division: within 2 L_k units of 2^-53 of the exact Fraction mean,
    relative.  A trig average reads S_j = mean of e1^j, each e1 within
    (6.5 + 2 pi) 2^-53 of e(f) (`measures._phases`) and each power adding
    at most 2^-51; its row and corner sums of N_k terms each add N_k 2^-53.
    So it is within (16 j + 2 N_k + 4) 2^-53 of the 30-digit mpmath mean.
    """
    mpmath = pytest.importorskip("mpmath")
    family = build_test_family(SMALL.depth)  # the members verify_irregular reads
    recipe = IrregularRecipe(SMALL, seed=0, donors=[], donor_tries=[])
    monkeypatch.setattr(torus, "_BLOCK_CELLS", 2 * SMALL.L[-1])  # blocks of 2 rows of the grid, 3 of its N_3 corner
    reports = {}
    for t in (1, 2, 3):
        monkeypatch.setattr(torus, "_THREADS", t)
        reports[t] = irregular.verify_irregular(SMALL_WORD, recipe)
    assert reports[1] == reports[2] == reports[3]
    x = point_of_word(SMALL_WORD)
    bump = bump_function(2, 3, SMALL.r)
    for level, N_k, L_k in zip(reports[1].levels, SMALL.N, SMALL.L):
        exact = bump_mean(bump, orbit_fracs(x, 2, 3, L_k))
        assert exact > 0
        assert abs(Fraction(level.bump_average) - exact) <= 2 * L_k * exact / 2**53
        cells = orbit_fracs(x, 2, 3, N_k)
        for avg, f in zip(level.averages, family):
            mean = mp_member_mean(f, cells)
            assert abs(avg - mean) <= (16 * f.freq + 2 * N_k + 4) * mpmath.mpf(2) ** -53
            if np.finfo(np.longdouble).nmant >= 63:  # the reference of the golden sine average
                ref = ld_member_mean(f, cells)
                with mpmath.workdps(30):
                    assert abs(mpmath.mpf(ref.numerator) / ref.denominator - mean) < mpmath.mpf(2) ** -60


def run_forked_grid(conn, x, N):
    conn.send(orbit_fracs(x, 2, 3, N))
    conn.close()


def test_forked_child_makes_its_own_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(torus, "_THREADS", 2)
    x, N = APERIODIC, 300  # two blocks of 109 rows and one of 82: two spans
    assert torus._row_period(x, 2, N) == N
    grid = orbit_fracs(x, 2, 3, N)
    assert torus._pool is not None
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=run_forked_grid, args=(send, x, N))
    child.start()
    send.close()
    try:
        assert recv.poll(60), "the forked child did not return its grid"
        assert np.array_equal(recv.recv(), grid)
        child.join(60)
        assert not child.is_alive() and child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_public_calls_stay_on_the_calling_thread(monkeypatch, fresh_pool):
    """The benchmark tracer wraps public functions and keeps one span stack: workers must call none."""
    monkeypatch.setattr(torus, "_THREADS", 2)
    caller, seen = threading.get_ident(), []
    for module in (torus, measures, irregular):
        for name, fn in list(vars(module).items()):
            if inspect.isfunction(fn) and not name.startswith("_"):
                def recorder(*args, _fn=fn, _name=name, **kwargs):
                    seen.append((_name, threading.get_ident()))
                    return _fn(*args, **kwargs)

                monkeypatch.setattr(module, name, recorder)
    workers = set()
    builder = torus._residue_rows

    def worker_rows(*args):
        rows = builder(*args)

        def recorded(s, e):
            workers.add(threading.get_ident())
            return rows(s, e)

        return recorded

    monkeypatch.setattr(torus, "_residue_rows", worker_rows)
    monkeypatch.setattr(measures, "_residue_rows", worker_rows)  # semiequidist_profile reads the rows itself
    spread, spread_workers = torus._spread, {}

    def recorded_spread(task, *args):
        kernel = sys._getframe(1).f_code.co_name  # the torus function that spreads the task

        def recorded(s, e):
            spread_workers.setdefault(kernel, set()).add(threading.get_ident())
            return task(s, e)

        return spread(recorded, *args)

    def threads_per_kernel():
        """Threads per spreading function since the last call; clears both records."""
        threads = {kernel: len(idents) for kernel, idents in spread_workers.items()}
        spread_workers.clear()
        workers.clear()
        return threads

    monkeypatch.setattr(torus, "_spread", recorded_spread)
    x = APERIODIC
    assert torus._row_period(x, 2, 404) == 404  # K = 16 reads plane 16 as plane 1 from row 4
    assert irregular.membership_X(x, 2, 400, 2, 3)
    assert len(workers) == 2  # the int64 rows did run on two threads
    threads_per_kernel()
    measures.empirical_measure(x, 2, 3, 400, 10, 16)
    assert len(workers) == 2  # the bin counts, and the float rows read inside their character sums
    assert threads_per_kernel() == {"_bin_counts": 2, "_corner_totals": 2}
    measures.semiequidist_profile(x, 2, 3, (Fraction(1, 4), Fraction(1, 2)), [200, 400], 0.5)
    assert len(workers) == 2  # the residue rows and their interval counts
    assert threads_per_kernel() == {"_corner_totals": 2}
    for call in (lambda: measures.fourier_average(x, 2, 3, 400, 3),
                 lambda: measures.convergence_diagnostic(x, 2, 3, [400, 200], 16)):
        call()
        assert len(workers) == 2  # the float rows, read inside their character sums
        assert threads_per_kernel() == {"_corner_totals": 2}
    schedule = Schedule(a=2, b=3, r=Fraction(1, 2), l=(2,), N=(5,), L=(60,))
    recipe = IrregularRecipe(schedule, seed=0, donors=[], donor_tries=[])
    irregular.verify_irregular(random_word(6, 60, seed=1), recipe)
    names = {name for name, _ in seen}
    assert {"membership_X", "orbit_fracs", "verify_irregular", "digits_of"} <= names
    assert {"empirical_measure", "semiequidist_profile", "fourier_average", "convergence_diagnostic"} <= names
    assert {ident for _, ident in seen} == {caller}


def test_bin_counts_hold_one_bin_array_per_thread(monkeypatch, fresh_pool):
    """32 blocks of 2 rows with d = 2^16 bins: kept per block, their counts would take 16 MiB."""
    monkeypatch.setattr(torus, "_THREADS", 2)
    N, d = 64, 1 << 16
    monkeypatch.setattr(torus, "_BLOCK_CELLS", 2 * N)
    tracemalloc.start()
    try:
        counts = _bin_counts(POINTS["int64"], 2, 3, N, d)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts.sum() == N * N
    assert peak < 4 * 8 * d  # the total and one block's counts per thread


# The points of the row-source differential test: no repeated row, x2 period
# 31 (2^31 = 1 mod SAMPLE_DEN), x2 period 61 on big-integer rows, and the
# base-6 digit path.
ROW_SOURCE_POINTS = {
    "aperiodic": APERIODIC,
    "period-31": TorusPoint(123456789, irregular.SAMPLE_DEN),
    "2^61-1": TorusPoint(1, 2**61 - 1),
    "digit": point_of_word(random_word(6, 50, seed=11)),
}


def grid_outputs(x, N, horizons, rows):
    """The outputs of empirical_measure (K = 16), fourier_average (k = 1, 5, -7) and
    convergence_diagnostic (K = 16), each formed from `_grid_sums` over the row source rows."""
    fourier = {0: 1}
    for k, (total,) in enumerate(measures._grid_sums(x, 2, 3, rows, [N], 16), start=1):
        c = complex(total) / N**2
        if abs(c) > 1.0:
            c /= abs(c)
        fourier[k], fourier[-k] = c, c.conjugate()
    averages = [complex(measures._grid_sums(x, 2, 3, rows, [N], 1, k)[0, 0]) / N**2 for k in (1, 5, -7)]
    distances = [0.0] * len(horizons)
    for k, sums in enumerate(measures._grid_sums(x, 2, 3, rows, horizons, 16), start=1):
        for i, (h, total) in enumerate(zip(horizons, sums)):
            distances[i] += 2.0 ** (1 - k) * abs(total) / h**2
    return fourier, averages, distances


@pytest.mark.parametrize("x", ROW_SOURCE_POINTS.values(), ids=ROW_SOURCE_POINTS)
def test_character_sums_from_row_blocks_equal_the_grid_sums(monkeypatch, fresh_pool, x):
    """The measures read float row blocks, not a grid: bit for bit the sums over orbit_fracs slices, at 1-3 threads.

    The reference grid is r / den, Python's correctly rounded division of
    each exact residue, and orbit_fracs must equal it.  It is 4 rows and
    columns wider than N: at K = 16 = 2^4, plane 16 is plane 1 read from row 4.
    """
    N, horizons, margin = 70, [70, 23, 36], 4
    exact = np.array([[r / x.den for r in row] for blk in torus.orbit_residues(x, 2, 3, N + margin) for row in blk.tolist()])
    fracs = orbit_fracs(x, 2, 3, N + margin)
    assert np.array_equal(fracs, exact)
    want = grid_outputs(x, N, horizons, lambda s, e: fracs[s:e])
    monkeypatch.setattr(torus, "_BLOCK_CELLS", 3 * N)  # blocks of 3 rows
    for t in (1, 2, 3):
        monkeypatch.setattr(torus, "_THREADS", t)
        got = (
            measures.empirical_measure(x, 2, 3, N, 7, 16).fourier,
            [measures.fourier_average(x, 2, 3, N, k) for k in (1, 5, -7)],
            measures.convergence_diagnostic(x, 2, 3, horizons, 16),
        )
        assert got == want, t


def test_character_sums_hold_no_grid(monkeypatch, fresh_pool):
    """fourier_average and empirical_measure at N = 2000 peak below 2 N^2 bytes, a quarter of one float grid."""
    monkeypatch.setattr(torus, "_THREADS", 2)  # each thread holds one block's temporaries
    x, N = APERIODIC, 2000
    for call in (lambda: measures.fourier_average(x, 2, 3, N, 5), lambda: measures.empirical_measure(x, 2, 3, N, 20, 16)):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * N * N


def test_cli_without_an_orbit_grid_makes_no_pool():
    src = str(Path(torus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = (
        "import contextlib, io, json, sys\n"
        "from abtorus import cli, torus\n"
        "out = {}\n"
        "for argv in (%r, %r):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.run(argv) == 0\n"
        "    out[argv[0]] = ['concurrent.futures' in sys.modules, torus._pool is not None]\n"
        "print(json.dumps(out))\n"
    ) % (["count-r", "-K", "2", "-N", "6", "-t", "0.5"], ["empirical", "-a", "2", "-b", "3", "-x", "1/7", "-N", "400", "-d", "4"])
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    pooled = torus._THREADS > 1
    assert json.loads(proc.stdout) == {"count-r": [False, False], "empirical": [pooled, pooled]}
