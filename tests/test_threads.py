"""The N^2 kernels give the same output at any thread count, and keep their threads to themselves."""
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

from abtorus import TorusPoint, build_test_family, irregular, measures, orbit_fracs, point_of_word, torus
from abtorus.irregular import SAMPLE_DEN, IrregularRecipe, Schedule, _bin_weights
from abtorus.measures import _bin_counts, _interval_membership
from words import random_word

BLOCK_ROWS = 2
# One point per path of orbit_fracs: int64 (den < 2^31), the base-6 digit
# automaton (den = 6^40), and big-integer rows (den = 2^61 - 1, prime).
POINTS = {
    "int64": TorusPoint(2**31 - 2, 2**31 - 1),
    "digit": point_of_word(random_word(6, 40, seed=3)),
    "object": TorusPoint(123456789123, 2**61 - 1),
}


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool made in the test with the patched `_THREADS`, shut down after it."""
    monkeypatch.setattr(torus, "_pool", None)
    yield
    if torus._pool is not None:
        torus._pool.shutdown()


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3), st.integers(1, 60), st.integers(1, 12))
def test_spans_cover_the_rows_once_at_block_starts(threads, N, R):
    """_spread hands each R-row block to the task once, in row order, on at most min(_THREADS, blocks) threads."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(torus, "_THREADS", threads)
        mp.setattr(torus, "_pool", None)
        try:
            got = torus._spread(lambda s, e: (s, e, threading.get_ident()), N, R)
        finally:
            if torus._pool is not None:
                torus._pool.shutdown()
    assert all(s % R == 0 and s < e <= s + R for s, e, _ in got)
    assert [r for s, e, _ in got for r in range(s, e)] == list(range(N))
    assert len({ident for _, _, ident in got}) <= min(threads, -(-N // R))


@pytest.mark.parametrize("path", POINTS)
@pytest.mark.parametrize("threads", [2, 3])
@pytest.mark.parametrize("edge", ["below", "at", "above", "2R+1"])
def test_grids_and_bin_weights_equal_the_one_thread_result(monkeypatch, fresh_pool, path, threads, edge):
    N = {"below": threads * BLOCK_ROWS - 1, "at": threads * BLOCK_ROWS,
         "above": threads * BLOCK_ROWS + 1, "2R+1": 2 * BLOCK_ROWS + 1}[edge]
    x = POINTS[path]
    assert (torus._digit_length(x, 2, 3) > 0) == (path == "digit")
    monkeypatch.setattr(torus, "_BLOCK_CELLS", BLOCK_ROWS * N)  # blocks of BLOCK_ROWS rows
    results = {}
    for t in (1, threads):
        monkeypatch.setattr(torus, "_THREADS", t)
        fracs = orbit_fracs(x, 2, 3, N)
        counts = _bin_counts(x, 2, 3, N, 7)
        inside = _interval_membership(x, 2, 3, N, Fraction(3, 4), Fraction(6, 5))  # wraps past 1
        results[t] = fracs, _bin_weights(fracs), counts, inside
    (one, w_one, c_one, i_one), (many, w_many, c_many, i_many) = results[1], results[threads]
    assert np.array_equal(one, many) and np.array_equal(w_one, w_many)
    assert np.array_equal(c_one, c_many) and np.array_equal(i_one, i_many)


def test_digit_fallbacks_of_both_automata_are_recomputed(monkeypatch, fresh_pool):
    """With no cell certified, every cell below and above the diagonal comes from the merged fallback lists."""
    window = torus._window_fracs

    def certify_none(*args):
        vals, ok = window(*args)
        return np.full_like(vals, np.nan), np.zeros_like(ok)

    monkeypatch.setattr(torus, "_window_fracs", certify_none)
    x, N = POINTS["digit"], 30
    exact = np.array([[pow(2, m, x.den) * pow(3, n, x.den) * x.num % x.den / x.den for n in range(N)]
                      for m in range(N)])
    for t in (1, 2, 3):
        monkeypatch.setattr(torus, "_THREADS", t)
        assert np.array_equal(orbit_fracs(x, 2, 3, N), exact)


def run_forked_grid(conn, x, N):
    conn.send(orbit_fracs(x, 2, 3, N))
    conn.close()


def test_forked_child_makes_its_own_pool(monkeypatch, fresh_pool):
    monkeypatch.setattr(torus, "_THREADS", 2)
    x, N = POINTS["int64"], 300  # two blocks of 109 rows and one of 82: two spans
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
    x = TorusPoint(123456789, SAMPLE_DEN)
    assert irregular.membership_X(x, 2, 400, build_test_family(2), 2, 3)
    assert len(workers) == 2  # the int64 rows did run on two threads
    workers.clear()
    measures.empirical_measure(x, 2, 3, 400, 10, 2)
    assert len(workers) == 2  # the bin counts and the Fourier grid
    workers.clear()
    measures.semiequidist_profile(x, 2, 3, (Fraction(1, 4), Fraction(1, 2)), [200, 400], 0.5)
    assert len(workers) == 2  # the interval membership grid
    schedule = Schedule(a=2, b=3, r=Fraction(1, 2), l=(2,), N=(5,), L=(60,))
    recipe = IrregularRecipe(schedule, seed=0, donors=[], donor_tries=[])
    irregular.verify_irregular(random_word(6, 60, seed=1), recipe, build_test_family(2))
    names = {name for name, _ in seen}
    assert {"membership_X", "orbit_fracs", "orbit_residues", "verify_irregular", "digits_of"} <= names
    assert {"empirical_measure", "semiequidist_profile"} <= names
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
