from fractions import Fraction

import pytest

from abtorus import choose_schedule, synthesize_point, torus, verify_irregular


@pytest.fixture
def fresh_pool(monkeypatch):
    """A pool made in the test with the patched `_THREADS`, shut down after it."""
    monkeypatch.setattr(torus, "_pool", None)
    yield
    if torus._pool is not None:
        torus._pool.shutdown()


@pytest.fixture(scope="session")
def schedule_d2():
    return choose_schedule(2, 3, Fraction(1, 2), 2, seed=0)


@pytest.fixture(scope="session")
def synth_d2(schedule_d2):
    return synthesize_point(schedule_d2, seed=0)


@pytest.fixture(scope="session")
def report_d2(synth_d2):
    return verify_irregular(*synth_d2)
