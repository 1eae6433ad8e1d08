from fractions import Fraction

import pytest

from abtorus import choose_schedule, synthesize_point, verify_irregular


@pytest.fixture(scope="session")
def schedule_d2():
    return choose_schedule(2, 3, Fraction(1, 2), 2, seed=0)


@pytest.fixture(scope="session")
def synth_d2(schedule_d2):
    return synthesize_point(schedule_d2, seed=0)


@pytest.fixture(scope="session")
def report_d2(synth_d2):
    return verify_irregular(*synth_d2)
