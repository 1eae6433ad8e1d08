"""The benchmark oracle's irregular constants (perfbench/oracle.py) still match the library.

The oracle hard-codes the depth-1 and depth-2 schedules, the Monte Carlo
sample count and denominator, and the test-function floor and integral, to
replay the traced irregular-d2 counts. A drift would otherwise show only in
the slow benchmark smoke test. The oracle is loaded, not changed.
"""
import importlib.util
import sys
from pathlib import Path

from abtorus import build_test_family, choose_schedule, irregular

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name, monkeypatch):
    """perfbench/<name>.py as module `name`, in sys.modules until the test ends."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_oracle_constants_match_the_library(monkeypatch, schedule_d2):
    workloads = load("workloads", monkeypatch)  # the oracle imports A, B from it
    oracle = load("oracle", monkeypatch)
    assert (workloads.A, workloads.B, oracle.IRR_R) == (schedule_d2.a, schedule_d2.b, schedule_d2.r)
    depth1 = choose_schedule(workloads.A, workloads.B, oracle.IRR_R, 1)
    assert oracle.IRR_SCHEDULES == {1: (depth1.N, depth1.L), 2: (schedule_d2.N, schedule_d2.L)}
    assert (oracle.MC_SAMPLES, oracle.SAMPLE_DEN, oracle.ETA) == (irregular._SAMPLES, irregular.SAMPLE_DEN, irregular._ETA)
    assert oracle.INTEGRAL == build_test_family(1)[0].integral
