"""The benchmark's tracer (perfbench/tracing.py) still fits the library.

The tracer wraps the functions its SPANS name and binds some of their
parameters by name when it counts a call. A renamed or deleted function or
parameter would otherwise show only in the slow benchmark smoke test.
"""
import importlib.util
import inspect
from fractions import Fraction
from pathlib import Path

from abtorus import DigitWord, TorusPoint, cli, irregular, measures, moran, torus, typecount

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
MODULES = {
    "torus": torus, "measures": measures, "moran": moran,
    "irregular": irregular, "typecount": typecount, "cli": cli,
}
# The parameters Tracer._count binds, per traced function.
BOUND = {
    "torus.orbit_fracs": ("x", "a", "b", "N"),
    "torus.orbit_grid": ("N",),
    "measures.empirical_measure": ("N",),
    "measures.fourier_average": ("N",),
    "measures.invariance_defect": ("N",),
    "measures.convergence_diagnostic": ("horizons",),
    "measures.semiequidist_profile": ("horizons",),
    "moran.box_counting_estimate": ("intervals", "scales"),
    "typecount.count_R": ("k", "N"),
}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_functions(tracing) -> set[str]:
    return {".".join(span.split(".")[:2]) for span in tracing.SPANS}  # orbit_fracs.<path> is one function


def test_traced_functions_keep_the_parameters_the_tracer_binds():
    tracing = load_tracing()
    assert set(BOUND) <= traced_functions(tracing)
    for name, params in BOUND.items():
        module, func = name.split(".")
        assert set(params) <= set(inspect.signature(getattr(MODULES[module], func)).parameters), name


def test_tracer_installs_over_the_library_and_uninstalls():
    tracing = load_tracing()
    before = {name: dict(vars(module)) for name, module in MODULES.items()}
    tracer = tracing.Tracer(MODULES, seed=0)
    tracer.install()
    try:
        for name in traced_functions(tracing):
            module, func = name.split(".")
            assert getattr(MODULES[module], func).__wrapped__ is before[module][func], name
        measures.empirical_measure(TorusPoint(1, 5), 2, 3, 3, 4, 1)
        assert tracer.counts[0]["measures.cells"] == 9
        assert tracer.counts[0]["torus.orbit_fracs.int64.cells"] == 0  # the measures read float rows, no grid
        irregular.membership_X(TorusPoint(1, 5), 1, 3, 2, 3)  # irregular calls orbit_fracs across modules
        assert tracer.counts[0]["torus.orbit_fracs.int64.cells"] == 9
    finally:
        tracer.uninstall()
    for name, module in MODULES.items():
        assert all(vars(module)[attr] is value for attr, value in before[name].items()), name


def test_membership_reads_one_traced_int64_grid():
    """The irregular oracle counts one int64 orbit_fracs grid of N^2 cells per membership_X call."""
    tracing = load_tracing()
    tracer = tracing.Tracer(MODULES, seed=0)
    tracer.install()
    try:
        N = 40
        irregular.membership_X(TorusPoint(123456789, irregular.SAMPLE_DEN), 2, N, 2, 3)
        spans = [span for _, _, _, span, _, _ in tracer.spans]
        assert sorted(spans) == ["irregular.membership_X", "torus.orbit_fracs.int64"]
        assert tracer.counts[0]["torus.orbit_fracs.int64.cells"] == N * N
        assert tracer.span_totals()["irregular.membership_X"][0] == 1
    finally:
        tracer.uninstall()


def test_verify_reads_one_traced_bigint_grid():
    """The irregular oracle counts one big-denominator orbit_fracs grid of L_depth^2 cells per verify_irregular call."""
    tracing = load_tracing()
    tracer = tracing.Tracer(MODULES, seed=0)
    tracer.install()
    try:
        schedule = irregular.Schedule(a=2, b=3, r=Fraction(1, 2), l=(2, 2), N=(5, 13), L=(12, 40))
        recipe = irregular.IrregularRecipe(schedule, seed=0, donors=[], donor_tries=[])
        word = DigitWord(6, tuple(range(1, 6)) * 8)
        irregular.verify_irregular(word, recipe)
        spans = [span for _, _, _, span, _, _ in tracer.spans]
        assert [span for span in spans if span.startswith("torus.orbit_fracs")] == ["torus.orbit_fracs.bigint"]
        assert tracer.counts[0]["torus.orbit_fracs.bigint.cells"] == 40 * 40
        assert tracer.span_totals()["irregular.verify_irregular"][0] == 1
    finally:
        tracer.uninstall()
