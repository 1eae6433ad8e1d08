"""Spans and counts around the public functions of the abtorus modules.

The tracer wraps each target function at every module attribute that holds
it, including names other modules imported (``measures.orbit_fracs``,
``irregular.orbit_fracs``, ...), so calls between modules are seen too.
Nothing inside the library changes. Spans and counts are kept in memory;
the runner writes the spans out when the run ends.
"""
from __future__ import annotations

import inspect
import itertools
import math
import random
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter as _clock

# Span names in report order. torus.orbit_fracs is split by the path its
# input selects: denominators >= 2^31 take the big-integer loop.
SPANS = (
    "cli.run",
    "torus.orbit_fracs.bigint",
    "torus.orbit_fracs.int64",
    "torus.orbit_grid",
    "torus.digits_of",
    "torus.point_of_word",
    "measures.empirical_measure",
    "measures.fourier_average",
    "measures.semiequidist_profile",
    "measures.convergence_diagnostic",
    "measures.invariance_defect",
    "irregular.choose_schedule",
    "irregular.estimate_X_measure",
    "irregular.membership_X",
    "irregular.synthesize_point",
    "irregular.verify_irregular",
    "moran.realize_intervals",
    "moran.box_counting_estimate",
    "moran.moran_dims",
    "typecount.count_R",
    "typecount.growth_profile",
    "typecount.itinerary_choices",
)

# Count metrics, all exact: (name, unit). "bytes" is computed as 8·N² per
# orbit_fracs call (the float64 grid it returns), not measured. The two cli
# counts come from the runner, which sees stdout and the output checks.
COUNTS = (
    ("torus.orbit_fracs.int64.cells", "count"),
    ("torus.orbit_fracs.bigint.cells", "count"),
    ("torus.orbit_fracs.bytes", "B"),
    ("torus.orbit_fracs.spot_checks", "count"),
    ("torus.orbit_grid.cells", "count"),
    ("measures.cells", "count"),
    ("irregular.membership_X.hits", "count"),
    ("irregular.synthesize_point.donor_tries", "count"),
    ("moran.realize_intervals.intervals", "count"),
    ("moran.box_counting_estimate.box_tests", "count"),
    ("typecount.count_R.compositions", "count"),
    ("cli.run.failed", "count"),
    ("cli.stdout_bytes", "B"),
)

BIGINT_DEN = 2**31
SPOT_CELLS = 16
# Allowed |value - exact| for an orbit_fracs cell: 2^-52, two ulp of numbers
# in [1/2, 1). The int64 path rounds once (<= 2^-54); the big-integer path
# truncates to 53 bits (< 2^-53).
SPOT_BOUND = Fraction(1, 2**52)


def _grid_side(name: str, arg) -> int:
    """Side of the orbit grid a measures call reads."""
    if name == "measures.invariance_defect":
        return arg["N"] + 1
    if name in ("measures.semiequidist_profile", "measures.convergence_diagnostic"):
        return list(arg["horizons"])[-1]
    return arg["N"]


class Tracer:
    """Records spans and counts of the wrapped functions while installed."""

    def __init__(self, modules: dict, seed: int):
        self.modules = modules
        self.seed = seed
        self.rng = random.Random(f"spot-check/{seed}")
        self.spans: list[tuple] = []  # (job, span_id, parent_id, name, start, end)
        self.counts: dict[int, Counter] = defaultdict(Counter)  # per call of the pass
        self.spots: list[tuple] = []  # deferred orbit_fracs cell checks
        self.job = 0  # index of the running call in the pass; spans and counts carry it
        self._stack: list[int] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    # ---- installation ---------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for name in SPANS:
            if name.startswith("torus.orbit_fracs."):
                name = "torus.orbit_fracs"
            mod_name, func_name = name.split(".")
            fn = getattr(self.modules[mod_name], func_name)
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name)
        for mod in self.modules.values():
            for attr, val in list(vars(mod).items()):
                if callable(val) and val in wrappers:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, wrappers[val])

    def uninstall(self) -> None:
        for mod, attr, val in reversed(self._patched):
            setattr(mod, attr, val)
        self._patched.clear()

    def _wrap(self, fn, name: str):
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            arg = sig.bind(*args, **kwargs).arguments
            span = name
            if name == "torus.orbit_fracs":
                span += ".bigint" if arg["x"].den >= BIGINT_DEN else ".int64"
            span_id = next(self._ids)
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                self._stack.pop()
                self.spans.append((self.job, span_id, parent, span, start, end))
            self._count(span, arg, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ---- counts ---------------------------------------------------------

    def _count(self, span: str, arg, result) -> None:
        c = self.counts[self.job]
        if span.startswith("torus.orbit_fracs."):
            x, N = arg["x"], arg["N"]
            c[span + ".cells"] += N * N
            c["torus.orbit_fracs.bytes"] += 8 * N * N
            cells = [(0, 0), (N - 1, N - 1)]
            cells += [(self.rng.randrange(N), self.rng.randrange(N)) for _ in range(SPOT_CELLS)]
            self.spots.append((self.job, x.num, x.den, arg["a"], arg["b"],
                               [(m, n, float(result[m, n])) for m, n in cells]))
        elif span == "torus.orbit_grid":
            c["torus.orbit_grid.cells"] += arg["N"] ** 2
        elif span.startswith("measures."):
            c["measures.cells"] += _grid_side(span, arg) ** 2
        elif span == "irregular.membership_X":
            c["irregular.membership_X.hits"] += bool(result)
        elif span == "irregular.synthesize_point":
            c["irregular.synthesize_point.donor_tries"] += sum(result[1].donor_tries)
        elif span == "moran.realize_intervals":
            c["moran.realize_intervals.intervals"] += len(result)
        elif span == "moran.box_counting_estimate":
            c["moran.box_counting_estimate.box_tests"] += len(arg["intervals"]) * len(arg["scales"])
        elif span == "typecount.count_R":
            c["typecount.count_R.compositions"] += math.comb(arg["N"] + arg["k"] - 1, arg["k"] - 1)

    # ---- results --------------------------------------------------------

    def spot_check(self) -> set[int]:
        """Compare the sampled cells with exact residues; the calls with a bad cell."""
        bad_calls = set()
        for job, num, den, a, b, cells in self.spots:
            for m, n, value in cells:
                exact = Fraction(pow(a, m, den) * pow(b, n, den) * num % den, den)
                if abs(Fraction(value) - exact) > SPOT_BOUND:
                    bad_calls.add(job)
            self.counts[job]["torus.orbit_fracs.spot_checks"] += len(cells)
        self.spots.clear()
        return bad_calls

    def span_totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child_time: dict[int, float] = defaultdict(float)
        for _, _, parent, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {name: [0, 0.0, 0.0] for name in SPANS}
        for _, span_id, _, name, start, end in self.spans:
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time[span_id]
        return {name: tuple(row) for name, row in out.items()}

    def reset(self) -> None:
        """Start a new pass: same spot-check cells, no spans or counts."""
        self.rng = random.Random(f"spot-check/{self.seed}")
        self.spans.clear()
        self.counts.clear()
        self.spots.clear()
