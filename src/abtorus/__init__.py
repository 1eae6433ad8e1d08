"""Exact-arithmetic laboratory for the times-a, times-b action on the circle."""

from .torus import (
    DigitWord,
    TorusPoint,
    digits_of,
    mult_indep_check,
    orbit_fracs,
    orbit_grid,
    orbit_residues,
    point_of_word,
)
from .measures import (
    EmpiricalMeasure,
    SemiEquidistReport,
    convergence_diagnostic,
    empirical_measure,
    fourier_average,
    invariance_defect,
    semiequidist_profile,
)
from .moran import DimensionPair, MoranStructure, box_counting_estimate, moran_dims, realize_intervals
from .irregular import (
    BumpFunction,
    IrregularRecipe,
    Schedule,
    build_test_family,
    bump_function,
    choose_schedule,
    estimate_X_measure,
    induced_moran_structure,
    membership_X,
    modulus_l,
    synthesize_point,
    verify_irregular,
)
from .typecount import (
    ChoiceRecord,
    count_R,
    dist,
    entropy,
    growth_profile,
    itinerary_choices,
    kt_bound,
    q_bound,
)
# `import abtorus` also loads the CLI module: perfbench/run.py reads it from sys.modules.
from . import cli  # noqa: E402,F401

__version__ = "0.1.0"
