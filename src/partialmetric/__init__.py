"""Exact computation in partial metric spaces.

Spaces carry rational distance tables or exact formula evaluators; every
verdict (axioms, convergence certificates, condition checks, fixed-point
traces) is computed in exact arithmetic. The axiom verdict comes from one
pure-Python scan over integer numerators (``kernels``); the derived
metrics of a table that passes it are metrics by Matthews' lemma, stated
in ``properties``, so no entry point scans them.
"""

from .analysis import (
    DEFAULT_HORIZON,
    DEFAULT_TOL,
    CauchyReport,
    Certificate,
    ConvergenceReport,
    GDeltaReport,
    SequenceSpec,
    SpecializationOrder,
    ball_cover_check,
    converges_to,
    gdelta_diagonal,
    is_cauchy,
    limit_set,
    maximal_points,
    properly_converges,
    seq_compact_witness,
    specialization_order,
    totally_bounded_at,
)
from .catalog import (
    CatalogEntry,
    CatalogSpace,
    MapSpec,
    apex_space,
    catalog_map,
    catalog_names,
    catalog_sequence,
    catalog_space,
    get_entry,
    random_pm_space,
    validate_entry,
)
from .core import (
    AxiomReport,
    BottomDecl,
    FinitePMSpace,
    SeparationClass,
    ball,
    bottom_set,
    check_axioms,
    d_metric,
    diameter,
    minimal_balls,
    p_bar,
    p_m,
    rho_of,
    separation_class,
)
from .errors import (
    AxiomFailureError,
    CatalogKeyError,
    DomainError,
    MapClosureError,
    MetadataError,
    PMError,
    SizeLimitError,
    StructureError,
    UnsupportedSequenceError,
)
from .facts import FactSuiteResult, run_fact_suite
from .fixedpoint import (
    ConditionReport,
    IterationTrace,
    check_condition_max,
    check_condition_min,
    check_contraction,
    constant_map_bottom,
    constant_map_ruled_out,
    exhaustive_condition_maps,
    iterate,
    least_factor,
    solve_on_bottom,
)
from .points import FSet, Point, format_point, format_rational, parse_rational
from .properties import check_space_properties, property_run

__version__ = "0.1.0"
