"""Length-weighted Sobolev metrics on closed curves.

Discrete periodic curve calculus, metric evaluation, completeness
classification of coefficient profiles, geodesic distances by
path-energy minimization, and the bumpy-circle incompleteness sequences.
"""

from .curves import (
    DiscreteCurve,
    Grid,
    TangentField,
    arc_derivative,
    curve_length,
    curve_from_dict,
    curve_to_dict,
    derivative,
    integrate_ds,
    load_curve,
    make_bumpy_circle,
    make_circle,
    reparametrize,
    save_curve,
)
from .errors import ContractError, ImmersionError, NumericalError
from .metric import (
    Constant,
    MetricConfig,
    PowerLaw,
    Tabulated,
    coefficient_eval,
    config_from_dict,
    config_to_dict,
    eval_metric,
    load_config,
    scale_invariant_profile,
)
from .completeness import (
    CompletenessReport,
    IntegralVerdict,
    analyze,
    classify_power_law,
    numeric_integral_evidence,
    w_eval,
)
from .paths import (
    CurvePath,
    GeodesicResult,
    SolverOptions,
    geodesic_bvp,
    geodesic_distance,
    gradient_check,
    linear_path,
    moments,
    path_energy,
    path_length,
    radial_path_length,
)
from .counterexample import (
    CounterexampleParams,
    CounterexampleSequence,
    SequenceReport,
    build_sequence,
    counterexample_metric,
    pointwise_bounds_check,
    verify_sequence,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
