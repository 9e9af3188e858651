"""Non-uniformly sampled accelerated coordinate descent.

Solvers (nu_acdm, nu_acdm_ns, generalized_accel, plus rcdm / acdm_baseline /
kaczmarz / full_gd baselines), the problems they are benchmarked on (linear
systems over row space, regularized ERM duals), instance generators, trace
serialization, experiment drivers, and a self-check suite.
"""

from .geometry import (
    CoordOracle,
    SmoothnessProfile,
    TrackedPoint,
    grad_check,
    lbeta_inner,
    lbeta_norm_sq,
    s_alpha,
    speedup_factor,
)
from .matrix import SparseRowMatrix
from .sampling import WeightedSampler
from .solvers import (
    ConvergenceTrace,
    InvariantViolation,
    SolverConfig,
    accel_schedule,
    acdm_baseline,
    full_gd,
    generalized_accel,
    kaczmarz,
    ns_schedule,
    nu_acdm,
    nu_acdm_ns,
    rcdm,
)
from .problems import (
    ConvergenceError,
    ErmDual,
    KaczmarzQuadratic,
    ReferenceMinimum,
    SeparableQuadratic,
    build_kaczmarz,
    build_lasso_dual,
    build_penalty_dual,
    build_ridge_dual,
    build_separable_quadratic,
    duality_gap,
    global_smoothness,
    primal_from_dual,
    primal_objective,
    reference_minimum,
)
from .data_io import (
    Dataset,
    ParseError,
    gen_linear_system,
    gen_skewed_dataset,
    parse_libsvm,
    read_solution,
    read_trace,
    two_level_norms,
    write_libsvm,
    write_solution,
    write_trace,
)
from .bench import (
    RaceResult,
    beta_sweep,
    run_erm_race,
    run_kaczmarz_race,
    speedup_table,
)
from .checks import CheckResult, run_all

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "ConvergenceError",
    "ConvergenceTrace",
    "CoordOracle",
    "Dataset",
    "ErmDual",
    "InvariantViolation",
    "KaczmarzQuadratic",
    "ParseError",
    "RaceResult",
    "ReferenceMinimum",
    "SeparableQuadratic",
    "SmoothnessProfile",
    "SolverConfig",
    "SparseRowMatrix",
    "TrackedPoint",
    "WeightedSampler",
    "accel_schedule",
    "acdm_baseline",
    "beta_sweep",
    "build_kaczmarz",
    "build_lasso_dual",
    "build_penalty_dual",
    "build_ridge_dual",
    "build_separable_quadratic",
    "duality_gap",
    "full_gd",
    "gen_linear_system",
    "gen_skewed_dataset",
    "generalized_accel",
    "global_smoothness",
    "grad_check",
    "kaczmarz",
    "lbeta_inner",
    "lbeta_norm_sq",
    "ns_schedule",
    "nu_acdm",
    "nu_acdm_ns",
    "parse_libsvm",
    "primal_from_dual",
    "primal_objective",
    "rcdm",
    "read_solution",
    "read_trace",
    "reference_minimum",
    "run_all",
    "run_erm_race",
    "run_kaczmarz_race",
    "s_alpha",
    "speedup_factor",
    "speedup_table",
    "two_level_norms",
    "write_libsvm",
    "write_solution",
    "write_trace",
]
