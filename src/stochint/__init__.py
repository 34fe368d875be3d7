"""Mean-square approximation of iterated Ito and Stratonovich integrals.

The package constructs series expansions of iterated stochastic
integrals with polynomial time weights (multiplicities 1 to 5) from
orthonormal Legendre and trigonometric bases, computes their exact
mean-square truncation errors in rational arithmetic, selects minimal
truncation orders for a target accuracy, and validates everything
against an independent path-level Monte Carlo oracle.
"""

from .basis import RatPoly, legendre_poly, product_expand
from .coeffs import (
    CoeffTensor,
    KernelSpec,
    QuadratureError,
    ScaledTensor,
    TensorBudgetError,
    bar_coeff,
    coeff_tensor,
    scale_coeff,
    scaled_tensor,
    tensor_to_csv,
    tensor_to_json,
    trig_coeff,
)
from .errors import (
    EqualityPattern,
    ErrorReport,
    SERIES_KINDS,
    SeriesCapError,
    error_bound,
    error_report,
    exact_error,
    kernel_norm,
    kernel_norm_exact,
    series_error,
)
from .expansion import (
    DOUBLE_SERIES_WEIGHTS,
    IndexPattern,
    NoiseDraws,
    diagonal_trace,
    draw_noise,
    hermite_diagonal,
    ito_expansion,
    ito_strat_convert,
    legendre_closed_single,
    legendre_double_series,
    pair_series_support,
    strat_expansion,
    trig_milstein,
)
from .oracle import (
    GridTooCoarseError,
    MomentEstimate,
    OracleBudgetError,
    SimConfig,
    VALIDATION_CASES,
    ValidationReport,
    coupled_zeta,
    moment_estimate,
    simulate_iterated,
    validate_expansion,
)
from .qselect import (
    CONDITION_IDS,
    Condition,
    QScanResult,
    QSelectCapError,
    condition_lhs,
    min_q,
    min_q_many,
    scan_detail,
    triple_legendre_error_constant,
)
from .tables import (
    COEFF_TABLES,
    ERROR_TABLES,
    Q_TABLES,
    compute_coeff_table,
    compute_error_table,
    compute_q_table,
    pol_over_trig_ratios,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # basis
    "RatPoly",
    "legendre_poly",
    "product_expand",
    # coefficients
    "CoeffTensor",
    "KernelSpec",
    "QuadratureError",
    "ScaledTensor",
    "TensorBudgetError",
    "bar_coeff",
    "coeff_tensor",
    "scale_coeff",
    "scaled_tensor",
    "tensor_to_csv",
    "tensor_to_json",
    "trig_coeff",
    # errors
    "EqualityPattern",
    "ErrorReport",
    "SERIES_KINDS",
    "SeriesCapError",
    "error_bound",
    "error_report",
    "exact_error",
    "kernel_norm",
    "kernel_norm_exact",
    "series_error",
    # expansions
    "DOUBLE_SERIES_WEIGHTS",
    "IndexPattern",
    "NoiseDraws",
    "diagonal_trace",
    "draw_noise",
    "hermite_diagonal",
    "ito_expansion",
    "ito_strat_convert",
    "legendre_closed_single",
    "legendre_double_series",
    "pair_series_support",
    "strat_expansion",
    "trig_milstein",
    # oracle
    "GridTooCoarseError",
    "MomentEstimate",
    "OracleBudgetError",
    "SimConfig",
    "VALIDATION_CASES",
    "ValidationReport",
    "coupled_zeta",
    "moment_estimate",
    "simulate_iterated",
    "validate_expansion",
    # order selection
    "CONDITION_IDS",
    "Condition",
    "QScanResult",
    "QSelectCapError",
    "condition_lhs",
    "min_q",
    "min_q_many",
    "scan_detail",
    "triple_legendre_error_constant",
    # tables
    "COEFF_TABLES",
    "ERROR_TABLES",
    "Q_TABLES",
    "compute_coeff_table",
    "compute_error_table",
    "compute_q_table",
    "pol_over_trig_ratios",
]
