"""Zeros and zero-power sum rules for Riemann-zeta-type functions."""

__version__ = "0.1.0"  # before the imports: datasets names its cache files with it

from .errors import (
    AccuracyError,
    CacheWarning,
    ChecksumError,
    ConvergenceError,
    DomainError,
    EmptyWindowError,
    MissedZeroWarning,
    NoSignChangeError,
    NonConvergenceWarning,
    OpenContourError,
    PoleError,
    RadiusError,
    RangeMismatchError,
    SchemaError,
)
from .special import (
    FunctionId,
    critical_line_form,
    evaluate,
    gamma,
    hurwitz_zeta,
    laurent_check,
    riemann_zeta,
)

from .zeros import (
    ZeroDataset,
    count_check,
    real_axis_zeros_tminus,
    refine_zero,
    scan_zeros,
)
from .datasets import cached_dataset, extend_dataset, load_dataset, save_dataset
from .sumrules import (
    inverse_square_modulus_sum,
    keiper_identity_residuals,
    sigma_from_zeros,
    sigma_series_derivative,
    tau_lambda_from_sigma,
    taylor_log_coeffs,
    verify_sum_rule,
    zero_density,
)
from .bell import bell_eval, series_from_sigma, symmetric_sum_check, verify_link3
from .translate import (
    interlacing_report,
    ratio_identity_check,
    translated_sigma_direct,
    translated_sigma_series,
    translation_window_search,
    xi_halfshift_ordinates,
)
from .rhscan import (
    asymptotic_check,
    condition_scan,
    find_derivative_zeros,
    lagarias_suzuki_y_star,
    trace_unit_contour,
    u_func,
    v_func,
)

