"""Coefficients of asymptotic expansions in negative powers at infinity,
computed from Taylor coefficients at a real center.

The pipeline: a triangular binomial transform maps the Taylor coefficients
onto a companion power series whose behaviour at 1 controls the expansion at
infinity; numerical recentering continues that series from 0 to 1; a sign
flip reads off the expansion in powers of 1/(x - x0 + 1); closed-form partial
sums provide an independent route when the companion series converges beyond
radius 1.
"""
from .continuation import (
    ContinuationState,
    EmptyStateError,
    InsufficientConvergedError,
    NonIntegralPathError,
    SchemeConfig,
    continue_to_one_with_steps,
    extract_shifted,
    recenter_step,
)
from .conversion import (
    DirectSumTrace,
    direct_trace,
    plain_to_shifted,
    shifted_to_plain,
    tail_agreement,
)
from .functions import (
    CoefficientParseError,
    DegeneratePoleError,
    build_companion,
    build_series,
    companion_at_one,
    format_decimal,
    load_coeffs,
    rational_taylor,
    reaches_singularity,
    save_coeffs,
)
from .transform import (
    DEFAULT_DIGITS,
    AssociatedSeries,
    DegenerateRatiosError,
    PlainExpansion,
    RadiusEstimate,
    ShiftedExpansion,
    TaylorSeries,
    associated,
    associated_inverse,
    estimate_radius,
    to_decimals,
)

__version__ = "0.1.0"
