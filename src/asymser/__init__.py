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
    DEFAULT_DIGITS,
    ContinuationState,
    EmptyStateError,
    InsufficientConvergedError,
    NonIntegralPathError,
    SchemeConfig,
    ShiftedExpansion,
    StepRecord,
    continue_to_one,
    continue_to_one_with_steps,
    extract_shifted,
    recenter_step,
    to_decimal,
)
from .conversion import (
    DirectSumTrace,
    PlainExpansion,
    binom,
    direct_coeff0_partial,
    direct_coeffk_partial,
    direct_trace,
    plain_to_shifted,
    shifted_to_plain,
    tail_agreement,
)
from .functions import (
    CoefficientParseError,
    DegeneratePoleError,
    GeneratorSpec,
    altgeom_coeffs,
    arctan_assoc_coeff,
    arctan_coeffs,
    build_series,
    format_decimal,
    load_coeffs,
    parse_generator,
    pole_coeffs,
    save_coeffs,
)
from .transform import (
    AssociatedSeries,
    DegenerateRatiosError,
    RadiusEstimate,
    TaylorSeries,
    associated,
    associated_inverse,
    estimate_radius,
)

__version__ = "0.1.0"
