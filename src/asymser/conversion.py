"""Conversions between the two negative-power expansion forms, and direct
closed-form partial sums of the shifted-expansion coefficients.

A function with Taylor coefficients c_n at x0 may expand, as x -> infinity,
either in powers of 1/(x - x0 + 1) ("shifted" form, coefficients v_n) or in
powers of 1/(x - x0) ("plain" form, coefficients q_n).  The two coefficient
sets are related by the two triangular binomial sums of
:func:`asymser.transform.binomial_transform`:

    q_0 = v_0,   q_n = sum_{k=1..n} (-1)**(n+k) * C(n-1, k-1) * v_k,
    v_0 = q_0,   v_n = sum_{s=1..n} C(n-1, s-1) * q_s.

When the companion series converges beyond radius 1, the shifted coefficients
are also limits of explicit partial sums in the raw Taylor coefficients, one
formula for every k >= 0 (at k = 0 the inner sum is C(m, s)):

    v_k = (-1)**k * lim_m sum_{s=0..m} c_s *
              sum_{n=0..k} (-1)**n * C(m-n, k-n) * C(m, s+n),

which this module evaluates for finite m, along with a convergence trace.
For k >= 1 the weight of c_0 is C(m, k) * sum_n (-1)**n * C(k, n) = 0.
Divergent inputs produce honest diverging partials flagged "not converged";
applicability is a property of the input, not a gate.
"""
from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

from .continuation import ShiftedExpansion
from .transform import (
    TaylorSeries,
    Value,
    binomial_transform,
    exact_quotient,
    scale_to_integers,
)


class PlainExpansion(Value):
    """Coefficients of the expansion of f in powers of 1/(x - x0)."""

    def __init__(self, coeffs):
        self._set(coeffs=tuple(coeffs))


class DirectSumTrace(Value):
    """Partial sums of one shifted coefficient over increasing m."""

    def __init__(self, k: int, partials: tuple = (), limit_guess: object | None = None):
        # partials holds (m, value) pairs
        self._set(k=k, partials=partials, limit_guess=limit_guess)

    @property
    def converged(self) -> bool:
        return self.limit_guess is not None


def shifted_to_plain(shifted: ShiftedExpansion) -> PlainExpansion:
    """Convert shifted-form coefficients to plain-form coefficients.

    Exact on exact input; triangular, so q_n needs only v_0..v_n.
    """
    if not shifted.coeffs:
        raise ValueError("expansion has no coefficients")
    return PlainExpansion(binomial_transform(shifted.coeffs, alternating=True))


def plain_to_shifted(plain: PlainExpansion) -> ShiftedExpansion:
    """Convert plain-form coefficients to shifted-form coefficients.

    Inverse of :func:`shifted_to_plain`; the inverse map is the same
    triangular binomial sum without the alternating signs.
    """
    if not plain.coeffs:
        raise ValueError("expansion has no coefficients")
    return ShiftedExpansion(binomial_transform(plain.coeffs))


def direct_coeffk_partial(taylor: TaylorSeries, k: int, m: int):
    """m-th partial sum of the k-th shifted coefficient (k >= 0):

        (-1)**k * sum_{s=0..m} c_s *
            sum_{n=0..k} (-1)**n * C(m-n, k-n) * C(m, s+n)

    Each Taylor coefficient enters the formula once; it is evaluated as one
    dot product of the c_s with C(m, s+n) per n <= min(k, m).  Summed in
    integers over one common denominator: exact on exact input, and on input
    containing a Decimal the exact sum rounded once in the ambient context.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    c = taylor.coeffs
    if len(c) < m + 1:
        raise ValueError(f"need m+1 = {m + 1} coefficients, got {len(c)}")
    nums, den, decimal = scale_to_integers(c[: m + 1])
    row = [math.comb(m, j) for j in range(m + 1)]  # row[n:] is C(m, s+n) for s = 0..m-n
    acc = sum(
        (-1) ** (k + n) * math.comb(m - n, k - n) * sum(map(operator.mul, nums, row[n:]))
        for n in range(min(k, m) + 1)
    )
    return exact_quotient(acc, den, decimal)


def tail_agreement(values: Sequence, tol: float | Decimal) -> bool:
    """True when the last three values pairwise agree within
    tol * max(1, |last|).  The unit floor lets sequences decaying to zero
    register as converged.  Fewer than three values never agree.

    The test is exact, in rationals, for values of every type, with tol
    read as the decimal it prints as (0.3 is 3/10): a verdict does not
    depend on the ambient decimal context.  A Decimal tol is compared as it
    is, which is exact too and keeps a tol of any exponent cheap."""
    if len(values) < 3:
        return False
    last3 = [Fraction(v) for v in values[-3:]]
    last = last3[-1]
    bound = tol if isinstance(tol, Decimal) else Fraction(str(tol))
    scale = max(abs(last), 1)
    return all(abs(a - last) / scale <= bound for a in last3)


def direct_trace(
    taylor: TaylorSeries,
    k: int,
    m_values: Sequence[int],
    tol: float | Decimal = 1e-9,
) -> DirectSumTrace:
    """Evaluate the k-th shifted-coefficient partials over an m schedule.

    limit_guess is the last partial when the final three partials agree per
    :func:`tail_agreement`; otherwise None ("not converged").  tol must be
    finite and non-negative.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    ms = list(m_values)
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("m_values must be strictly increasing")
    # a Decimal tol may lie beyond the float range, both ways
    if not (tol.is_finite() if isinstance(tol, Decimal) else math.isfinite(tol)):
        raise ValueError(f"tol {tol} is not finite")
    if tol < 0:
        raise ValueError(f"tol {tol} is negative")
    partials = [(m, direct_coeffk_partial(taylor, k, m)) for m in ms]
    guess = None
    if tail_agreement([v for _, v in partials], tol):
        guess = partials[-1][1]
    return DirectSumTrace(k=k, partials=tuple(partials), limit_guess=guess)
