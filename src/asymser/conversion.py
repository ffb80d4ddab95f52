"""Conversions between the two negative-power expansion forms, and direct
partial sums of the shifted-expansion coefficients.

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

whose m-th partial is (-1)**k * sum_{n=0..m} C(n, k) * w_n in the companion
coefficients w_n: up to sign, the k-th Taylor coefficient at 1 of the
companion cut after w_m.  Divergent inputs produce honest diverging partials
flagged "not converged"; applicability is a property of the input, not a
gate.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from decimal import Decimal
from fractions import Fraction

from .transform import (
    PlainExpansion,
    ShiftedExpansion,
    TaylorSeries,
    Value,
    _exact,
    _integer_ratios,
    binomial_transform,
    exact_quotient,
    scale_to_integers,
)


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


def tail_agreement(values: Sequence, tol: float | Decimal) -> bool:
    """True when the last three values pairwise agree within
    tol * max(1, |last|).  The unit floor lets sequences decaying to zero
    register as converged.  Fewer than three values never agree.

    The test is exact, in rationals, for exact values of every type (a
    float raises TypeError), with tol read as the decimal it prints as (0.3
    is 3/10): a verdict does not depend on the ambient decimal context.  A
    Decimal tol is compared as it is, exact too and cheap at any exponent."""
    if len(values) < 3:
        return False
    last3 = [Fraction(_exact(v)) for v in values[-3:]]
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

    Every partial comes off one exact companion transform of the prefix up
    to the largest m and one running sum of C(n, k) * w_n in integers.
    Exact on exact input; on input containing a Decimal each partial is the
    exact partial of the given decimals, rounded once in the ambient context.

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
    if not ms:
        return DirectSumTrace(k=k)
    if ms[0] < 0:
        raise ValueError("m must be >= 0")
    c = taylor.coeffs
    fit = [m for m in ms if m < len(c)]
    # a bad value within reach of a fitting m is reported before an m that does not fit
    ratios, decimal = _integer_ratios(c[: fit[-1] + 1] if fit else ())
    if len(fit) < len(ms):
        raise ValueError(f"need m+1 = {ms[len(fit)] + 1} coefficients, got {len(c)}")
    w = binomial_transform([Fraction(num, den) for num, den in ratios])
    nums, den, _ = scale_to_integers(w)
    # acc = sum_{j<n} C(j, k) * nums[j], and comb = C(n, k)
    partials, acc, comb, n = [], 0, 1, k
    for m in ms:
        while n <= m:
            acc += comb * nums[n]
            n += 1
            comb = comb * n // (n - k)
        partials.append((m, exact_quotient(-acc if k % 2 else acc, den, decimal)))
    guess = partials[-1][1] if tail_agreement([v for _, v in partials], tol) else None
    return DirectSumTrace(k=k, partials=tuple(partials), limit_guess=guess)
