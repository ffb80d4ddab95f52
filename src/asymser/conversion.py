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
are also limits of explicit partial sums in the raw Taylor coefficients:

    v_0 = lim_m sum_{s=0..m} c_s * C(m, s)
    v_k = (-1)**k * lim_m sum_{s=1..m} c_s *
              sum_{n=0..k} (-1)**n * C(m-n, k-n) * C(m, s+n)   (k >= 1),

which this module evaluates for finite m, along with a convergence trace.
Divergent inputs produce honest diverging partials flagged "not converged";
applicability is a property of the input, not a gate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Sequence

from .continuation import ShiftedExpansion
from .transform import TaylorSeries, binomial_transform


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0, zero outside 0 <= k <= n.

    The zero convention is load-bearing: the direct partial sums below let
    out-of-range terms vanish instead of trimming their index ranges.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class PlainExpansion:
    """Coefficients of the expansion of f in powers of 1/(x - center)."""

    coeffs: tuple
    center: object = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))


@dataclass(frozen=True)
class DirectSumTrace:
    """Partial sums of one shifted coefficient over increasing m."""

    k: int
    partials: tuple = field(default_factory=tuple)  # (m, value) pairs
    limit_guess: Optional[object] = None

    @property
    def converged(self) -> bool:
        return self.limit_guess is not None


def shifted_to_plain(shifted: ShiftedExpansion) -> PlainExpansion:
    """Convert shifted-form coefficients to plain-form coefficients.

    Exact on exact input; triangular, so q_n needs only v_0..v_n.
    """
    if not shifted.coeffs:
        raise ValueError("expansion has no coefficients")
    return PlainExpansion(
        coeffs=binomial_transform(shifted.coeffs, alternating=True), center=shifted.center
    )


def plain_to_shifted(plain: PlainExpansion) -> ShiftedExpansion:
    """Convert plain-form coefficients to shifted-form coefficients.

    Inverse of :func:`shifted_to_plain`; the inverse map is the same
    triangular binomial sum without the alternating signs.
    """
    if not plain.coeffs:
        raise ValueError("expansion has no coefficients")
    return ShiftedExpansion(coeffs=binomial_transform(plain.coeffs), center=plain.center)


def direct_coeff0_partial(taylor: TaylorSeries, m: int):
    """m-th partial sum of the zeroth shifted coefficient:
    sum_{s=0..m} c_s * C(m, s).  Exact on exact input."""
    if m < 0:
        raise ValueError("m must be >= 0")
    c = taylor.coeffs
    if len(c) < m + 1:
        raise ValueError(f"need m+1 = {m + 1} coefficients, got {len(c)}")
    acc = 0
    comb = 1  # C(m, 0)
    for s in range(m + 1):
        if c[s]:
            acc = acc + comb * c[s]
        comb = comb * (m - s) // (s + 1)
    return acc


def direct_coeffk_partial(taylor: TaylorSeries, k: int, m: int):
    """m-th partial sum of the k-th shifted coefficient (k >= 1):

        (-1)**k * sum_{s=1..m} c_s *
            sum_{n=0..k} (-1)**n * C(m-n, k-n) * C(m, s+n)

    Exact on exact input.  Each Taylor coefficient enters exactly once.
    """
    if k < 1:
        raise ValueError("k must be >= 1; use direct_coeff0_partial for k = 0")
    if m < 0:
        raise ValueError("m must be >= 0")
    c = taylor.coeffs
    if len(c) < m + 1:
        raise ValueError(f"need m+1 = {m + 1} coefficients, got {len(c)}")
    acc = 0
    for s in range(1, m + 1):
        if not c[s]:
            continue
        inner = 0
        for n in range(k + 1):
            w = binom(m - n, k - n) * binom(m, s + n)
            inner = inner + w if n % 2 == 0 else inner - w
        acc = acc + c[s] * inner
    return acc if k % 2 == 0 else -acc


def tail_agreement(values: Sequence, tol: float) -> bool:
    """True when the last three values pairwise agree within
    tol * max(1, |last|).  The unit floor lets sequences decaying to zero
    register as converged.  Fewer than three values never agree."""
    if len(values) < 3:
        return False
    last3 = list(values[-3:])
    last = last3[-1]
    if isinstance(last, Decimal):
        bound = Decimal(repr(tol)) * max(abs(last), Decimal(1))
    else:
        bound = Fraction(tol) * max(abs(Fraction(last)), Fraction(1))
    return all(abs(a - last) <= bound for a in last3)


def direct_trace(
    taylor: TaylorSeries,
    k: int,
    m_values: Sequence[int],
    tol: float = 1e-9,
) -> DirectSumTrace:
    """Evaluate the k-th shifted-coefficient partials over an m schedule.

    limit_guess is the last partial when the final three partials agree per
    :func:`tail_agreement`; otherwise None ("not converged").
    """
    ms = list(m_values)
    if any(b <= a for a, b in zip(ms, ms[1:])):
        raise ValueError("m_values must be strictly increasing")
    partials = []
    for m in ms:
        if k == 0:
            val = direct_coeff0_partial(taylor, m)
        else:
            val = direct_coeffk_partial(taylor, k, m)
        partials.append((m, val))
    guess = None
    if tail_agreement([v for _, v in partials], tol):
        guess = partials[-1][1]
    return DirectSumTrace(k=k, partials=tuple(partials), limit_guess=guess)
