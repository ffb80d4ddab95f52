"""Binomial coefficient transform between a Taylor series and the series of
its companion function u, plus ratio-test radius estimation for u.

Given f(x) = sum c_n (x - x0)**n, the companion function is

    u(x) = f(x0 + x/(1-x)) = sum w_n x**n,

whose coefficients are the triangular binomial transform

    w_0 = c_0,   w_n = sum_{s=1..n} C(n-1, s-1) * c_s   (n >= 1).

Analyticity of u at x = 1 guarantees that f admits an expansion in powers of
1/(x - x0 + 1) as x -> infinity, which is why this transform is the entry
point of the whole pipeline.

One integer kernel, :func:`binomial_transform`, serves the companion
transform, its inverse (the same sum with alternating signs) and both
shifted/plain conversions in :mod:`asymser.conversion`.  Fraction input
stays exact.  Decimal results are the exact transform of the given decimals,
rounded once in the ambient decimal context; the rounding already in the
input is still amplified by the sum of absolute terms (about 2**(n-1)/n for
the arctan companion), so a 19-digit arctan prefix gives garbage past
n ~ 120.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Optional


class DegenerateRatiosError(ValueError):
    """Every candidate coefficient pair for the ratio test hit a zero."""


@dataclass(frozen=True)
class TaylorSeries:
    """Finite prefix of Taylor coefficients c_0..c_m around a real center."""

    coeffs: tuple
    center: object = 0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class AssociatedSeries:
    """Coefficients of the companion function u around 0."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least one coefficient")

    def __len__(self) -> int:
        return len(self.coeffs)


@dataclass(frozen=True)
class RadiusEstimate:
    """Lagged ratio-test estimates of a convergence radius.

    values[i] is (|w_n| / |w_{n+lag}|)**(1/lag) for the i-th index n where
    both coefficients are nonzero.  limit_guess is the last estimate when the
    final estimates have stabilised, None when they still oscillate.
    """

    lag: int
    values: tuple = field(default_factory=tuple)
    limit_guess: Optional[float] = None


def binomial_transform(coeffs, alternating: bool = False) -> tuple:
    """The triangular binomial transform shared by all four series maps.

    out_0 = c_0 and, for n >= 1,

        out_n = sum_{s=1..n} C(n-1, s-1) * c_s                 (plain)
        out_n = sum_{s=1..n} (-1)**(n-s) * C(n-1, s-1) * c_s   (alternating)

    The two are inverse to each other.  Every input is scaled to an integer
    over one common denominator and the sums are built as a Pascal triangle
    of integer additions (differences when alternating): row 0 holds
    c_1..c_m, each next row pairs neighbours, and out_n is the head of row
    n-1.  Exact input gives exact Fractions.  Input containing a Decimal
    gives Decimals, each the exact transform of the given decimals rounded
    once in the ambient context.  Floats are rejected.
    """
    if any(isinstance(c, float) for c in coeffs):
        raise TypeError("pass exact values (int, Fraction, Decimal), not float")
    ratios = [c.as_integer_ratio() for c in coeffs]
    den = math.lcm(*(d for _, d in ratios))
    row = [n * (den // d) for n, d in ratios]
    out, row = row[:1], row[1:]
    pair = operator.sub if alternating else operator.add
    while row:
        out.append(row[0])
        row = list(map(pair, row[1:], row))
    if any(isinstance(c, Decimal) for c in coeffs):
        return tuple(Decimal(n) / den for n in out)
    return tuple(Fraction(n, den) for n in out)


def associated(series: TaylorSeries) -> AssociatedSeries:
    """Transform Taylor coefficients into the companion-function coefficients
    w_n = sum_{s=1..n} C(n-1, s-1) * c_s, with w_0 = c_0."""
    return AssociatedSeries(binomial_transform(series.coeffs))


def associated_inverse(assoc: AssociatedSeries) -> tuple:
    """Recover Taylor coefficients from companion coefficients.

    Closed form of the inverse (composition with y/(1+y)):

        c_n = sum_{s=1..n} (-1)**(n-s) * C(n-1, s-1) * w_s.
    """
    return binomial_transform(assoc.coeffs, alternating=True)


def estimate_radius(
    assoc: AssociatedSeries, lag: int, stable_rtol: float = 1e-3
) -> RadiusEstimate:
    """Ratio-test radius estimate with a lag.

    The lag steps over periodic zeros of the coefficient sequence (the
    arctangent companion vanishes at every fourth index, so lag=4 there).
    Pairs containing a zero coefficient are skipped; if no pair survives,
    DegenerateRatiosError is raised.

    A limit guess is reported when at least three estimates exist and the
    last three agree to stable_rtol relative tolerance.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    w = assoc.coeffs
    if len(w) < lag + 2:
        raise ValueError("need at least lag + 2 coefficients")
    values = []
    for n in range(len(w) - lag):
        a, b = w[n], w[n + lag]
        if a == 0 or b == 0:
            continue
        ratio = abs(a) / abs(b)
        try:
            est = float(ratio) ** (1.0 / lag)
        except OverflowError:
            est = float("inf")
        values.append(est)
    if not values:
        raise DegenerateRatiosError(
            "every candidate pair contains a zero coefficient"
        )
    guess = None
    if len(values) >= 3:
        tail = values[-3:]
        scale = max(abs(v) for v in tail)
        if scale > 0 and all(abs(v - tail[-1]) <= stable_rtol * scale for v in tail):
            guess = values[-1]
    return RadiusEstimate(lag=lag, values=tuple(values), limit_guess=guess)
