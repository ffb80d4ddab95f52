"""Ball bounds over the library's own continuation states.

Each coefficient a step outputs is read as a ball (mid, rad): mid is the
library's Decimal and rad bounds its distance from the companion's true
Taylor coefficient (van der Hoeven, *Ball arithmetic*, 2009).  Output k of
the step by h from center c, with L inputs of radii rad_n, has the radius

    sum_{n<L} rad_n * C(n, k) * h**(n-k)          the input radii, shifted
  + B_L * C(L, k) * h**(L-k) / (1 - q)            the tail the step drops
  + 10**(1-digits) * |mid_k|                      the output's rounding

where B_n bounds |u_n(c)| (tests/helpers.py companion_majorant) and
q = (h/r) * (L+1)/(L+1-k), with r the distance from c to the poles of
arctan's u', bounds the ratio of consecutive tail terms: the tail is
infinite when q >= 1.  The inputs of the first step are the prefix rounded
to `digits`, of radii 10**(1-digits) * |mid_n|.  The radii are computed in
12 digits rounding toward +infinity, so each is an upper bound; the truth
is tests/helpers.py companion_taylor, exact but for an enclosure of u(c).
"""
from __future__ import annotations

import math
import operator
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate

import pytest

from asymser import (ContinuationState, SchemeConfig, build_companion, continue_to_one_with_steps,
                     to_decimals)
from helpers import companion_majorant, companion_taylor

DIGITS = 19
GRID = [(m, dx, alpha) for m in (98, 201, 301, 401, 501, 601, 701, 801, 901, 1001)
        for dx in ("0.125", "0.25", "0.5") for alpha in ("0.01", "0.1")]
UP = Context(prec=12, rounding=ROUND_CEILING)
DOWN = Context(prec=12, rounding=ROUND_FLOOR)
# Decimal's square root rounds half-even in every context, so it is off by
# at most half a unit in the 12th digit: this factor makes it an upper bound
ROOT_SAFETY = Decimal("1.0000000001")
ULP = Decimal(10) ** (1 - DIGITS)
INF = Decimal("Infinity")


def root_up(x: Fraction) -> Decimal:
    """An upper bound on the square root of x >= 0."""
    return UP.multiply(UP.divide(x.numerator, x.denominator).sqrt(), ROOT_SAFETY)


def step_radii(before, after, h: Decimal, radii: list) -> list:
    """The radii of the coefficients of `after`, the step by h from
    `before`, whose coefficients have the given radii."""
    c, L, K = Fraction(before.center), len(before.coeffs), len(after.coeffs)
    steps = int(1 / h)
    h_over_r = root_up(Fraction(h) ** 2 / ((c - Fraction(1, 2)) ** 2 + Fraction(1, 4)))
    tail_0 = root_up(companion_majorant("arctan", c, L))
    with localcontext(UP):
        hpow = list(accumulate([h] * L, operator.mul, initial=Decimal(1)))
        # K passes of suffix sums give sum_{n>=k} C(n, k) * rad_n * h**n
        row, out = [r * hpow[n] for n, r in enumerate(radii)][::-1], []
        for k, mid in enumerate(after.coeffs):
            row = list(accumulate(row))
            q = h_over_r * (L + 1) / (L + 1 - k)
            tail = (tail_0 * math.comb(L, k) * hpow[L - k] / DOWN.subtract(1, q)
                    if q < 1 else INF)
            out.append(row.pop() * steps**k + tail + abs(mid) * ULP)
        return out


def ball_run(assoc, m: int, dx: str, alpha: str, truth: dict) -> dict:
    """One cell's continuation with the radii of every state: the count of
    coefficients whose distance from the truth exceeds their radius, the
    leading run at 1 with radius below alpha, and the radii at 1."""
    config = SchemeConfig(m, dx, alpha, DIGITS)
    _, states = continue_to_one_with_steps(assoc, config)
    before = ContinuationState(Decimal(0), to_decimals(assoc.coeffs[:m], DIGITS), m)
    radii, violations = [abs(a) * ULP for a in before.coeffs], 0
    for after in states:
        radii = step_radii(before, after, config.step, radii)
        center, count = Fraction(after.center), len(after.coeffs)
        if len(truth.get(center, ())) < count:
            truth[center] = companion_taylor("arctan", center, count)
        for mid, rad, (lo, hi) in zip(after.coeffs, radii, truth[center]):
            if rad.is_finite():
                violations += max(abs(Fraction(mid) - lo), abs(Fraction(mid) - hi)) > Fraction(rad)
        before = after
    claims = next((k for k, r in enumerate(radii) if not r < Decimal(alpha)), len(radii))
    return {"violations": violations, "claims": claims, "radii": radii}


@pytest.fixture(scope="module")
def grid_runs():
    assoc, truth = build_companion("arctan", 1001), {}
    return {cell: ball_run(assoc, *cell, truth) for cell in GRID}


def test_every_radius_holds_its_true_error(grid_runs):
    """Over the 60-cell arctan grid, every carried coefficient at every
    center lies within its radius of the true coefficient."""
    assert sum(run["violations"] for run in grid_runs.values()) == 0


def test_thirty_six_coefficients_at_one_are_bounded_below_alpha(grid_runs):
    assert sum(run["claims"] for run in grid_runs.values()) == 36


def test_headline_bound_of_c0(grid_runs):
    """The headline (m=701, dx=0.25, alpha=0.1) bounds the error of its
    c0 at 1 below 1e-4; its true error is 2.5e-5."""
    bound0, bound1 = grid_runs[701, "0.25", "0.1"]["radii"][:2]
    assert bound0 < Decimal("1e-4") and bound1 < Decimal("1e-2")
