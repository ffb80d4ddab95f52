"""Numerical analytic continuation of the companion series from 0 to 1.

The companion function u is known only through a coefficient prefix at
center 0.  Its Taylor coefficients at center x + dx follow from those at x by

    b_k = sum_{n>=k} a_n * C(n, k) * dx**(n-k),

iterated along 0 -> dx -> 2*dx -> ... -> 1.  Two practical rules make the
iteration usable on a finite, possibly divergent-at-1 prefix:

* every available term is summed, and an output coefficient counts as
  *converged* only when the trailing terms of its sum have fallen below the
  threshold alpha -- i.e. the sum visibly settled before the data ran out;
* between steps only the leading block of converged coefficients is carried
  forward.  The non-converged tail is dominated by truncation garbage, and
  carrying it turns the whole iteration into a plain (divergent) partial sum.

The continuation keeps one record, its state (:class:`ContinuationState`):
the center, the carried coefficients and how many of them converged.  The
state after each step is that step's diagnostics; the carried count shrinks
along the path, and the final state exposes how many leading coefficients
are trustworthy.

Each recentering is the exact shift of the given coefficients, done in
integer arithmetic.  Decimal coefficients are rounded once per output
coefficient, by the rules of :mod:`asymser.transform`, to a configurable
number of significant digits (19 by default), so rounding enters only
between steps, and in the input prefix itself; exact coefficients
(Fractions, ints) stay exact.  The convergence flags depend only on a
step's input, so they are decided first, each by an exact integer
comparison of one trailing term with alpha, and a step that is not the
last computes only the block it carries.

Every step is one :func:`recenter_step` from one state, and a numerical
blow-up, an ArithmeticError of the rounding, is raised by the step that
rounds it.  Continuations that differ only in alpha make the same integer
shift of the rounded prefix on their first step: inside one
:func:`shared_first_shift` block the first of them makes it, and the others
reuse its integer sums, each rounding its own block.
"""
from __future__ import annotations

import contextlib
import operator
from contextvars import ContextVar
from decimal import MAX_PREC, Decimal, localcontext
from fractions import Fraction
from itertools import accumulate, repeat

from .transform import (DEFAULT_DIGITS, AssociatedSeries, CoeffLike, ShiftedExpansion, Value,
                        _check_digits, _exact_decimal, exact_quotient,
                        scale_to_integers, to_decimals)


class EmptyStateError(ValueError):
    """No coefficients left to continue."""


class NonIntegralPathError(ValueError):
    """The step size does not divide the unit path into whole steps."""


class InsufficientConvergedError(ValueError):
    """Requested more expansion coefficients than converged ones exist."""


def _check_step(step: Decimal, exc=ValueError) -> Decimal:
    """`step` if finite and positive, else `exc`."""
    if not step.is_finite():
        raise exc(f"step {step} is not finite")
    if step <= 0:
        raise exc("step must be positive")
    return step


def _check_alpha(alpha: Decimal) -> Decimal:
    """`alpha` if finite and positive (an infinite one would claim anything)."""
    if alpha.is_nan():
        raise ValueError("alpha must be a number")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if alpha.is_infinite():
        raise ValueError(f"alpha {alpha} is not finite")
    return alpha


class SchemeConfig(Value):
    """Parameters of one continuation run.

    m       -- how many leading companion coefficients to feed in, an int
    step    -- center increment dx; 1/dx must be a whole number so the path
               lands exactly on 1 (0.125, 0.25 and 0.5 all qualify), and at
               most 1000 * m, else ValueError: 1e-30 would run 10**30 steps
    alpha   -- convergence threshold for trailing terms, finite and positive
    digits  -- significant decimal digits kept between steps, an int
    """

    def __init__(self, m: int, step: CoeffLike, alpha: CoeffLike, digits: int = DEFAULT_DIGITS):
        step = _exact_decimal(step, "step", NonIntegralPathError)
        alpha = _exact_decimal(alpha, "alpha")
        if not isinstance(m, int) or isinstance(m, bool):
            raise TypeError(f"m must be an int, not {type(m).__name__}")
        if m < 1:
            raise ValueError("m must be >= 1")
        _check_digits(digits)
        _check_step(step, NonIntegralPathError)
        _check_alpha(alpha)
        if step > 1:  # refused before 1/step is built: it may have millions of digits
            raise NonIntegralPathError(f"step {step} is greater than 1, the length of the path")
        n, _, e = _decimal_ratio(step)
        if pow(10, max(-e, 0), n):  # step = n * 10**e: 1/step is whole iff n divides 10**-e
            raise NonIntegralPathError(
                f"1/step = {Fraction(1) / Fraction(step)} is not an integer"
                if len(step.as_tuple().digits) - e <= 100  # short enough to show exactly
                else f"1/step is not an integer for step {step}")
        self._set(m=m, step=step, alpha=alpha, digits=digits)
        # with step = d.dd * 10**a, 1/step > 10**(-a-1): when that alone passes
        # the bound, 10**-e is not formed (10**10000000 takes seconds to build)
        bound, a = 1000 * m, step.adjusted()
        if 3 * (-a - 1) >= bound.bit_length() or self.steps > bound:
            shown = self.steps if a >= -100 else f"more than 10**{-a - 1}"
            raise ValueError(f"dx {step} takes {shown} steps; "
                             f"at most 1000 * m = {bound} are allowed")

    @property
    def steps(self) -> int:
        n, _, e = _decimal_ratio(self.step)
        return 10 ** -e // n


class ContinuationState(Value):
    """Coefficient vector of u at some center, with convergence bookkeeping.

    converged_count is the length of the leading block whose recentering sums
    settled below alpha (rather than simply running out of coefficients).
    After a step, len(coeffs) is the number of coefficients it carried.
    """

    def __init__(self, center: Decimal, coeffs, converged_count: int):
        coeffs = tuple(coeffs)
        if not 0 <= converged_count <= len(coeffs):
            raise ValueError("converged_count out of range")
        self._set(center=center, coeffs=coeffs, converged_count=converged_count)


def recenter_step(
    state: ContinuationState,
    step: CoeffLike,
    alpha: CoeffLike,
    digits: int = DEFAULT_DIGITS,
    carried_only: bool = False,
) -> ContinuationState:
    """Advance the expansion center by `step`, summing all available terms.

    Each output b_k = sum_{n>=k} a_n * C(n, k) * step**(n-k) is the exact
    shift of the given coefficients (:func:`_shift_sums`): a Fraction when
    they are all exact, else rounded once to `digits` significant digits.

    The convergence flags are those of :func:`_converged_prefix`; they need
    only the input, so they are decided before the sums.  By default the
    output keeps the full input length.  With `carried_only` it holds only
    the block a next step carries -- the converged block, or the whole vector
    when nothing converged -- and the passes stop after that block, so the
    step costs sum_{k<K} (m-k) additions for K kept outputs instead of about
    m**2/2.  Every kept coefficient is the same either way.

    The arguments are checked here: a step that is not finite and positive
    raises ValueError, and the digits are those :func:`_check_digits` takes.
    An ArithmeticError of the rounding propagates.
    """
    if not state.coeffs:
        raise EmptyStateError("state has no coefficients")
    dx = _check_step(_exact_decimal(step, "step"))
    thr = _check_alpha(_exact_decimal(alpha, "alpha"))
    _check_digits(digits)
    count = _converged_prefix(state.coeffs, dx, thr)
    length = count if carried_only and count >= 1 else len(state.coeffs)
    sums, dens, decimal = _shift_sums(state.coeffs, dx, length)
    with localcontext() as ctx:
        ctx.prec = MAX_PREC  # the center is exact: the path lands on 1 at any digits
        center = state.center + dx
    return ContinuationState(center, _quotients(sums, dens, decimal, digits), count)


# The first shift made inside the open shared_first_shift() block, as the
# list [key, den, ppow, qpow, row, sums, decimal]: empty until it is made,
# None outside every block.
_first_shift = ContextVar("first_shift", default=None)


@contextlib.contextmanager
def shared_first_shift():
    """A block whose shifts reuse the integers of its first shift.

    Inside it, :func:`_shift_sums` keeps the integers of the first shift it
    makes, and a later shift of equal coefficients, of the same types, by an
    equal step takes its sums from them, running only the passes they lack.
    A sweep pair's alphas, whose first steps shift the same rounded prefix,
    run inside one block; every result is the same as outside it.  Nothing
    is kept after the block, so repeated runs outside it each do all their
    work.
    """
    token = _first_shift.set([])
    try:
        yield
    finally:
        _first_shift.reset(token)


def _shift_sums(coeffs: tuple, dx: Decimal, length: int) -> tuple[list, list, bool]:
    """The integer sums B_k, k < length, of the exact shift of `coeffs` by dx.

    With dx = p/q and the m inputs over one common denominator den, the
    integers A_n = a_n * den * p**n * q**(m-1-n) turn the shift into a unit
    Taylor shift B_k = sum_{n>=k} C(n, k) * A_n, built by k+1 passes of
    suffix sums (additions only; von zur Gathen & Gerhard, ISSAC 1997), and
    output k is b_k = B_k / (den * p**k * q**(m-1-k)).  Returns the sums,
    their denominators, output k being sums[k] / dens[k], and whether the
    outputs are Decimals.  Inside a :func:`shared_first_shift` block, the
    block's first shift keeps den, the powers, the live row and its sums.
    """
    m = len(coeffs)
    kept = _first_shift.get()
    key = kept is not None and (coeffs, tuple(map(type, coeffs)), dx)
    reuse = bool(kept) and kept[0] == key
    if reuse:
        _, den, ppow, qpow, row, sums, decimal = kept
    else:
        p, q = dx.as_integer_ratio()
        nums, den, decimal = scale_to_integers(coeffs)
        qpow = list(accumulate(repeat(q, m - 1), operator.mul, initial=1))
        ppow = list(accumulate(repeat(p, m - 1), operator.mul, initial=1))
        # reversed, so that each pass of running sums ends on B_k
        row = [a * ppow[n] * qpow[m - 1 - n] for n, a in enumerate(nums)][::-1]
        sums = []
    for _ in range(len(sums), length):
        row = list(accumulate(row))
        sums.append(row.pop())
    if reuse or kept == []:
        kept[:] = [key, den, ppow, qpow, row, sums, decimal]
    return sums[:length], [den * qpow[m - 1 - k] * ppow[k] for k in range(length)], decimal


def _quotients(sums: list, dens: list, decimal: bool, digits: int) -> tuple:
    """Each sum over its denominator: a Fraction, or a Decimal rounded once
    to `digits` significant digits."""
    with localcontext() as ctx:
        ctx.prec = digits
        return tuple(exact_quotient(b, d, decimal) for b, d in zip(sums, dens))


def _converged_prefix(coeffs: tuple, dx: Decimal, thr: Decimal) -> int:
    """Length of the leading block of recentering sums that count as converged.

    Output k is flagged converged when the last nonzero trailing term of its
    sum is below thr, decided exactly.  Every sum's last nonzero term comes
    from the last nonzero input index L, so there are two cases:

    * a finished polynomial tail -- every input zero, or two or more zeros
      after L -- converges as a whole;
    * otherwise (a single trailing zero is read as a sampled zero of an
      oscillating sequence) output k < L, and k = L when L = m - 1, is
      flagged while |a_L| * C(L, k) * dx**(L-k) < thr; the outputs between
      L and m - 1 have only zero trailing terms.

    With a_L = n/d * 10**e, dx = p/q and thr = t/u * 10**f (e and f the
    exponents of Decimals, else 0) the test is the integer inequality
    |n| * u * C(L, k) * p**(L-k) * 10**(e-f) < t * d * q**(L-k), made as one
    running product from k = 0.  Both sides start at least 1 and the left one
    stays below 2**L times its start, so when 8**|e-f| alone outweighs the
    other side every flag is settled at once; else 10**|e-f| is no longer
    than the operands, and an alpha such as 1e-30000000 costs what 0.1 does.
    """
    m = len(coeffs)
    last = next((n for n in reversed(range(m)) if coeffs[n]), -1)
    if last < 0 or m - 1 - last >= 2:
        return m
    num, den, e = _decimal_ratio(coeffs[last])
    t, u, f = _decimal_ratio(thr)
    p, q = dx.as_integer_ratio()
    e -= f
    flags = last + 1 if last == m - 1 else last
    lhs, rhs = abs(num) * u * p**last, t * den * q**last
    if 3 * e >= rhs.bit_length():
        return 0 if flags else m
    if -3 * e >= last + lhs.bit_length():
        return m
    lhs, rhs = lhs * 10**max(e, 0), rhs * 10**max(-e, 0)
    for k in range(flags):
        if lhs >= rhs:
            return k
        # C(L, k+1) * (k+1) = C(L, k) * (L-k): the quotient is exact
        lhs = lhs * (last - k) // ((k + 1) * p)
        rhs //= q
    return m


def _decimal_ratio(value) -> tuple[int, int, int]:
    """(n, d, e) with value = n/d * 10**e: a finite Decimal's digits and
    exponent, over d = 1, else its integer ratio and e = 0.  10**|e| is
    never formed."""
    if isinstance(value, Decimal) and value.is_finite():
        sign, digits, e = value.as_tuple()
        return int(Decimal((sign, digits, 0))), 1, e
    return (*value.as_integer_ratio(), 0)


def continue_to_one_with_steps(
    assoc: AssociatedSeries, config: SchemeConfig
) -> tuple[ContinuationState, list[ContinuationState]]:
    """Run the full 0 -> 1 continuation, returning the state after each step.

    The first config.m coefficients, rounded to config.digits digits, are
    the state at center 0.  Between steps the state is truncated to its
    converged block; when nothing converged the full vector is kept instead,
    so that exactly representable inputs (polynomials with alpha below every
    term) continue losslessly.  Every step but the last computes only that
    block (`carried_only`).  Each state's center, carried length (its number
    of coefficients) and converged count are the step's diagnostics.
    """
    if len(assoc.coeffs) < config.m:
        raise ValueError(f"need at least m={config.m} coefficients, got {len(assoc.coeffs)}")
    coeffs = to_decimals(assoc.coeffs[: config.m], config.digits)
    state, states = ContinuationState(Decimal(0), coeffs, len(coeffs)), []
    for i in reversed(range(config.steps)):  # i steps remain after this one
        state = recenter_step(state, config.step, config.alpha, config.digits, carried_only=i > 0)
        states.append(state)
    return state, states


def extract_shifted(state: ContinuationState, count: int) -> ShiftedExpansion:
    """Read off the negative-power expansion coefficients at infinity.

    The n-th coefficient of the expansion in powers of 1/(x - x0 + 1)
    equals (-1)**n times the n-th Taylor coefficient of u at 1.  Only the
    converged leading block may be extracted.
    """
    if state.center != 1:
        raise ValueError("state must be centered at 1")
    if count < 0:
        raise ValueError("count must be >= 0")
    if count > state.converged_count:
        raise InsufficientConvergedError(
            f"requested {count} coefficients, only {state.converged_count} converged"
        )
    coeffs = tuple(
        # copy_negate is exact; unary minus would round a Decimal in the ambient context
        c if n % 2 == 0 else c.copy_negate() if isinstance(c, Decimal) else -c
        for n, c in enumerate(state.coeffs[:count])
    )
    return ShiftedExpansion(coeffs)
