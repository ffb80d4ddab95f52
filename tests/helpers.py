"""Independent oracles used across the test suite.

Everything here is deliberately implemented by a different route than the
library (truncated power-series algebra instead of binomial sums), so an
agreement between the two is meaningful.
"""
from __future__ import annotations

import math
import operator
import pickle
import random
from fractions import Fraction

import pytest

from asymser import (
    TaylorSeries,
    build_series,
    continue_to_one_with_steps,
    direct_trace,
    functions,
    rational_taylor,
    to_decimals,
)
from asymser.transform import exact_quotient, scale_to_integers


def binom(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0, zero outside 0 <= k <= n.

    The zero convention lets out-of-range terms of a binomial sum vanish
    instead of trimming its index range: C(m-n, k-n) is 0 for k > m.
    """
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def arctan_taylor_coeff(n: int) -> Fraction:
    """Closed form of the n-th Taylor coefficient of arctan at 0: 0 at even
    n, (-1)**((n-1)/2)/n at odd n."""
    return Fraction(0) if n % 2 == 0 else Fraction((-1) ** ((n - 1) // 2), n)


def pole_taylor_coeff(a, n: int) -> Fraction:
    """Closed form of the n-th Taylor coefficient of 1/(a + x) at 0:
    (-1)**n / a**(n+1)."""
    return Fraction((-1) ** n) / Fraction(a) ** (n + 1)


def log1p_taylor_coeff(n: int) -> Fraction:
    """Closed form of the n-th Taylor coefficient of log(1 + x) at 0: 0 at
    n = 0, (-1)**(n-1)/n after.  Its companion u = -log(1 - x) is infinite
    at 1, so the input fails the paper's condition."""
    return Fraction((-1) ** (n - 1), n) if n else Fraction(0)


def inv_sqrt1p_taylor_coeff(n: int) -> Fraction:
    """Closed form of the n-th Taylor coefficient of (1 + x)**(-1/2) at 0:
    C(-1/2, n) = (-1)**n * C(2n, n) / 4**n.  Its companion u = sqrt(1 - x)
    has an infinite derivative at 1, so the input fails the paper's
    condition."""
    return Fraction((-1) ** n * math.comb(2 * n, n), 4**n)


def binomial_series(a: Fraction, count: int) -> list:
    """The first `count` Taylor coefficients of (1 + x)**a at 0, for a
    rational a: C(a, n) = C(a, n-1) * (a - n + 1)/n, by the running product."""
    coeffs = [Fraction(1)]
    for n in range(1, count):
        coeffs.append(coeffs[-1] * (a - n + 1) / n)
    return coeffs[:count]


def arctan_assoc_coeff(n: int) -> Fraction:
    """Closed form of the n-th companion coefficient for arctan.

    Zero when n is a multiple of 4 (including n = 0), otherwise
    (-1)**(n // 4) * 2**(n // 2) / n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 4 == 0:
        return Fraction(0)
    return Fraction((-1) ** (n // 4) * 2 ** (n // 2), n)


WIDTH = Fraction(1, 10**40)  # the default width of an enclosure of arctan


def arctan_bounds(x: Fraction, width: Fraction = WIDTH) -> tuple:
    """Fractions lo <= arctan(x) <= hi, hi - lo <= width, for a rational x.

    Euler's series arctan(x) = x/(1 + x**2) * sum_n t_n, with y = x**2/(1 + x**2),
    t_0 = 1 and t_n = t_{n-1} * y * 2n/(2n + 1), has positive terms whose
    ratios stay below y, so the tail after t_N is below t_N * y/(1 - y).  An
    |x| > 1 is first reduced by arctan(x) = arctan(1) + arctan((x - 1)/(x + 1))
    for x > 0, and arctan(-x) = -arctan(x), so that y <= 1/2 in every sum.
    """
    x = Fraction(x)
    if x < 0:
        lo, hi = arctan_bounds(-x, width)
        return -hi, -lo
    if x > 1:
        lo1, hi1 = arctan_bounds(Fraction(1), width / 2)
        lo2, hi2 = arctan_bounds((x - 1) / (x + 1), width / 2)
        return lo1 + lo2, hi1 + hi2
    y, scale = x * x / (1 + x * x), x / (1 + x * x)
    total, term, n = Fraction(0), Fraction(1), 0
    while True:
        total += term
        tail = term * y / (1 - y)
        if scale * tail <= width:
            return scale * total, scale * (total + tail)
        n += 1
        term *= y * 2 * n / (2 * n + 1)


def arctan_companion_bounds(c: Fraction, width: Fraction = WIDTH) -> tuple:
    """Bounds on arctan's companion u(c) = arctan(c/(1 - c)) at a rational
    0 <= c < 1, at most `width` apart, as :func:`arctan_bounds` gives them:
    u's value at a center of the continuation's path, such as
    u(j/8) = arctan(j/(8 - j))."""
    return arctan_bounds(Fraction(c) / (1 - Fraction(c)), width)


def companion_taylor(text: str, center, count: int, width: Fraction = WIDTH) -> list:
    """The Taylor coefficients u_0 .. u_{count-1} at an exact `center` in
    [0, 1] of the companion u of the built-in input `text`, as pairs of
    Fractions lo <= u_k <= hi.

    Every pair is exact (lo == hi) but arctan's u(center): the coefficients
    are rational_taylor's on the data of u (functions._companion), those of
    u' integrated for arctan, whose u(c) = arctan(c/(1 - c)) is enclosed by
    arctan_companion_bounds, and u(1) = pi/2 by 2 * arctan_bounds(1), each
    at most `width` wide.  A center at a pole of u raises ZeroDivisionError.
    """
    c = Fraction(center)
    if not 0 <= c <= 1:
        raise ValueError(f"center {center} is not in [0, 1]")
    spec = functions._parse_input(text)
    if isinstance(spec, str):
        raise ValueError(f"{text!r} is not a built-in input")
    p, q, ends = functions._companion(*spec)
    if ends is None:
        return [(r, r) for r in rational_taylor(p, q, c, count)]
    head = (arctan_companion_bounds(c, width) if c < 1
            else tuple(2 * b for b in arctan_bounds(c, width / 2)))
    return [head, *((r, r) for r in rational_taylor(p, q, c, count - 1, True))]


def pole_companion_coeff(a, center, n: int) -> Fraction:
    """u_n(center), n >= 1, of the companion u of pole:A, A != 1, from its
    partial fractions u = 1/(A - 1) + R/(x - z), z = A/(A - 1) and
    R = 1/(A - 1)**2: u_n(c) = -R/(z - c)**(n+1)."""
    a, c = Fraction(a), Fraction(center)
    z, r = a / (a - 1), 1 / (a - 1) ** 2
    return -r / (z - c) ** (n + 1)


def companion_majorant(text: str, center, n: int) -> Fraction:
    """An exact bound on u_n(center)**2, n >= 1, for the companion u of the
    built-in input `text`, from the poles of u by closed forms.

    arctan's u' = 1/(1 - 2x + 2x**2) has the poles (1 +- i)/2, each of
    residue 1/2 in absolute value, at the squared distance
    rho = (c - 1/2)**2 + 1/4 from c, so |u_n(c)| <= rho**(-n/2)/n; the bound
    is squared, 1/(n**2 * rho**n), as rho**(-n/2) is irrational at odd n.
    pole:A's is u_n(c)**2 itself (:func:`pole_companion_coeff`), and
    altgeom's u = 1 - x has u_1 = -1 and no term past it.
    """
    c = Fraction(center)
    if text == "arctan":
        rho = (c - Fraction(1, 2)) ** 2 + Fraction(1, 4)
        return 1 / (n * n * rho ** n)
    if text == "altgeom":
        return Fraction(n == 1)
    return pole_companion_coeff(text[len("pole:"):], c, n) ** 2


def direct_partial(taylor, k: int, m: int):
    """m-th partial sum of the k-th shifted coefficient, by the library:
    direct_trace over the one-entry schedule [m]."""
    return direct_trace(taylor, k, [m]).partials[0][1]


# The closed form by dot products with the row C(m, .): an oracle for
# direct_trace, which reads the same partials off the companion transform.
def direct_coeffk_partial(taylor, k: int, m: int):
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


def continue_to_one(assoc, config):
    """The state at center 1 of the library's continuation, without the
    per-step states."""
    state, _ = continue_to_one_with_steps(assoc, config)
    return state


def quotient_taylor(P, Q, center, count):
    """Taylor coefficients r_0..r_{count-1} at `center` of P/Q (ascending
    coefficient lists), by power-series long division in Fractions.

    Each polynomial is moved to the center by repeated synthetic division
    by (x - center), whose remainders are its Taylor coefficients there;
    then r_n = (p_n - sum_{j>=1} q_j r_{n-j}) / q_0.
    """
    c = Fraction(center)

    def at_center(coeffs):
        rest, out = [Fraction(a) for a in reversed(coeffs)], []
        while rest:
            acc, quotient = Fraction(0), []
            for a in rest:
                acc = acc * c + a
                quotient.append(acc)
            out.append(quotient.pop())
            rest = quotient
        return out

    p, q = at_center(P), at_center(Q)
    r = []
    for n in range(count):
        acc = p[n] if n < len(p) else Fraction(0)
        acc -= sum(q[j] * r[n - j] for j in range(1, min(n, len(q) - 1) + 1))
        r.append(acc / q[0])
    return r


def series_mul(a, b, trunc):
    """Truncated product of two power series given as coefficient lists."""
    out = [Fraction(0)] * (trunc + 1)
    for i, ai in enumerate(a[: trunc + 1]):
        if not ai:
            continue
        for j, bj in enumerate(b[: trunc + 1 - i]):
            if bj:
                out[i + j] += ai * bj
    return out


def series_pow(base, n, trunc):
    """base**n as a truncated power series, by repeated multiplication."""
    out = [Fraction(1)] + [Fraction(0)] * trunc
    for _ in range(n):
        out = series_mul(out, base, trunc)
    return out


def geom_map_series(trunc):
    """Power series of x/(1-x) up to degree trunc: [0, 1, 1, 1, ...]."""
    return [Fraction(0)] + [Fraction(1)] * trunc


def compose_with_geom_map(poly_coeffs, trunc):
    """Expand p(x/(1-x)) as a power series truncated at degree trunc,
    via Horner on truncated series (no binomial coefficients involved)."""
    inner = geom_map_series(trunc)
    out = [Fraction(0)] * (trunc + 1)
    for c in reversed(list(poly_coeffs)):
        out = series_mul(out, inner, trunc)
        out[0] += Fraction(c)
    return out


def double_sum_form(coeffs, k, m):
    """Unreduced double-sum form of the k-th shifted-coefficient partial:

        (-1)**k * sum_{s=1..m} c_s * sum_{n=s..m} C(n, k) * C(n-1, s-1)

    evaluated with a plain math.comb loop.
    """
    def comb0(n, r):
        return math.comb(n, r) if 0 <= r <= n else 0

    acc = Fraction(0)
    for s in range(1, m + 1):
        inner = sum(comb0(n, k) * comb0(n - 1, s - 1) for n in range(s, m + 1))
        acc += Fraction(coeffs[s]) * inner
    return acc if k % 2 == 0 else -acc


def random_fraction_vector(rng: random.Random, length: int, bound: int = 50):
    """Pseudorandom nonzero-ish Fraction vector for round-trip tests."""
    return tuple(
        Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
        for _ in range(length)
    )


def reference_binomial_transform(coeffs, alternating=False):
    """out_0 = c_0, out_n = sum_{s=1..n} (+-1)**(n-s) * C(n-1, s-1) * c_s in
    exact rationals, term by term with math.comb (no integer scaling, no
    index weighting, no Pascal triangle)."""
    c = [Fraction(x) for x in coeffs]
    sign = -1 if alternating else 1
    return [c[0]] + [
        sum((sign ** (n - s) * math.comb(n - 1, s - 1) * c[s] for s in range(1, n + 1)),
            Fraction(0))
        for n in range(1, len(c))
    ]


# The paper's proof identities, each evaluated by direct summation so the
# tests can check them against closed forms and against the library sums.

def geom_power_coeff(n: int, k: int) -> int:
    """Coefficient of x**k in the power-series expansion of (x/(1-x))**n.

    Zero for k < n, C(k-1, n-1) otherwise.  Requires n >= 1, k >= 0.
    """
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    if k < n:
        return 0
    return binom(k - 1, n - 1)


def binom_tail_sum(m: int, k: int) -> int:
    """sum_{n=k..m} C(n-1, k-1), computed by direct summation.

    Equals C(m, k) for m > k >= 1 (verified in the test suite, not assumed).
    """
    return sum(binom(n - 1, k - 1) for n in range(k, m + 1))


def hockey_stick_sum(m: int, k: int) -> int:
    """sum_{z=0..m} C(k+z, k), computed by direct summation.

    Equals C(k+m+1, k+1) for m >= 1, k >= 0.
    """
    return sum(binom(k + z, k) for z in range(m + 1))


def double_binom_sum(m: int, k: int, s: int) -> int:
    """sum_{n=s..m} C(n, k) * C(n-1, s-1), by direct summation."""
    return sum(binom(n, k) * binom(n - 1, s - 1) for n in range(s, m + 1))


def partial_telescope_sides(m: int, k: int, s: int, r: int) -> tuple[int, int]:
    """Both sides of the r-level summation-by-parts reduction of
    sum_{n=s..m} C(n,k)*C(n-1,s-1), each evaluated independently.

    Left side is the direct double-product sum; right side is

        sum_{z=0..r-1} (-1)**z * C(m-z, k-z) * C(m, s+z)
        + (-1)**r * sum_{n=s..m-r} C(n, k-r) * C(n-1+r, s-1+r)

    for m >= 1, k >= 1, s >= 1 and 1 <= r <= k.
    """
    if not (m >= 1 and k >= 1 and s >= 1 and 1 <= r <= k):
        raise ValueError("need m, k, s >= 1 and r in [1, k]")
    lhs = double_binom_sum(m, k, s)
    rhs = sum(
        (-1) ** z * binom(m - z, k - z) * binom(m, s + z) for z in range(r)
    )
    rhs += (-1) ** r * sum(
        binom(n, k - r) * binom(n - 1 + r, s - 1 + r) for n in range(s, m - r + 1)
    )
    return lhs, rhs


def alternating_binom_sum(m: int, k: int, s: int) -> int:
    """sum_{z=0..k} (-1)**z * C(m-z, k-z) * C(m, s+z).

    Fully telescoped form of double_binom_sum(m, k, s); the two agree
    exactly on m >= s >= 1, k >= 1 (covered by the test suite).
    """
    return sum(
        (-1) ** z * binom(m - z, k - z) * binom(m, s + z) for z in range(k + 1)
    )


# Exact oracles for one recentering step.

def exact_recenter(coeffs, step):
    """b_k = sum_{n>=k} a_n * C(n, k) * step**(n-k) in exact rationals,
    term by term (no integer scaling, no suffix sums)."""
    a = [Fraction(c) for c in coeffs]
    dx = Fraction(step)
    return [
        sum((a[n] * math.comb(n, k) * dx ** (n - k) for n in range(k, len(a))), Fraction(0))
        for k in range(len(a))
    ]


def reference_converged_count(coeffs, step, alpha, digits):
    """The per-term convergence-flag loop: every trailing term of every sum
    is built as a Decimal product at `digits` digits, and output k is
    flagged by the last nonzero one (see recenter_step for the rules)."""
    from decimal import Decimal, localcontext

    dx, thr = Decimal(step), Decimal(alpha)
    with localcontext() as ctx:
        ctx.prec = digits
        m = len(coeffs)
        dxpow = [Decimal(1)]
        for _ in range(m):
            dxpow.append(dxpow[-1] * dx)
        count = 0
        for k in range(m):
            comb = 1
            last_nz = None
            zero_run = 0
            for n in range(k + 1, m):
                comb = comb * n // (n - k)
                if coeffs[n]:
                    last_nz = coeffs[n] * comb * dxpow[n - k]
                    zero_run = 0
                else:
                    zero_run += 1
            if k == m - 1:
                ok = abs(coeffs[k]) < thr
            elif last_nz is None or zero_run >= 2:
                ok = True
            else:
                ok = abs(last_nz) < thr
            if not ok:
                return count
            count += 1
        return count


def exact_converged_count(coeffs, step, alpha):
    """The per-term convergence-flag loop in exact rationals: the trailing
    terms a_n * C(n, k) * step**(n-k) of each sum are built as Fractions
    from the end, and output k is flagged by the last nonzero one, or by the
    diagonal term when k = m - 1 (see recenter_step for the rules)."""
    a = [Fraction(c) for c in coeffs]
    dx, thr = Fraction(step), Fraction(alpha)
    m = len(a)
    for k in range(m):
        last_nz, zero_run = None, 0
        for n in reversed(range(k + 1, m)):
            term = a[n] * math.comb(n, k) * dx ** (n - k)
            if term:
                last_nz = term
                break
            zero_run += 1
        if k == m - 1:
            ok = abs(a[k]) < thr
        elif last_nz is None or zero_run >= 2:
            ok = True
        else:
            ok = abs(last_nz) < thr
        if not ok:
            return k
    return m


def reference_continue(assoc, config):
    """The step loop with full-length steps: every step is a full
    recenter_step, truncated afterwards to its converged block (or kept whole
    when nothing converged) unless it is the last.  Returns the final state
    and the state after each step."""
    from decimal import Decimal

    from asymser import ContinuationState, recenter_step, to_decimals

    coeffs = to_decimals(assoc.coeffs[: config.m], config.digits)
    state = ContinuationState(center=Decimal(0), coeffs=coeffs, converged_count=len(coeffs))
    states = []
    for i in range(config.steps):
        state = recenter_step(state, config.step, config.alpha, config.digits)
        if i < config.steps - 1:
            keep = state.converged_count if state.converged_count >= 1 else len(state.coeffs)
            state = ContinuationState(
                center=state.center,
                coeffs=state.coeffs[:keep],
                converged_count=min(state.converged_count, keep),
            )
        states.append(state)
    return state, states


def assert_value_contract(value, same, other, text):
    """The contract of the package's value types.  `same` is the value built
    another way (keywords, explicit defaults) and must equal `value`; `other`
    differs in its class or in a field; `text` is the repr of `value`."""
    assert value == same and not value != same
    assert hash(value) == hash(same)
    assert value != other and other != value and not value == other
    assert repr(value) == repr(same) == text
    for name in (*vars(value), "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in list(vars(value)):
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert value == same and repr(value) == text  # unchanged by the attempts
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value) and back == value and repr(back) == text


# Series that every coefficient file must carry back: exact with a
# non-terminating 1/3 (c_3 of arctan), exact with terminating values only,
# and 19-digit decimals.
ROUND_TRIP_SERIES = {
    "exact-thirds": build_series("arctan", 8),
    "exact-terminating": TaylorSeries((Fraction(1, 2), Fraction(-3, 8), 0, 5, Fraction(1, 1024))),
    "decimal-19": TaylorSeries(to_decimals(build_series("arctan", 8).coeffs, 19)),
}

# Names of every kind: .json names hold decimals, all others exact CSV rows.
COEFF_FILE_NAMES = ["c.csv", "c.json", "c.txt", "c"]
