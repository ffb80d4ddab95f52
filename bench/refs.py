"""Reference values for the benchmark, computed apart from the program.

Nothing here imports asymser: each value comes from a closed form or from a
different algorithm than the library uses, so agreement is evidence.

* pi from Machin's formula, pi/4 = 4 arctan(1/5) - arctan(1/239), in Decimal.
* Taylor coefficients at 1 of the arctan companion u(x) = arctan(x/(1-x)):
  u'(1+t) = 1/(1 + 2t + 2t^2), so c_0 = pi/2 and c_k = a_{k-1}/k with
  a_0 = 1, a_1 = -2, a_n = -2 a_{n-1} - 2 a_{n-2}.
* The arctan companion closed form w_n = 0 when 4 | n, otherwise
  (-1)^(n//4) 2^(n//2) / n, and from it the lag-4 ratio estimate.
* Closed forms of f = 1/(A + x) at infinity: shifted v_0 = 0,
  v_n = (-(A-1))^(n-1); plain q_0 = 0, q_n = (-A)^(n-1).
* A rounding bound for the companion transform evaluated by recursive
  summation in decimal arithmetic, computed in exact rationals.
"""
from __future__ import annotations

from decimal import Decimal, localcontext
from fractions import Fraction


def _arctan_inv(x: int, prec: int) -> Decimal:
    """arctan(1/x) by its Taylor series, to about `prec` digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        eps = Decimal(10) ** -(prec + 2)
        power = Decimal(1) / x
        total = power
        x2 = x * x
        n = 1
        sign = -1
        while power > eps:
            power /= x2
            n += 2
            total += sign * power / n
            sign = -sign
        return total


def machin_pi(digits: int = 50) -> Decimal:
    """pi to `digits` significant digits from Machin's formula."""
    prec = digits + 10
    with localcontext() as ctx:
        ctx.prec = prec
        pi = 4 * (4 * _arctan_inv(5, prec) - _arctan_inv(239, prec))
        ctx.prec = digits
        return +pi


def arctan_taylor(count: int) -> tuple:
    """Taylor coefficients of arctan at 0: 0 at even n, (-1)^((n-1)/2)/n at odd n."""
    return tuple(
        Fraction(0) if n % 2 == 0 else Fraction(-1 if n % 4 == 3 else 1, n)
        for n in range(count)
    )


def arctan_companion(n: int) -> Fraction:
    """Closed form of the n-th companion coefficient of arctan."""
    if n % 4 == 0:
        return Fraction(0)
    return Fraction((-1) ** (n // 4) * 2 ** (n // 2), n)


def companion_at_one(count: int, half_pi: Decimal) -> list:
    """Taylor coefficients c_0..c_{count-1} of u(x) = arctan(x/(1-x)) at 1.

    c_0 is the Decimal `half_pi`; the rest are exact Fractions.
    """
    a = [1, -2]
    while len(a) < count:
        a.append(-2 * a[-1] - 2 * a[-2])
    return [half_pi] + [Fraction(a[k - 1], k) for k in range(1, count)]


def last_lag4_estimate(count: int) -> tuple[int, float]:
    """(number of usable pairs, last estimate) of the lag-4 ratio test on the
    arctan companion prefix w_0..w_{count-1}.

    A pair (n, n+4) is usable when both coefficients are nonzero, i.e. when
    4 does not divide n.  Its estimate is (|w_n|/|w_{n+4}|)^(1/4), and the
    closed form gives the ratio exactly as (n+4)/(4n).
    """
    usable = [n for n in range(count - 4) if n % 4 != 0]
    n = usable[-1]
    ratio = Fraction(n + 4, 4 * n)
    with localcontext() as ctx:
        ctx.prec = 40
        root = (Decimal(ratio.numerator) / Decimal(ratio.denominator)) ** Decimal("0.25")
    return len(usable), float(root)


def pole_taylor(a: Fraction, count: int) -> tuple:
    """Taylor coefficients of 1/(a + x) at 0: (-1)^n / a^(n+1)."""
    return tuple(Fraction((-1) ** n) / a ** (n + 1) for n in range(count))


def pole_shifted(a: Fraction, count: int) -> tuple:
    """Coefficients of 1/(a + x) in powers of 1/(x + 1)."""
    return (Fraction(0),) + tuple((-(a - 1)) ** (n - 1) for n in range(1, count))


def pole_plain(a: Fraction, count: int) -> tuple:
    """Coefficients of 1/(a + x) in powers of 1/x."""
    return (Fraction(0),) + tuple((-a) ** (n - 1) for n in range(1, count))


def arctan_companion_bound(n: int, digits: int) -> Fraction:
    """Bound on |computed w_n - w_n| for the arctan companion transform of a
    prefix rounded to `digits` significant digits and summed left to right
    in `digits`-digit decimal arithmetic.

    w_n sums k = (n+1)//2 nonzero terms C(n-1, s-1) c_s.  Each computed term
    carries the input rounding and one product rounding, and the k - 1
    additions after the first add at most k - 1 more, so with unit roundoff
    u = 10^(1-digits)/2 and gamma_j = j u / (1 - j u),

        |computed w_n - w_n| <= gamma_{k+1} * sum_s C(n-1, s-1) |c_s|.

    The sum of absolute terms is the companion transform of artanh, whose
    companion is -log(1 - 2x)/2, so it equals 2^(n-1)/n.
    """
    if n == 0:
        return Fraction(0)
    u = Fraction(1, 2 * 10 ** (digits - 1))
    j = (n + 1) // 2 + 1
    return j * u / (1 - j * u) * Fraction(2 ** (n - 1), n)
