"""Independent oracles used across the test suite.

Everything here is deliberately implemented by a different route than the
library (truncated power-series algebra instead of binomial sums), so an
agreement between the two is meaningful.
"""
from __future__ import annotations

import random
from fractions import Fraction

from asymser import binom


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
    import math

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
