"""End-to-end acceptance suite.

Each test prints one PASS line (visible with ``pytest -s``); a failed
assertion surfaces through pytest as usual.  Tolerances are fixed here, not
configurable.
"""
from __future__ import annotations

import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from asymser import (
    AssociatedSeries,
    PlainExpansion,
    SchemeConfig,
    ShiftedExpansion,
    TaylorSeries,
    arctan_assoc_coeff,
    arctan_coeffs,
    associated,
    associated_inverse,
    continue_to_one,
    direct_coeff0_partial,
    direct_coeffk_partial,
    direct_trace,
    estimate_radius,
    extract_shifted,
    format_decimal,
    plain_to_shifted,
    pole_coeffs,
    shifted_to_plain,
)
from asymser import binom
from helpers import (
    alternating_binom_sum,
    binom_tail_sum,
    compose_with_geom_map,
    double_binom_sum,
    hockey_stick_sum,
    partial_telescope_sides,
    random_fraction_vector,
)

F = Fraction
D = Decimal

HALF_PI = D("1.5707963267948966192313216916397514421")


def _report(num, desc):
    print(f"[criterion {num}] {desc}: PASS")


@pytest.fixture(scope="module")
def continuation_states(arctan_assoc_701):
    """Continuation endpoints for the configurations the criteria compare."""
    runs = {}
    for m, dx in ((701, "0.25"), (98, "0.25"), (601, "0.5"), (701, "0.5")):
        config = SchemeConfig(m=m, step=dx, alpha="0.1", digits=19)
        runs[(m, dx)] = continue_to_one(arctan_assoc_701, config)
    return runs


def _err0(state):
    return abs(state.coeffs[0] - HALF_PI)


class TestCriterion1:
    def test_exact_closed_form_and_rendering(self, arctan_assoc_701):
        start = time.time()
        for n in range(1, 32):
            assert arctan_assoc_701.coeffs[n] == arctan_assoc_coeff(n), n
        expected = [
            "0", "1", "1", "0.6666666667",
            "0", "-0.8", "-1.333333333", "-1.142857143",
            "0", "1.777777778", "3.2", "2.909090909",
            "0", "-4.923076923", "-9.142857143", "-8.533333333",
            "0", "15.05882353", "28.44444444", "26.94736842",
            "0", "-48.76190476", "-93.09090909", "-89.04347826",
            "0", "163.84", "315.0769231", "303.4074074",
            "0", "-564.9655172", "-1092.266667", "-1057.032258",
        ]
        rendered = [format_decimal(arctan_assoc_701.coeffs[n]) for n in range(32)]
        assert rendered == expected
        assert time.time() - start < 1.0
        _report(1, "companion coefficients exact for n=1..31, 10-digit renderings fixed")


class TestCriterion2:
    def test_radius_estimate_lag_4(self, arctan_assoc_10001_closed_form):
        start = time.time()
        est = estimate_radius(arctan_assoc_10001_closed_form, lag=4)
        assert est.limit_guess is not None
        assert abs(est.limit_guess - 0.707106781) <= 1e-4
        assert time.time() - start < 5.0
        _report(2, f"radius estimate {est.limit_guess:.9f} within 1e-4 of 0.707106781")


class TestCriterion3:
    def test_headline_continuation_accuracy(self, continuation_states):
        state = continuation_states[(701, "0.25")]
        err0 = _err0(state)
        err1 = abs(state.coeffs[1] - 1)
        assert err0 <= D("1e-4"), err0
        assert err1 <= D("1e-2"), err1
        assert state.converged_count >= 2
        shifted = extract_shifted(state, 2)
        assert abs(shifted.coeffs[0] - HALF_PI) <= D("1e-4")
        assert abs(shifted.coeffs[1] + 1) <= D("1e-2")
        _report(3, f"m=701 dx=0.25: |c0(1)-pi/2| = {float(err0):.2e} <= 1e-4, "
                   f"|c1(1)-1| = {float(err1):.2e} <= 1e-2")


class TestCriterion4:
    def test_half_step_instability(self, continuation_states):
        outcomes = []
        for m in (601, 701):
            state = continuation_states[(m, "0.5")]
            err0 = _err0(state)
            unstable = err0 > D("0.1") or state.converged_count < 2
            outcomes.append((m, float(err0), state.converged_count))
            assert unstable, (m, err0, state.converged_count)
        _report(4, f"dx=0.5 unstable for m>=601: {outcomes}")


class TestCriterion5:
    def test_error_shrinks_with_m(self, continuation_states):
        err_98 = _err0(continuation_states[(98, "0.25")])
        err_701 = _err0(continuation_states[(701, "0.25")])
        assert err_701 * 100 <= err_98, (err_701, err_98)
        _report(5, f"err0(m=98) = {float(err_98):.2e} vs err0(m=701) = "
                   f"{float(err_701):.2e}: ratio {float(err_98 / err_701):.0f} >= 100")


class TestCriterion6:
    def test_three_route_agreement_for_shifted_geometric(self):
        start = time.time()
        series = pole_coeffs(2, 200)

        # closed form: coefficients 0, 1, -1, 1, ... of the shifted expansion
        closed = [F(0), F(1), F(-1)]

        # route 1: direct partial sums, converged by m = 100
        assert abs(direct_coeff0_partial(series, 100) - closed[0]) <= F(1, 10**12)
        assert abs(direct_coeffk_partial(series, 1, 100) - closed[1]) <= F(1, 10**12)
        assert abs(direct_coeffk_partial(series, 2, 100) - closed[2]) <= F(1, 10**12)
        trace = direct_trace(series, 0, [60, 80, 100], tol=1e-10)
        assert trace.converged

        # route 2: continuation pipeline at low threshold, 38 digits
        assoc = associated(series)
        config = SchemeConfig(m=200, step="0.25", alpha="1e-30", digits=38)
        state = continue_to_one(assoc, config)
        shifted = extract_shifted(state, 3)
        for got, want in zip(shifted.coeffs, closed):
            assert abs(got - D(want.numerator) / D(want.denominator)) <= D("1e-20")

        # the two conversion directions agree with the hand-derived plain form
        plain = shifted_to_plain(ShiftedExpansion(coeffs=tuple(
            F(0) if n == 0 else F((-1) ** (n - 1)) for n in range(8))))
        assert plain.coeffs == tuple(F(0) if n == 0 else F((-2) ** (n - 1)) for n in range(8))
        assert time.time() - start < 30.0
        _report(6, "direct sums, continuation and closed form agree for 1/(2+x)")


class TestCriterion7:
    def test_identity_suites_exhaustive(self):
        start = time.time()
        for n in range(1, 61):
            for k in range(0, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)
        for m in range(2, 41):
            for k in range(1, m):
                assert binom_tail_sum(m, k) == binom(m, k)
        for m in range(1, 41):
            for k in range(0, 21):
                assert hockey_stick_sum(m, k) == binom(k + m + 1, k + 1)
        checked = 0
        for m in range(1, 21):
            for s in range(1, m + 1):
                for k in range(1, 11):
                    direct = double_binom_sum(m, k, s)
                    assert alternating_binom_sum(m, k, s) == direct
                    for r in range(1, k + 1):
                        lhs, rhs = partial_telescope_sides(m, k, s, r)
                        assert lhs == direct
                        assert rhs == direct
                        checked += 1
        rng = random.Random(31415)
        for _ in range(40):
            m = rng.randint(0, 20)
            a = rng.randint(0, 3)
            r = [F(rng.randint(-40, 40), rng.randint(1, 15)) for _ in range(m + a + 1)]
            lhs = sum(binom(m, k) * r[m + a - k] for k in range(m + 1))
            rhs = sum(binom(m, k) * r[k + a] for k in range(m + 1))
            assert lhs == rhs
        assert time.time() - start < 60.0
        _report(7, f"identity suites exact over full ranges ({checked} telescope cases)")


class TestCriterion8:
    def test_round_trips_500_random_vectors(self):
        start = time.time()
        rng = random.Random(2718281)
        for _ in range(500):
            vec = random_fraction_vector(rng, rng.randint(1, 30))
            assert associated_inverse(associated(TaylorSeries(coeffs=vec))) == vec
        rng = random.Random(1618033)
        for _ in range(500):
            vec = random_fraction_vector(rng, rng.randint(1, 30))
            shifted = ShiftedExpansion(coeffs=vec)
            assert plain_to_shifted(shifted_to_plain(shifted)).coeffs == vec
            plain = PlainExpansion(coeffs=vec)
            assert shifted_to_plain(plain_to_shifted(plain)).coeffs == vec
        assert time.time() - start < 30.0
        _report(8, "1000 exact round trips across both transform pairs")


class TestCriterion9:
    def test_substitution_oracle_100_polynomials(self):
        start = time.time()
        rng = random.Random(1414213)
        for _ in range(100):
            deg = rng.randint(0, 12)
            poly = [F(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(deg + 1)]
            padded = poly + [F(0)] * (12 - deg)
            got = associated(TaylorSeries(coeffs=tuple(padded))).coeffs
            want = compose_with_geom_map(poly, 12)
            assert list(got) == want
        assert time.time() - start < 30.0
        _report(9, "composition oracle matches the transform on 100 polynomials")
