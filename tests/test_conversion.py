from __future__ import annotations

import random
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymser import (
    AssociatedSeries,
    PlainExpansion,
    SchemeConfig,
    ShiftedExpansion,
    TaylorSeries,
    associated,
    associated_inverse,
    continue_to_one,
    direct_coeff0_partial,
    direct_coeffk_partial,
    direct_trace,
    extract_shifted,
    plain_to_shifted,
    pole_coeffs,
    shifted_to_plain,
)
from helpers import double_sum_form, random_fraction_vector

F = Fraction
D = Decimal

fraction_vectors = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    min_size=1,
    max_size=30,
)


class TestShiftedToPlain:
    def test_simple_pole(self):
        # 1/(x+1) = sum_{n>=1} (-1)**(n-1) / x**n for |x| > 1
        shifted = ShiftedExpansion(coeffs=(F(0), F(1), F(0), F(0), F(0)))
        plain = shifted_to_plain(shifted)
        assert list(plain.coeffs) == [F(0), F(1), F(-1), F(1), F(-1)]

    def test_leading_coefficients_pass_through(self):
        shifted = ShiftedExpansion(coeffs=(D("1.5707963"), D("-1")))
        plain = shifted_to_plain(shifted)
        assert plain.coeffs[0] == D("1.5707963")
        assert plain.coeffs[1] == D("-1")

    def test_constant(self):
        assert shifted_to_plain(ShiftedExpansion(coeffs=(F(7),))).coeffs == (F(7),)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            shifted_to_plain(ShiftedExpansion(coeffs=()))


class TestPlainToShifted:
    def test_inverse_of_simple_pole(self):
        plain = PlainExpansion(coeffs=(F(0), F(1), F(-1), F(1), F(-1)))
        shifted = plain_to_shifted(plain)
        assert list(shifted.coeffs) == [F(0), F(1), F(0), F(0), F(0)]

    def test_constant(self):
        assert plain_to_shifted(PlainExpansion(coeffs=(F(7),))).coeffs == (F(7),)

    @given(fraction_vectors)
    @settings(max_examples=100)
    def test_round_trip(self, vec):
        shifted = ShiftedExpansion(coeffs=tuple(vec))
        back = plain_to_shifted(shifted_to_plain(shifted))
        assert back.coeffs == shifted.coeffs
        # the conversions are the companion transform and its inverse
        vec = tuple(vec)
        assert plain_to_shifted(PlainExpansion(coeffs=vec)).coeffs == associated(
            TaylorSeries(coeffs=vec)).coeffs
        assert shifted_to_plain(ShiftedExpansion(coeffs=vec)).coeffs == associated_inverse(
            AssociatedSeries(coeffs=vec))

    @given(fraction_vectors)
    @settings(max_examples=50)
    def test_triangularity(self, vec):
        # output index n depends only on inputs 0..n, in both directions
        full_plain = shifted_to_plain(ShiftedExpansion(coeffs=tuple(vec))).coeffs
        full_shifted = plain_to_shifted(PlainExpansion(coeffs=tuple(vec))).coeffs
        for cut in range(1, len(vec) + 1):
            head = tuple(vec[:cut])
            assert shifted_to_plain(ShiftedExpansion(coeffs=head)).coeffs == full_plain[:cut]
            assert plain_to_shifted(PlainExpansion(coeffs=head)).coeffs == full_shifted[:cut]

    def test_round_trip_seeded_long(self):
        rng = random.Random(99)
        for _ in range(50):
            vec = random_fraction_vector(rng, rng.randint(1, 30))
            plain = PlainExpansion(coeffs=vec)
            assert shifted_to_plain(plain_to_shifted(plain)).coeffs == vec


class TestDirectPartials:
    def test_pole_two_closed_form(self):
        # f = 1/(2+x): partial of the zeroth coefficient is exactly 2**-(m+1)
        series = pole_coeffs(2, 45)
        for m in range(0, 41):
            assert direct_coeff0_partial(series, m) == F(1, 2 ** (m + 1))

    def test_constant_function(self):
        series = TaylorSeries(coeffs=(F(5), F(0), F(0), F(0)))
        for m in range(4):
            assert direct_coeff0_partial(series, m) == F(5)

    def test_arctan_partials_diverge(self):
        from asymser import arctan_coeffs

        series = arctan_coeffs(31)
        assert abs(direct_coeff0_partial(series, 30)) > 1000

    def test_smallest_instance_matches_double_sum(self):
        series = TaylorSeries(coeffs=(F(3), F(-2)))
        got = direct_coeffk_partial(series, 1, 1)
        assert got == double_sum_form(series.coeffs, 1, 1) == F(2)

    def test_pole_two_higher_coefficient(self):
        # shifted expansion of 1/(2+x) is [0, 1, -1, 1, ...]
        series = pole_coeffs(2, 130)
        p = direct_coeffk_partial(series, 1, 100)
        assert abs(p - 1) < F(1, 10**12)

    def test_vanishing_when_k_exceeds_m(self):
        series = pole_coeffs(2, 10)
        for k in range(3, 8):
            assert direct_coeffk_partial(series, k, 2) == 0

    def test_matches_unreduced_double_sum(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(2, 15)
            coeffs = random_fraction_vector(rng, n, bound=20)
            series = TaylorSeries(coeffs=coeffs)
            m = n - 1
            for k in range(1, 6):
                assert direct_coeffk_partial(series, k, m) == double_sum_form(
                    coeffs, k, m
                ), (coeffs, k, m)

    def test_argument_validation(self):
        series = pole_coeffs(2, 5)
        with pytest.raises(ValueError):
            direct_coeffk_partial(series, 0, 3)
        with pytest.raises(ValueError):
            direct_coeff0_partial(series, 10)


class TestDirectTrace:
    def test_pole_two_converges_to_zero(self):
        series = pole_coeffs(2, 25)
        trace = direct_trace(series, 0, [5, 10, 20], tol=0.02)
        assert [v for _, v in trace.partials] == [F(1, 2**6), F(1, 2**11), F(1, 2**21)]
        assert trace.converged
        assert trace.limit_guess == F(1, 2**21)

    def test_arctan_not_converged(self):
        from asymser import arctan_coeffs

        trace = direct_trace(arctan_coeffs(31), 0, [10, 20, 30])
        assert not trace.converged
        assert trace.limit_guess is None

    def test_empty_schedule(self):
        trace = direct_trace(pole_coeffs(2, 5), 0, [])
        assert trace.partials == ()
        assert not trace.converged

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            direct_trace(pole_coeffs(2, 25), 0, [5, 5, 10])


def _closed_shifted(a: int, count: int) -> tuple:
    """Hand-derived shifted expansion of f = 1/(a+x) for a in {1, 2}."""
    if a == 1:
        return tuple(F(1) if n == 1 else F(0) for n in range(count))
    return tuple(F(0) if n == 0 else F((-1) ** (n - 1)) for n in range(count))


def _closed_plain(a: int, count: int) -> tuple:
    """Hand-derived plain expansion of f = 1/(a+x): q_n = (-a)**(n-1)."""
    return tuple(F(0) if n == 0 else F((-a) ** (n - 1)) for n in range(count))


class TestPipelineConsistency:
    @pytest.mark.parametrize("a", [1, 2])
    def test_direct_continuation_and_closed_form_agree(self, a):
        from asymser import to_decimal

        # both poles have companion radius > 1, so every route is available
        series = pole_coeffs(a, 200)
        assoc = associated(series)
        config = SchemeConfig(m=200, step="0.25", alpha="1e-30", digits=38)
        state = continue_to_one(assoc, config)
        shifted = extract_shifted(state, 3)

        closed = _closed_shifted(a, 3)
        tol = D("1e-32")
        for got, want in zip(shifted.coeffs, closed):
            assert abs(got - to_decimal(want, 38)) < tol

        direct0 = direct_coeff0_partial(series, 150)
        direct1 = direct_coeffk_partial(series, 1, 150)
        assert abs(direct0 - closed[0]) < F(1, 10**12)
        assert abs(direct1 - closed[1]) < F(1, 10**12)

    @pytest.mark.parametrize("a", [1, 2])
    def test_plain_form_matches_hand_expansion(self, a):
        plain = shifted_to_plain(ShiftedExpansion(coeffs=_closed_shifted(a, 8)))
        assert plain.coeffs == _closed_plain(a, 8)
