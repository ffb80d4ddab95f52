from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from asymser import binom
from helpers import (
    alternating_binom_sum,
    binom_tail_sum,
    double_binom_sum,
    geom_map_series,
    geom_power_coeff,
    hockey_stick_sum,
    partial_telescope_sides,
    series_pow,
)


class TestBinom:
    def test_pascal_triangle_values(self):
        assert binom(5, 2) == 10
        assert binom(7, 0) == 1
        assert binom(0, 0) == 1

    def test_out_of_range_is_zero(self):
        assert binom(4, 7) == 0
        assert binom(4, -1) == 0
        assert binom(0, 3) == 0

    def test_pascal_identity_exhaustive(self):
        for n in range(1, 61):
            for k in range(0, n + 1):
                assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)

    @given(st.integers(min_value=0, max_value=200), st.integers(min_value=-5, max_value=205))
    def test_symmetry(self, n, k):
        assert binom(n, k) == binom(n, n - k)


class TestGeomPowerCoeff:
    def test_below_diagonal_is_zero(self):
        assert geom_power_coeff(2, 1) == 0
        assert geom_power_coeff(5, 4) == 0

    def test_square_head(self):
        # (x/(1-x))**2 = x**2 + 2x**3 + 3x**4 + 4x**5 + ...
        assert geom_power_coeff(2, 5) == 4

    def test_first_power_is_all_ones(self):
        for k in range(1, 20):
            assert geom_power_coeff(1, k) == 1
        assert geom_power_coeff(1, 0) == 0

    def test_against_series_power_oracle(self):
        for n in range(1, 7):
            oracle = series_pow(geom_map_series(12), n, 12)
            for k in range(13):
                assert geom_power_coeff(n, k) == oracle[k], (n, k)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            geom_power_coeff(0, 3)
        with pytest.raises(ValueError):
            geom_power_coeff(2, -1)


class TestBinomTailSum:
    def test_examples(self):
        assert binom_tail_sum(5, 2) == 1 + 2 + 3 + 4 == 10
        assert binom_tail_sum(3, 1) == 3
        assert binom_tail_sum(6, 5) == binom(4, 4) + binom(5, 4) == 6

    def test_closed_form_range(self):
        for m in range(2, 41):
            for k in range(1, m):
                assert binom_tail_sum(m, k) == binom(m, k), (m, k)


class TestHockeyStickSum:
    def test_m_one(self):
        for k in range(0, 15):
            assert hockey_stick_sum(1, k) == k + 2

    def test_examples(self):
        assert hockey_stick_sum(3, 0) == 4
        assert hockey_stick_sum(2, 2) == 1 + 3 + 6 == binom(5, 3)

    def test_closed_form_range(self):
        for m in range(1, 41):
            for k in range(0, 21):
                assert hockey_stick_sum(m, k) == binom(k + m + 1, k + 1), (m, k)


class TestPartialTelescope:
    def test_smallest_case(self):
        lhs, rhs = partial_telescope_sides(3, 1, 1, 1)
        assert lhs == 6
        assert rhs == 3 * 3 - (1 + 2) == 6

    def test_single_term_sum(self):
        # m == s collapses the direct sum to a single product
        for s in range(1, 8):
            for k in range(1, 5):
                for r in range(1, k + 1):
                    lhs, rhs = partial_telescope_sides(s, k, s, r)
                    assert lhs == binom(s, k)
                    assert rhs == lhs

    def test_mid_case(self):
        lhs, rhs = partial_telescope_sides(5, 2, 2, 2)
        assert lhs == rhs

    def test_equality_moderate_range(self):
        for m in range(1, 13):
            for s in range(1, m + 1):
                for k in range(1, 7):
                    for r in range(1, k + 1):
                        lhs, rhs = partial_telescope_sides(m, k, s, r)
                        assert lhs == rhs, (m, k, s, r)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            partial_telescope_sides(3, 2, 1, 3)  # r > k


class TestAlternatingBinomSum:
    def test_matches_direct_sum_example(self):
        assert alternating_binom_sum(3, 1, 1) == 6

    def test_empty_direct_sum_when_s_exceeds_m(self):
        for m in range(1, 6):
            for k in range(1, 4):
                assert alternating_binom_sum(m, k, m + 1) == 0
                assert double_binom_sum(m, k, m + 1) == 0

    def test_specific_value(self):
        assert alternating_binom_sum(10, 3, 2) == double_binom_sum(10, 3, 2)

    def test_equality_moderate_range(self):
        for m in range(1, 13):
            for s in range(1, m + 1):
                for k in range(1, 7):
                    assert alternating_binom_sum(m, k, s) == double_binom_sum(m, k, s)


class TestIndexReflection:
    """sum_k C(m,k) r[m+a-k] == sum_k C(m,k) r[k+a] for any sequence r."""

    def _both_sides(self, r, m, a):
        lhs = sum(binom(m, k) * r[m + a - k] for k in range(m + 1))
        rhs = sum(binom(m, k) * r[k + a] for k in range(m + 1))
        return lhs, rhs

    def test_random_rational_sequences(self):
        rng = random.Random(20240817)
        for _ in range(50):
            m = rng.randint(0, 20)
            a = rng.randint(0, 4)
            r = [Fraction(rng.randint(-30, 30), rng.randint(1, 12))
                 for _ in range(m + a + 1)]
            lhs, rhs = self._both_sides(r, m, a)
            assert lhs == rhs

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=3),
        st.data(),
    )
    def test_property(self, m, a, data):
        r = data.draw(
            st.lists(
                st.fractions(min_value=-10, max_value=10, max_denominator=20),
                min_size=m + a + 1,
                max_size=m + a + 1,
            )
        )
        lhs, rhs = self._both_sides(r, m, a)
        assert lhs == rhs
