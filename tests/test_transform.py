from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymser import (
    AssociatedSeries,
    DegenerateRatiosError,
    PlainExpansion,
    ShiftedExpansion,
    TaylorSeries,
    arctan_coeffs,
    associated,
    associated_inverse,
    estimate_radius,
    plain_to_shifted,
    shifted_to_plain,
    to_decimal,
)
from helpers import compose_with_geom_map, random_fraction_vector

F = Fraction
D = Decimal

fraction_vectors = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    min_size=1,
    max_size=30,
)


class TestAssociated:
    def test_arctan_head_matches_known_values(self, arctan_assoc_32):
        expected = [
            F(0), F(1), F(1), F(2, 3), F(0), F(-4, 5), F(-4, 3), F(-8, 7),
            F(0), F(16, 9), F(16, 5), F(32, 11), F(0),
        ]
        assert list(arctan_assoc_32.coeffs[:13]) == expected

    def test_alternating_geometric_collapses(self):
        # f = 1/(1+x) has companion (1-x): the tail vanishes identically
        series = TaylorSeries(coeffs=(F(1), F(-1), F(1), F(-1), F(1)))
        assoc = associated(series)
        assert list(assoc.coeffs) == [F(1), F(-1), F(0), F(0), F(0)]

    def test_constant(self):
        assert associated(TaylorSeries(coeffs=(F(5),))).coeffs == (F(5),)

    def test_substitution_oracle_small(self):
        rng = random.Random(7)
        for _ in range(20):
            deg = rng.randint(0, 12)
            poly = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(deg + 1)]
            padded = poly + [F(0)] * (12 - deg)
            assoc = associated(TaylorSeries(coeffs=tuple(padded)))
            oracle = compose_with_geom_map(poly, 12)
            assert list(assoc.coeffs) == oracle

    @given(
        fraction_vectors,
        st.fractions(min_value=-5, max_value=5, max_denominator=10),
        st.fractions(min_value=-5, max_value=5, max_denominator=10),
    )
    @settings(max_examples=60)
    def test_linearity(self, vec, a, b):
        other = list(reversed(vec))
        combo = tuple(a * x + b * y for x, y in zip(vec, other))
        lhs = associated(TaylorSeries(coeffs=combo)).coeffs
        wx = associated(TaylorSeries(coeffs=tuple(vec))).coeffs
        wy = associated(TaylorSeries(coeffs=tuple(other))).coeffs
        rhs = tuple(a * x + b * y for x, y in zip(wx, wy))
        assert lhs == rhs

    @given(fraction_vectors)
    @settings(max_examples=60)
    def test_triangularity(self, vec):
        # each output index depends only on inputs up to that index
        full = associated(TaylorSeries(coeffs=tuple(vec))).coeffs
        for cut in range(1, len(vec) + 1):
            head = associated(TaylorSeries(coeffs=tuple(vec[:cut]))).coeffs
            assert head == full[:cut]

    def test_decimal_kind_supported(self):
        series = TaylorSeries(coeffs=(Decimal("1"), Decimal("-1"), Decimal("1")))
        assoc = associated(series)
        assert assoc.coeffs[2] == Decimal("0")


class TestAssociatedInverse:
    def test_hand_solved_system(self):
        assoc = AssociatedSeries(coeffs=(F(1), F(-1), F(0), F(0)))
        assert associated_inverse(assoc) == (F(1), F(-1), F(1), F(-1))

    def test_constant(self):
        assert associated_inverse(AssociatedSeries(coeffs=(F(3),))) == (F(3),)

    @given(fraction_vectors)
    @settings(max_examples=100)
    def test_round_trip(self, vec):
        series = TaylorSeries(coeffs=tuple(vec))
        back = associated_inverse(associated(series))
        assert back == series.coeffs

    def test_round_trip_seeded_long(self):
        rng = random.Random(123)
        for _ in range(50):
            vec = random_fraction_vector(rng, rng.randint(1, 30))
            assert associated_inverse(associated(TaylorSeries(coeffs=vec))) == vec


# The four public maps, each reduced to its coefficient vector.
FOUR_MAPS = {
    "associated": lambda v: associated(TaylorSeries(coeffs=v)).coeffs,
    "associated_inverse": lambda v: associated_inverse(AssociatedSeries(coeffs=v)),
    "shifted_to_plain": lambda v: shifted_to_plain(ShiftedExpansion(coeffs=v)).coeffs,
    "plain_to_shifted": lambda v: plain_to_shifted(PlainExpansion(coeffs=v)).coeffs,
}


class TestKernelContract:
    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_decimal_result_is_exact_transform_rounded_once(self, name):
        apply = FOUR_MAPS[name]
        prefix = tuple(to_decimal(c, 19) for c in arctan_coeffs(60).coeffs)
        exact = apply(tuple(F(d) for d in prefix))
        expected = tuple(to_decimal(w, 19) for w in exact)
        with localcontext() as ctx:
            ctx.prec = 19
            got = apply(prefix)
        assert all(type(g) is Decimal for g in got)
        assert got == expected

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_vanishing_decimal_sums_stay_decimal(self, name):
        got = FOUR_MAPS[name]((D(1), D(0), D(0)))
        assert got == (D(1), D(0), D(0))
        assert all(type(g) is Decimal for g in got)

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_float_rejected(self, name):
        with pytest.raises(TypeError):
            FOUR_MAPS[name]((1.0, 0.5, 0.25))


class TestEstimateRadius:
    def test_exact_geometric(self):
        assoc = AssociatedSeries(coeffs=tuple(F(1, 2**n) for n in range(12)))
        est = estimate_radius(assoc, lag=1)
        assert all(v == 2.0 for v in est.values)
        assert est.limit_guess == 2.0

    def test_trailing_zeros_leave_one_comparison(self):
        assoc = AssociatedSeries(coeffs=(F(1), F(-1), F(0), F(0), F(0)))
        est = estimate_radius(assoc, lag=1)
        assert list(est.values) == [1.0]
        assert est.limit_guess is None

    def test_all_pairs_degenerate(self):
        assoc = AssociatedSeries(coeffs=(F(1), F(0), F(1), F(0), F(1), F(0)))
        with pytest.raises(DegenerateRatiosError):
            estimate_radius(assoc, lag=1)

    def test_arctan_lag_4_converges_to_inverse_sqrt2(
        self, arctan_assoc_10001_closed_form
    ):
        est = estimate_radius(arctan_assoc_10001_closed_form, lag=4)
        assert est.limit_guess is not None
        assert abs(est.limit_guess - 0.707106781) < 1e-4

    def test_too_few_coefficients(self):
        with pytest.raises(ValueError):
            estimate_radius(AssociatedSeries(coeffs=(F(1), F(1))), lag=4)

    def test_bad_lag(self):
        with pytest.raises(ValueError):
            estimate_radius(AssociatedSeries(coeffs=(F(1), F(1), F(1))), lag=0)

    def test_decimal_coefficients(self):
        assoc = AssociatedSeries(
            coeffs=tuple(Decimal(1) / Decimal(2) ** n for n in range(10))
        )
        est = estimate_radius(assoc, lag=1)
        assert est.limit_guess == 2.0


class TestSeriesTypes:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            TaylorSeries(coeffs=())
        with pytest.raises(ValueError):
            AssociatedSeries(coeffs=())
