from __future__ import annotations

import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymser import (
    AssociatedSeries,
    DirectSumTrace,
    PlainExpansion,
    SchemeConfig,
    ShiftedExpansion,
    TaylorSeries,
    associated,
    associated_inverse,
    build_series,
    direct_trace,
    extract_shifted,
    plain_to_shifted,
    shifted_to_plain,
    tail_agreement,
    to_decimals,
)
from asymser import conversion
from asymser.transform import binomial_transform
from helpers import (
    assert_value_contract,
    continue_to_one,
    direct_coeffk_partial,
    direct_partial,
    double_sum_form,
    random_fraction_vector,
)

F = Fraction
D = Decimal

# Inputs of the dense-schedule test, each 151 coefficients long: an exact
# pole, random exact vectors and a 19-digit decimal vector.
DENSE_SERIES = {
    "pole:3/2": build_series("pole:3/2", 151),
    "random-1": TaylorSeries(random_fraction_vector(random.Random(1), 151)),
    "random-2": TaylorSeries(random_fraction_vector(random.Random(2), 151, bound=10**6)),
    "decimal-19": TaylorSeries(
        to_decimals(random_fraction_vector(random.Random(3), 151, bound=10**6), 19)),
}

fraction_vectors = st.lists(
    st.fractions(min_value=-20, max_value=20, max_denominator=30),
    min_size=1,
    max_size=30,
)


class TestPlainExpansion:
    @pytest.mark.parametrize(
        "value, same, other, text",
        [
            (PlainExpansion([F(1, 2)]), PlainExpansion(coeffs=(F(1, 2),)),
             ShiftedExpansion((F(1, 2),)), "PlainExpansion(coeffs=(Fraction(1, 2),))"),
            (PlainExpansion((1, 2)), PlainExpansion(coeffs=[1, 2]),
             PlainExpansion((1, 3)), "PlainExpansion(coeffs=(1, 2))"),
            # the two expansions share one body, may be empty, and never
            # equal each other
            (PlainExpansion(()), PlainExpansion(coeffs=[]), ShiftedExpansion(()),
             "PlainExpansion(coeffs=())"),
            (ShiftedExpansion(()), ShiftedExpansion(coeffs=[]), PlainExpansion(()),
             "ShiftedExpansion(coeffs=())"),
        ],
    )
    def test_value_contract(self, value, same, other, text):
        assert_value_contract(value, same, other, text)

    def test_empty_expansion_is_still_a_value(self):
        # an expansion has no length, so an empty one is not falsy
        for empty in (PlainExpansion(()), ShiftedExpansion(())):
            assert empty and empty.coeffs == ()


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

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^expansion has no coefficients$"):
            plain_to_shifted(PlainExpansion(()))

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
        series = build_series("pole:2", 45)
        for m in range(0, 41):
            assert direct_partial(series, 0, m) == F(1, 2 ** (m + 1))

    def test_constant_function(self):
        series = TaylorSeries(coeffs=(F(5), F(0), F(0), F(0)))
        for m in range(4):
            assert direct_partial(series, 0, m) == F(5)

    def test_arctan_partials_diverge(self):
        series = build_series("arctan", 31)
        assert abs(direct_partial(series, 0, 30)) > 1000

    def test_smallest_instance_matches_double_sum(self):
        series = TaylorSeries(coeffs=(F(3), F(-2)))
        got = direct_partial(series, 1, 1)
        assert got == double_sum_form(series.coeffs, 1, 1) == F(2)
        assert got == direct_coeffk_partial(series, 1, 1)

    def test_pole_two_higher_coefficient(self):
        # shifted expansion of 1/(2+x) is [0, 1, -1, 1, ...]
        series = build_series("pole:2", 130)
        p = direct_partial(series, 1, 100)
        assert abs(p - 1) < F(1, 10**12)
        assert p == direct_coeffk_partial(series, 1, 100)

    def test_vanishing_when_k_exceeds_m(self):
        series = build_series("pole:2", 10)
        for k in range(3, 8):
            assert direct_partial(series, k, 2) == 0

    def test_matches_unreduced_double_sum(self):
        rng = random.Random(4242)
        for _ in range(25):
            n = rng.randint(2, 15)
            coeffs = random_fraction_vector(rng, n, bound=20)
            series = TaylorSeries(coeffs=coeffs)
            m = n - 1
            for k in range(1, 6):
                assert direct_partial(series, k, m) == double_sum_form(
                    coeffs, k, m
                ), (coeffs, k, m)

    def test_decimal_input_is_exact_sum_rounded_once(self):
        # same contract as binomial_transform: the exact partial of the given
        # decimals, rounded once in the ambient context
        rng = random.Random(99)
        coeffs = tuple(
            D(rng.randint(-10**12, 10**12)).scaleb(-rng.randint(0, 14)) for _ in range(31)
        )
        series = TaylorSeries(coeffs=coeffs)
        exact = TaylorSeries(coeffs=tuple(F(c) for c in coeffs))
        with localcontext() as ctx:
            ctx.prec = 7
            for m in (4, 30):
                pairs = [
                    (direct_partial(series, k, m), direct_coeffk_partial(exact, k, m))
                    for k in (0, 1, 2, 5)
                ]
                for got, want in pairs:
                    assert isinstance(got, Decimal)
                    assert got == D(want.numerator) / want.denominator, (m, got, want)

    def test_argument_validation(self):
        series = build_series("pole:2", 5)
        assert direct_partial(series, 0, 3) == direct_coeffk_partial(series, 0, 3)
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            direct_trace(series, -1, [3])
        with pytest.raises(ValueError, match=r"^need m\+1 = 11 coefficients, got 5$"):
            direct_trace(series, 0, [10])
        with pytest.raises(ValueError, match=r"^m must be >= 0$"):
            direct_trace(series, 0, [-1, 3])


class TestDirectTrace:
    def test_huge_k_sums_only_terms_that_have_an_s(self):
        # terms with n > m are empty: a loop over n <= k would not end
        trace = direct_trace(build_series("pole:2", 11), 10**12, range(5, 11))
        assert trace.partials == tuple((m, 0) for m in range(5, 11))
        assert all(type(v) is Fraction for _, v in trace.partials)

    def test_one_companion_transform_per_trace(self, monkeypatch):
        # every partial comes off one transform of the prefix up to the largest m
        lengths = []

        def counted(coeffs, alternating=False):
            lengths.append(len(coeffs))
            return binomial_transform(coeffs, alternating)

        monkeypatch.setattr(conversion, "binomial_transform", counted)
        trace = direct_trace(build_series("pole:2", 250), 1, range(5, 201))
        assert lengths == [201]
        assert [m for m, _ in trace.partials] == list(range(5, 201))

    @pytest.mark.parametrize(
        "name, prec",
        [("pole:3/2", 28), ("random-1", 28), ("random-2", 28), ("decimal-19", 7),
         ("decimal-19", 19)],
    )
    def test_dense_schedule_matches_closed_form(self, name, prec):
        series = DENSE_SERIES[name]
        with localcontext() as ctx:
            ctx.prec = prec
            for k in (0, 1, 2, 5, 10**12):
                got = direct_trace(series, k, range(151)).partials
                want = [(m, direct_coeffk_partial(series, k, m)) for m in range(151)]
                # Decimals compare by their text, so the exponent must match too
                assert [(m, type(v), str(v)) for m, v in got] == [
                    (m, type(v), str(v)) for m, v in want], (name, k)

    def test_pole_two_converges_to_zero(self):
        series = build_series("pole:2", 25)
        trace = direct_trace(series, 0, [5, 10, 20], tol=0.02)
        assert [v for _, v in trace.partials] == [F(1, 2**6), F(1, 2**11), F(1, 2**21)]
        assert trace.converged
        assert trace.limit_guess == F(1, 2**21)

    def test_arctan_not_converged(self):
        trace = direct_trace(build_series("arctan", 31), 0, [10, 20, 30])
        assert not trace.converged
        assert trace.limit_guess is None

    def test_empty_schedule(self):
        trace = direct_trace(build_series("pole:2", 5), 0, [])
        assert trace.partials == ()
        assert not trace.converged

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            direct_trace(build_series("pole:2", 25), 0, [5, 5, 10])

    @pytest.mark.parametrize("schedule", [[], [5, 10]])
    def test_negative_index_rejected(self, schedule):
        with pytest.raises(ValueError, match=r"^k must be >= 0$"):
            direct_trace(build_series("pole:2", 25), -1, schedule)

    def test_zero_tolerance_allowed_negative_rejected(self):
        # every partial of v_0 for 1/(1+x) is exactly 0 past m = 0
        trace = direct_trace(build_series("pole:1", 25), 0, [5, 10, 20], tol=0)
        assert trace.converged and trace.limit_guess == 0
        with pytest.raises(ValueError, match=r"^tol -0.5 is negative$"):
            direct_trace(build_series("pole:1", 25), 0, [5, 10, 20], tol=-0.5)

    @pytest.mark.parametrize("tol, shown", [(float("inf"), "inf"), (float("nan"), "nan"),
                                            (D("NaN"), "NaN"), (D("-Infinity"), "-Infinity")])
    def test_non_finite_tolerance_rejected(self, tol, shown):
        with pytest.raises(ValueError, match=rf"^tol {shown} is not finite$"):
            direct_trace(build_series("pole:1", 25), 0, [5, 10, 20], tol=tol)

    @pytest.mark.parametrize(
        "value, same, other, text",
        [
            (DirectSumTrace(0), DirectSumTrace(k=0, partials=(), limit_guess=None),
             DirectSumTrace(1), "DirectSumTrace(k=0, partials=(), limit_guess=None)"),
            (DirectSumTrace(2, ((5, F(1, 64)),), F(1, 64)),
             DirectSumTrace(limit_guess=F(1, 64), partials=((5, F(1, 64)),), k=2),
             DirectSumTrace(2, ((5, F(1, 64)),)),
             "DirectSumTrace(k=2, partials=((5, Fraction(1, 64)),), "
             "limit_guess=Fraction(1, 64))"),
        ],
    )
    def test_value_contract(self, value, same, other, text):
        assert_value_contract(value, same, other, text)


# Partials that differ from the last by just over tol = 0.5 in the 31st
# significant digit: a 28-digit subtraction would round the gap to 0.5.
EDGE = (D("1.5000000000000000000000000000001"), D(1), D(1))


class TestTailAgreement:
    @pytest.mark.parametrize("values", [[], [F(1)], [F(1), F(1)], [D(1), D(1)]])
    def test_fewer_than_three_values_never_agree(self, values):
        assert not tail_agreement(values, 0.5)

    def test_only_the_last_three_values_count(self):
        assert tail_agreement([F(100), F(1), F(1), F(1)], 0)
        assert not tail_agreement([F(1), F(1), F(2), F(1)], 0.5)

    def test_unit_floor(self):
        # below |last| = 1 the bound is tol itself, not tol * |last|
        assert tail_agreement([F(1, 10**6), F(-1, 10**6), F(0)], 1e-5)
        assert not tail_agreement([F(1, 10**4), F(-1, 10**4), F(0)], 1e-5)
        # above it the bound grows with |last|
        assert tail_agreement([F(1000), F(10005, 10), F(1001)], 1e-3)
        assert not tail_agreement([F(1000), F(10005, 10), F(1001)], 1e-4)

    @pytest.mark.parametrize("tol, gap", [(0.5, "0.5"), (0.3, "0.3"), (1e-9, "1e-9"),
                                          (F(1, 3), "1/3")])
    def test_bound_is_tol_as_written_and_inclusive(self, tol, gap):
        gap = F(gap)
        assert tail_agreement([1 + gap, F(1), F(1)], tol)
        assert not tail_agreement([1 + gap + F(1, 10**40), F(1), F(1)], tol)
        if gap.denominator % 3:
            assert tail_agreement([D(1) + D(gap.numerator) / gap.denominator, D(1), D(1)], tol)

    @pytest.mark.parametrize("values", [[0.1, 0.1, 0.1], [F(1), F(1), 1.0],
                                        [D(1), D(1), 0.5, D(1)]])
    def test_float_values_refused(self, values):
        # three equal binary 0.1s agree, but none of them is 1/10
        with pytest.raises(TypeError, match="not float"):
            tail_agreement(values, 1e-9)

    def test_decimal_and_fraction_inputs_agree(self):
        # gaps at, just inside and just outside tol * max(1, |last|), with
        # values of up to 90 significant digits
        rng = random.Random(2024)
        with localcontext() as ctx:
            ctx.prec = 200  # the values are built exactly
            for _ in range(300):
                tol = rng.choice([0.5, 0.3, 1e-3, 1e-9, 0.0])
                last = D(rng.randint(-10**30, 10**30)).scaleb(-rng.randint(0, 30))
                nudge = rng.choice([-1, 0, 1]) * D(1).scaleb(-rng.randint(25, 60))
                gap = D(repr(tol)) * max(abs(last), 1) + nudge
                values = (last + gap, last - gap / 2, last)
                want = tail_agreement([F(v) for v in values], tol)
                assert tail_agreement(values, tol) == want, (values, tol)

    @pytest.mark.parametrize("prec", [28, 40])
    def test_verdict_ignores_the_decimal_context(self, prec):
        with localcontext() as ctx:
            ctx.prec = prec
            assert not tail_agreement(EDGE, 0.5)
            assert not tail_agreement([F(v) for v in EDGE], 0.5)
            assert tail_agreement((D("1.4999999999999999999999999999999"), D(1), D(1)), 0.5)


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
        from asymser import to_decimals

        # both poles have companion radius > 1, so every route is available
        series = build_series(f"pole:{a}", 200)
        assoc = associated(series)
        config = SchemeConfig(m=200, step="0.25", alpha="1e-30", digits=38)
        state = continue_to_one(assoc, config)
        shifted = extract_shifted(state, 3)

        closed = _closed_shifted(a, 3)
        tol = D("1e-32")
        for got, want in zip(shifted.coeffs, to_decimals(closed, 38)):
            assert abs(got - want) < tol

        direct0 = direct_partial(series, 0, 150)
        direct1 = direct_partial(series, 1, 150)
        assert abs(direct0 - closed[0]) < F(1, 10**12)
        assert abs(direct1 - closed[1]) < F(1, 10**12)

    @pytest.mark.parametrize("a", [1, 2])
    def test_plain_form_matches_hand_expansion(self, a):
        plain = shifted_to_plain(ShiftedExpansion(coeffs=_closed_shifted(a, 8)))
        assert plain.coeffs == _closed_plain(a, 8)
