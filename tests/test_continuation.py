from __future__ import annotations

import math
import random
import time
from decimal import MAX_PREC, ROUND_UP, Decimal, localcontext
from fractions import Fraction

import pytest

from asymser import (
    AssociatedSeries,
    ContinuationState,
    EmptyStateError,
    InsufficientConvergedError,
    NonIntegralPathError,
    PlainExpansion,
    SchemeConfig,
    ShiftedExpansion,
    continue_to_one_with_steps,
    extract_shifted,
    associated,
    build_companion,
    build_series,
    recenter_step,
    to_decimals,
)
from asymser import continuation
from asymser.continuation import _exact_decimal, shared_first_shift
from helpers import (
    assert_value_contract,
    continue_to_one,
    exact_converged_count,
    exact_recenter,
    reference_continue,
    reference_converged_count,
)

D = Decimal
F = Fraction


def make_state(values, center="0", converged=None):
    coeffs = tuple(D(v) for v in values)
    if converged is None:
        converged = len(coeffs)
    return ContinuationState(center=D(center), coeffs=coeffs, converged_count=converged)


class TestSchemeConfig:
    def test_valid_steps(self):
        # exactly 1/dx, up to the bound of 1000 * m steps
        for m, dx, steps in ((10, "0.125", 8), (10, "0.25", 4), (10, "0.5", 2), (10, "1", 1),
                             (1, "0.001", 1000), (2, "0.0009765625", 1024), (1, "1.0", 1),
                             (1, "0.50", 2), (1, F(1, 1000), 1000)):
            assert SchemeConfig(m=m, step=dx, alpha="0.1").steps == steps

    def test_non_integral_path(self):
        with pytest.raises(NonIntegralPathError):
            SchemeConfig(m=10, step="0.3", alpha="0.1")

    def test_non_terminating_step(self):
        with pytest.raises(NonIntegralPathError):
            SchemeConfig(m=10, step=F(1, 3), alpha="0.1")

    def test_fraction_step_exact_past_28_digits(self):
        # 2**-60 has 42 significant digits; m = 2**51 allows its 2**60 steps
        config = SchemeConfig(m=2**51, step=F(1, 2**60), alpha="0.1")
        assert F(config.step) == F(1, 2**60)
        assert config.steps == 2**60

    def test_ten_million_digit_path_refused_without_forming_it(self):
        # 1/dx = 10**10000000 takes seconds to build: the exponent alone refuses it
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^dx 1E-10000000 takes more than 10\*\*9999999 "
                                             r"steps; at most 1000 \* m = 5000 are allowed$"):
            SchemeConfig(m=5, step="1e-10000000", alpha="0.1")
        assert time.perf_counter() - start < 2

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            SchemeConfig(m=10, step="0.25", alpha="0")

    def test_non_finite_rejected(self):
        for step in ("NaN", "Infinity"):
            with pytest.raises(NonIntegralPathError):
                SchemeConfig(m=10, step=step, alpha="0.1")
        with pytest.raises(ValueError):
            SchemeConfig(m=10, step="0.25", alpha="NaN")
        for alpha in ("Infinity", "inf", D("Infinity")):
            with pytest.raises(ValueError, match=r"^alpha Infinity is not finite$"):
                SchemeConfig(m=10, step="0.25", alpha=alpha)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            SchemeConfig(m=10, step=0.25, alpha="0.1")

    def test_default_digits(self):
        assert SchemeConfig(m=10, step="0.25", alpha="0.1").digits == 19

    @pytest.mark.parametrize("field, value", [
        ("m", 2.5), ("m", True), ("m", "10"), ("m", D(10)), ("m", F(10)),
        ("digits", 2.5), ("digits", True), ("digits", False), ("digits", "19"), ("digits", F(19))])
    def test_non_integer_m_or_digits_refused(self, field, value):
        """A bool is refused too, though it is an int: True would read as 1."""
        with pytest.raises(TypeError) as info:
            SchemeConfig(**{"m": 10, "step": "0.5", "alpha": "0.1", field: value})
        assert str(info.value) == f"{field} must be an int, not {type(value).__name__}"


class TestExactDecimal:
    def test_fraction_comes_back_exact(self):
        assert F(_exact_decimal(F(1, 2**70), "step")) == F(1, 2**70)
        assert F(_exact_decimal(F(-3**40, 5**30), "step")) == F(-3**40, 5**30)

    @pytest.mark.parametrize(
        "value, text", [(F(3, 20), "0.15"), (F(1, 8), "0.125"), (F(10), "10"), (F(0), "0")]
    )
    def test_fraction_is_canonical(self, value, text):
        assert _exact_decimal(value, "alpha").as_tuple() == D(text).as_tuple()

    @pytest.mark.parametrize("what, exc", [("step", NonIntegralPathError), ("alpha", ValueError)])
    def test_non_terminating_fraction_keeps_error(self, what, exc):
        with pytest.raises(exc) as info:
            _exact_decimal(F(1, 3), what, exc)
        assert type(info.value) is exc
        assert str(info.value) == f"{what} 1/3 has no terminating decimal representation"


class TestRecenterStep:
    def test_affine_function_recenters_exactly(self):
        state = make_state(["1", "-1", "0", "0"])
        out = recenter_step(state, "0.25", "0.1")
        assert out.center == D("0.25")
        assert out.coeffs == (D("0.75"), D("-1"), D("0"), D("0"))
        assert out.converged_count == 4  # zero tail converges everywhere

    def test_geometric_closed_form(self):
        # 1/(1-x) recentered to d: coefficients 1/(1-d)**(k+1)
        state = make_state(["1"] * 200)
        out = recenter_step(state, "0.25", "1e-25", digits=38)
        targets = to_decimals([F(4, 3) ** (k + 1) for k in range(10)], 38)
        for k, target in enumerate(targets):
            rel = abs(out.coeffs[k] - target) / target
            assert rel < D("1e-30"), k

    def test_terms_below_alpha_still_summed(self):
        # a sub-threshold term must still contribute to the sum; alpha only
        # classifies convergence, it does not truncate
        state = make_state(["1", "0.001"])
        out = recenter_step(state, "0.5", "0.1")
        assert out.coeffs[0] == D("1.0005")
        assert out.converged_count == 2

    def test_single_trailing_zero_does_not_mask_divergence(self):
        # tail ends [large, 0]: the zero is treated as a sampled zero and the
        # test falls back to the large term, so nothing converges
        state = make_state(["1", "1", "1000000", "0"])
        out = recenter_step(state, "0.5", "0.1")
        assert out.converged_count == 0

    def test_two_trailing_zeros_count_as_finished_tail(self):
        state = make_state(["1", "1", "0", "0"])
        out = recenter_step(state, "0.5", "0.1")
        assert out.converged_count == 4

    def test_empty_state(self):
        state = ContinuationState(center=D(0), coeffs=(), converged_count=0)
        with pytest.raises(EmptyStateError):
            recenter_step(state, "0.25", "0.1")

    @pytest.mark.parametrize("step, message", [
        ("inf", "step Infinity is not finite"),
        ("-inf", "step -Infinity is not finite"),
        ("nan", "step NaN is not finite"),
        ("snan", "step sNaN is not finite"),
        ("0", "step must be positive"),
        ("-0", "step must be positive"),
    ])
    def test_step_not_finite_and_positive_is_a_bad_argument(self, step, message):
        """Refused as SchemeConfig refuses it, by the same text, as a
        ValueError: not an ArithmeticError, which reads as a blow-up."""
        with pytest.raises(ValueError) as info:
            recenter_step(make_state(["1", "0.5"]), step, "0.1")
        assert (type(info.value), str(info.value)) == (ValueError, message)
        with pytest.raises(NonIntegralPathError) as info:
            SchemeConfig(m=10, step=step, alpha="0.1")
        assert str(info.value) == message

    def test_determinism(self):
        state = make_state(to_decimals([F(1, n + 1) for n in range(40)], 19))
        a = recenter_step(state, "0.125", "0.01")
        b = recenter_step(state, "0.125", "0.01")
        assert a == b

    @pytest.mark.parametrize("exact", [False, True])
    def test_step_away_from_zero_is_the_exact_shift(self, exact):
        """From a center away from 0, at every digits and either carry rule,
        the step keeps the exact shift, each coefficient rounded once, up to
        the carried block, with the exact per-term loop's converged count."""
        coeffs = [F(1, n + 1) * (-1) ** (n // 3) for n in range(40)]
        state = ContinuationState(D("0.25"), coeffs if exact else to_decimals(coeffs, 30), 40)
        for step, alpha, digits, carried_only in [("0.125", "0.01", 19, True),
                                                  ("0.25", "1e-300", 2, True),
                                                  ("0.5", "0.1", 30, False),
                                                  ("1", "1e6", 19, True)]:
            count = exact_converged_count(state.coeffs, step, alpha)
            kept = count if carried_only and count >= 1 else len(coeffs)
            shift = exact_recenter(state.coeffs, D(step))[:kept]
            want = ContinuationState(D("0.25") + D(step),
                                     shift if exact else to_decimals(shift, digits), count)
            stepped = recenter_step(state, step, alpha, digits, carried_only)
            assert state_key(stepped) == state_key(want)

    def test_rounding_error_is_raised(self, monkeypatch):
        state = make_state(to_decimals([F(1, n + 1) for n in range(40)], 19))

        def failing(*args):
            raise ArithmeticError("injected in the rounding")

        monkeypatch.setattr(continuation, "_quotients", failing)
        with pytest.raises(ArithmeticError, match="injected in the rounding"):
            recenter_step(state, "0.25", "0.01", 19, True)


def assert_exact_step(state, step, alpha, digits=19):
    """recenter_step must give the exact shift of its input decimals, each
    coefficient rounded once, and the per-term loop's convergence flags."""
    out = recenter_step(state, step, alpha, digits)
    exact = exact_recenter(state.coeffs, D(step))
    for k, (got, want) in enumerate(zip(out.coeffs, to_decimals(exact, digits))):
        assert got.as_tuple() == want.as_tuple(), (k, got, want)
    assert len(out.coeffs) == len(state.coeffs)
    assert out.converged_count == reference_converged_count(
        state.coeffs, step, alpha, digits
    )
    return out


class TestRecenterOracle:
    @pytest.mark.parametrize("step", ["0.125", "0.25", "0.5", "0.3"])
    def test_arctan_companion_prefix(self, step):
        assoc = associated(build_series("arctan", 120))
        state = make_state(to_decimals(assoc.coeffs, 19))
        for alpha in ("0.1", "1e-6"):
            assert_exact_step(state, step, alpha)

    def test_random_vectors_with_zeros(self):
        rng = random.Random(2024)
        for _ in range(60):
            values = [
                "0" if rng.random() < 0.25
                else f"{rng.randint(-10**19 + 1, 10**19 - 1)}E{rng.randint(-30, 5)}"
                for _ in range(rng.randint(1, 40))
            ]
            step = rng.choice(["0.125", "0.25", "0.5", "0.3", "1", "0.05"])
            alpha = rng.choice(["0.1", "1e-9", "1e6"])
            assert_exact_step(make_state(values), step, alpha)

    def test_exact_states_recenter_exactly(self):
        # exact in, exact out; the flags are those of the state rounded to digits
        rng = random.Random(12)
        for _ in range(80):
            coeffs = tuple(
                F(0) if rng.random() < 0.25
                else F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                for _ in range(rng.randint(1, 30))
            )
            step = rng.choice(["0.125", "0.25", "0.5", "1", "0.3"])
            alpha = rng.choice(["0.1", "1e-9", "1e6"])
            digits = rng.choice([5, 19, 30])
            state = ContinuationState(center=D(0), coeffs=coeffs, converged_count=len(coeffs))
            out = recenter_step(state, step, alpha, digits)
            assert out.coeffs == tuple(exact_recenter(coeffs, D(step)))
            assert all(type(c) is F for c in out.coeffs)
            assert out.converged_count == reference_converged_count(
                to_decimals(coeffs, digits), step, alpha, digits
            )
            at_one = ContinuationState(D(1), out.coeffs, out.converged_count)
            shifted = extract_shifted(at_one, out.converged_count)
            assert shifted.coeffs == tuple(
                (-1) ** n * c for n, c in enumerate(out.coeffs[: out.converged_count])
            )
            assert all(type(c) is F for c in shifted.coeffs)

    @pytest.mark.parametrize(
        "values",
        [
            ["0", "0", "0"],  # all-zero
            ["1", "2", "300", "0"],  # single trailing zero
            ["1", "2", "300", "0", "0"],  # double trailing zero
            ["1", "0", "0", "0"],  # only the diagonal term is nonzero
            ["0.05"],  # m = 1, below alpha
            ["5"],  # m = 1, above alpha
            ["0"],
        ],
    )
    def test_tail_rules(self, values):
        for step in ("0.25", "0.5"):
            assert_exact_step(make_state(values), step, "0.1")

    def test_higher_precision(self):
        assoc = associated(build_series("arctan", 60))
        state = make_state(to_decimals(assoc.coeffs, 40))
        assert_exact_step(state, "0.25", "0.01", digits=40)


class TestExactFlags:
    """The convergence flags are the exact comparison of each trailing term
    with alpha: they equal the per-term Fraction loop whatever the digits."""

    @staticmethod
    def assert_flags(coeffs, step, alpha):
        got = continuation._converged_prefix(tuple(coeffs), D(step), D(alpha))
        assert got == exact_converged_count(coeffs, step, alpha), (step, alpha)

    @pytest.mark.parametrize("m", [40, 98, 201, 301])
    def test_every_state_of_arctan_continuations(self, m):
        assoc = build_companion("arctan", m)
        for step in ("0.125", "0.25", "0.5"):
            for alpha in ("1e-300", "0.01", "0.1", "0.5"):
                config = SchemeConfig(m, step, alpha)
                _, states = continue_to_one_with_steps(assoc, config)
                inputs = [make_state(to_decimals(assoc.coeffs[:m], 19)), *states[:-1]]
                for before, after in zip(inputs, states):
                    self.assert_flags(before.coeffs, step, alpha)
                    assert after.converged_count == exact_converged_count(
                        before.coeffs, step, alpha)

    @pytest.mark.parametrize("zeros", [0, 1, 2])
    def test_random_vectors_by_trailing_zeros(self, zeros):
        rng = random.Random(zeros)
        for _ in range(60):
            values = [
                "0" if rng.random() < 0.2
                else f"{rng.randint(-10**19 + 1, 10**19 - 1)}E{rng.randint(-30, 5)}"
                for _ in range(rng.randint(1, 40))
            ] + ["0"] * zeros
            coeffs = to_decimals(values, 19)
            for step in ("0.125", "0.25", "0.5", "0.3", "1"):
                for alpha in ("1e-9", "0.1", "1e6"):
                    self.assert_flags(coeffs, step, alpha)

    def test_exact_states(self):
        rng = random.Random(7)
        for _ in range(60):
            coeffs = [
                F(0) if rng.random() < 0.25
                else F(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
                for _ in range(rng.randint(1, 30))
            ]
            for step in ("0.3", "1", "0.125"):
                for alpha in ("1e-9", "0.1", "1e6"):
                    self.assert_flags(coeffs, step, alpha)

    @pytest.mark.parametrize("exact", [False, True])
    def test_alphas_across_eight_hundred_decades(self, exact):
        """Alphas c * 10**e with e in [-400, 400], most of them far from every
        trailing term, where a shortcut settles every flag at once; alphas
        that put 3 * |e - f| one bit below, at and one bit above each
        shortcut's threshold; and alphas at a trailing term and a hair either
        side of it, where only the exact comparison can decide.  The vectors
        of one coefficient 2**j - 1, alone or before a zero (whose flag loop
        is empty), meet the thresholds with the smallest operands."""
        rng = random.Random(11 + exact)

        def vectors():
            for _ in range(80):
                if exact:
                    coeffs = [F(0) if rng.random() < 0.25
                              else F(rng.randint(-10**6, 10**6), rng.choice([1, 3, 4, 25, 80]))
                              for _ in range(rng.randint(1, 30))]
                else:
                    coeffs = list(to_decimals(
                        ["0" if rng.random() < 0.25
                         else f"{rng.randint(-10**19 + 1, 10**19 - 1)}E{rng.randint(-400, 400)}"
                         for _ in range(rng.randint(1, 30))], 19))
                yield coeffs + [F(0) if exact else D(0)] * rng.randint(0, 1)
            for j in range(1, 12):
                for zeros in (0, 1):
                    yield [F(2**j - 1) if exact else D(f"{1 - 2**j}E{37 * j - 200}"),
                           *[F(0) if exact else D(0)] * zeros]

        for coeffs in vectors():
            step = rng.choice(["0.125", "0.25", "0.375", "0.5", "0.75", "1"])
            alphas = [f"{rng.randint(1, 10**6)}E{rng.randint(-400, 400)}" for _ in range(6)]
            nonzero = [n for n, c in enumerate(coeffs) if c]
            if nonzero:
                last = nonzero[-1]
                k = rng.randint(0, last)
                term = abs(F(coeffs[last])) * math.comb(last, k) * F(step) ** (last - k)
                if term.denominator % 3:  # a terminating decimal
                    alphas += [_exact_decimal(a, "alpha") for a in
                               (term, term * (1 + F(1, 10**30)), term * (1 - F(1, 10**30)))]
                # with a_L = n/d * 10**e, step = p/q and alpha = t * 10**(e - E),
                # the first shortcut weighs 8**E against t * d * q**L, given
                # `bits` bits by the largest such t, and the second 8**-E
                # against 2**L * |n| * p**L, for alpha = 10**(e - E)
                n, d, e = continuation._decimal_ratio(coeffs[last])
                p, q = F(step).as_integer_ratio()
                rhs = d * q**last
                top = (rhs.bit_length() + 3) // 3
                alphas += [f"{(2**bits - 1) // rhs}E{e - E}"
                           for E in (1, 2, 3, top, top + 1)
                           for bits in (3 * E - 1, 3 * E, 3 * E + 1) if rhs < 2**bits]
                bits = last + (abs(n) * p**last).bit_length()
                alphas += [f"1E{e + b // 3}" for b in (bits - 1, bits, bits + 1) if b % 3 == 0]
            for alpha in alphas:
                self.assert_flags(coeffs, step, alpha)

    @pytest.mark.parametrize(
        "coeffs, want",
        [((D("0.05"),), 0), ((D("0.04"),), 1), ((D(0),), 1), ((F(1, 30),), 1),
         ((D(0),) * 5, 5), ((), 0)],
    )
    def test_one_coefficient_and_all_zero(self, coeffs, want):
        for step in ("0.25", "1"):
            assert continuation._converged_prefix(coeffs, D(step), D("0.05")) == want
            self.assert_flags(coeffs, step, "0.05")

    def test_term_equal_to_alpha_is_not_claimed(self):
        # the trailing term of output 0 is 0.2 * 0.25 = 0.05 exactly
        for a1 in (D("0.2"), F(1, 5)):
            state = ContinuationState(D(0), (D("0.01"), a1), 2)
            assert recenter_step(state, "0.25", "0.05").converged_count == 0
            assert recenter_step(state, "0.25", "0.0500001").converged_count == 1

    @pytest.mark.parametrize("alpha, message", [
        ("Infinity", "alpha Infinity is not finite"), (D("inf"), "alpha Infinity is not finite"),
        ("NaN", "alpha must be a number")])
    def test_non_finite_alpha_refused(self, alpha, message):
        # an infinite alpha would claim every output, whatever it holds
        state = ContinuationState(D(0), (D(1), D(-2), D(3)), 3)
        with pytest.raises(ValueError, match=f"^{message}$"):
            recenter_step(state, "0.5", alpha)

    @pytest.mark.parametrize("alpha", ["0", "-0.1", "-Infinity"])
    def test_alpha_must_be_positive(self, alpha):
        # a finished tail would otherwise be claimed whatever alpha is
        state = ContinuationState(D(0), (D(1), D(0), D(0)), 3)
        with pytest.raises(ValueError, match="alpha must be positive"):
            recenter_step(state, "0.5", alpha)

    @pytest.mark.parametrize("digits, error, message", [
        (0, ValueError, "digits must be >= 1"),
        (MAX_PREC + 1, ValueError, f"digits must be <= {MAX_PREC}"),
        (2.5, TypeError, "digits must be an int, not float"),
        (True, TypeError, "digits must be an int, not bool"),
    ])
    def test_digits_refused_as_schemeconfig_refuses_them(self, digits, error, message):
        for state in (ContinuationState(D(0), (D(1), D(-2), D(3)), 3),
                      ContinuationState(D(0), (F(1), F(-2), F(3)), 3)):
            with pytest.raises(error) as info:
                recenter_step(state, "0.5", "0.1", digits)
            assert (type(info.value), str(info.value)) == (error, message)
        with pytest.raises(error) as info:
            SchemeConfig(m=10, step="0.5", alpha="0.1", digits=digits)
        assert str(info.value) == message

    def test_step_is_not_rounded_to_digits(self):
        # 0.41 * 0.125 = 0.05125 is not below 0.05; a step rounded to two
        # digits, 0.12, would give 0.0492 and claim output 0
        state = ContinuationState(D(0), (D("0.2"), D("0.41")), 2)
        assert recenter_step(state, "0.125", "0.05", digits=2).converged_count == 0

    def test_flags_ignore_the_ambient_context(self):
        assoc = build_companion("arctan", 98)
        state = make_state(to_decimals(assoc.coeffs, 19))
        want = [exact_converged_count(state.coeffs, "0.25", a) for a in ("0.01", "0.1", "0.5")]
        with localcontext() as ctx:
            ctx.prec, ctx.rounding = 2, ROUND_UP
            got = [recenter_step(state, "0.25", a, digits=2).converged_count
                   for a in ("0.01", "0.1", "0.5")]
        assert got == want


class TestContinueToOne:
    def test_polynomial_exact_for_every_step_size(self):
        # u = 5 - 2x + x**3: Taylor coefficients at 1 are [4, 1, 3, 1]
        coeffs = (F(5), F(-2), F(0), F(1), F(0), F(0), F(0), F(0), F(0), F(0))
        assoc = AssociatedSeries(coeffs=coeffs)
        for dx in ("0.125", "0.25", "0.5"):
            config = SchemeConfig(m=10, step=dx, alpha="1e-30", digits=30)
            state = continue_to_one(assoc, config)
            assert state.center == D(1)
            expect = [D(4), D(1), D(3), D(1)] + [D(0)] * 6
            for got, want in zip(state.coeffs, expect):
                assert abs(got - want) <= D("1e-27"), dx

    def test_polynomial_unpadded_survives_tiny_alpha(self):
        # alpha below every term magnitude: nothing converges, but the state
        # is carried whole and the arithmetic stays exact
        assoc = AssociatedSeries(coeffs=(F(1), F(-1)))
        config = SchemeConfig(m=2, step="0.25", alpha="1e-30", digits=25)
        state = continue_to_one(assoc, config)
        assert abs(state.coeffs[0] - 0) < D("1e-22")
        assert state.coeffs[1] == D(-1)

    def test_step_composition(self):
        # u = 1/(2-x): singularity at distance >= 1 from the whole path.
        # alpha sits above every trailing term, so no coefficient is dropped
        # and both paths amount to exact polynomial recentering plus roundoff.
        coeffs = tuple(F(1, 2 ** (n + 1)) for n in range(60))
        assoc = AssociatedSeries(coeffs=coeffs)
        fine = continue_to_one(assoc, SchemeConfig(m=60, step="0.125", alpha="0.5", digits=30))
        coarse = continue_to_one(assoc, SchemeConfig(m=60, step="0.25", alpha="0.5", digits=30))
        for k in range(2):
            rel = abs(fine.coeffs[k] - coarse.coeffs[k]) / abs(coarse.coeffs[k])
            assert rel < D("1e-27")

    def test_not_enough_coefficients(self):
        assoc = AssociatedSeries(coeffs=(F(1), F(2)))
        with pytest.raises(ValueError):
            continue_to_one(assoc, SchemeConfig(m=5, step="0.25", alpha="0.1"))

    def test_step_records(self):
        assoc = AssociatedSeries(coeffs=tuple(F(1, n + 1) for n in range(30)))
        config = SchemeConfig(m=30, step="0.25", alpha="0.01")
        state, states = continue_to_one_with_steps(assoc, config)
        assert len(states) == 4
        centers = [s.center for s in states]
        assert centers == [D("0.25"), D("0.5"), D("0.75"), D("1.00")]
        assert all(a < b for a, b in zip(centers, centers[1:]))
        assert states[-1] == state

    def test_centers_exact_at_low_digits(self):
        # at 2 digits a rounded center would walk 0.12, 0.24, ..., 0.96
        config = SchemeConfig(m=40, step="0.125", alpha="0.5", digits=2)
        state, states = continue_to_one_with_steps(associated(build_series("arctan", 40)), config)
        assert str(state.center) == "1.000"
        assert [str(s.center) for s in states] == [
            "0.125", "0.250", "0.375", "0.500", "0.625", "0.750", "0.875", "1.000"]

    def test_path_of_at_most_1000_steps_per_coefficient(self):
        """1000 * m steps run; 1024, the next count past it that 1/dx can be,
        or 10**30 are refused by SchemeConfig, naming the step count and the bound."""
        assoc = AssociatedSeries(coeffs=(F(1, 2),))
        state, states = continue_to_one_with_steps(
            assoc, SchemeConfig(m=1, step=F(1, 1000), alpha="0.1"))
        assert (state.center, len(states), state.coeffs) == (1, 1000, (D("0.5"),))
        for step, shown, steps in ((F(1, 1024), "0.0009765625", "1024"),
                                   ("1e-30", "1E-30", "1000000000000000000000000000000"),
                                   ("1e-5000", "1E-5000", "more than 10**4999")):
            with pytest.raises(ValueError) as info:
                SchemeConfig(m=1, step=step, alpha="0.1")
            assert type(info.value) is ValueError
            assert str(info.value) == (f"dx {shown} takes {steps} steps; "
                                       "at most 1000 * m = 1000 are allowed")

    def test_long_path_refused_before_the_first_step(self, monkeypatch):
        monkeypatch.setattr(continuation, "recenter_step", lambda *a, **k: pytest.fail("stepped"))
        assoc = AssociatedSeries(coeffs=tuple(F(1, n + 1) for n in range(5)))
        with pytest.raises(ValueError, match=r"^dx 1E-30 takes "):
            continue_to_one_with_steps(assoc, SchemeConfig(m=5, step="1e-30", alpha="0.1"))

    def test_determinism_across_runs(self):
        assoc = AssociatedSeries(coeffs=tuple(F((-1) ** n, n + 1) for n in range(50)))
        config = SchemeConfig(m=50, step="0.125", alpha="0.05")
        a = continue_to_one(assoc, config)
        b = continue_to_one(assoc, config)
        assert a == b


def run_key(state, states):
    """Everything a continuation reports, down to each coefficient's digits
    and exponent."""
    return (
        [c.as_tuple() for c in state.coeffs],
        str(state.center),
        state.converged_count,
        [(str(s.center), len(s.coeffs), s.converged_count) for s in states],
    )


def state_key(state):
    """A state's value and repr, each coefficient down to its digits and exponent."""
    return state, repr(state)


def record_passes(monkeypatch):
    """The calls of accumulate in continuation, recorded in order: "powers"
    for a list of powers of p or q, "pass" for one pass of running sums."""
    calls, accumulate = [], continuation.accumulate

    def recording(*args, **kwargs):
        calls.append("powers" if kwargs else "pass")
        return accumulate(*args, **kwargs)

    monkeypatch.setattr(continuation, "accumulate", recording)
    return calls


def shared_runs(assoc, configs):
    """Each config's continuation, all run inside one shared_first_shift()."""
    with shared_first_shift():
        return [continue_to_one_with_steps(assoc, config) for config in configs]


class TestPrefixOnlyContinuation:
    """Steps that compute only the carried block, alone or inside a block
    that shares the first shift across alphas, must equal full-length steps
    truncated afterwards."""

    # 1e-300 converges nothing on the first step, so the whole vector is kept
    ALPHAS = ("1e-300", "1e-6", "0.1")

    @pytest.mark.parametrize("m", [120, 301])
    @pytest.mark.parametrize("step", ["0.125", "0.25", "0.5", "1"])
    def test_arctan_prefix(self, arctan_assoc_701, m, step):
        configs = [SchemeConfig(m=m, step=step, alpha=a) for a in self.ALPHAS]
        shared = shared_runs(arctan_assoc_701, configs)
        for config, run in zip(configs, shared):
            want = run_key(*reference_continue(arctan_assoc_701, config))
            alone = continue_to_one_with_steps(arctan_assoc_701, config)
            assert run_key(*alone) == want
            assert run_key(*run) == want
        # the longest first state is the whole vector: 1e-300 converges nothing
        assert max(len(states[0].coeffs) for _, states in shared) == m

    def test_first_step_keeps_everything_when_nothing_converges(self, arctan_assoc_701):
        config = SchemeConfig(m=120, step="0.25", alpha="1e-300")
        _, states = continue_to_one_with_steps(arctan_assoc_701, config)
        assert (len(states[0].coeffs), states[0].converged_count) == (120, 0)

    def test_shared_sums_stop_at_the_largest_block(self, arctan_assoc_701, monkeypatch):
        """Inside one block, a later alpha's first step forms no powers and
        runs only the passes its block needs past those already run."""
        state = make_state(to_decimals(arctan_assoc_701.coeffs[:301], 19))
        alphas = ("0.01", "0.1", "0.01")
        alone = [recenter_step(state, "0.25", a, carried_only=True) for a in alphas]
        short, wide = len(alone[0].coeffs), len(alone[1].coeffs)
        assert short < wide < 301
        calls = record_passes(monkeypatch)
        with shared_first_shift():
            for i, passes in enumerate((short, wide - short, 0)):
                start = len(calls)
                got = recenter_step(state, "0.25", alphas[i], carried_only=True)
                assert state_key(got) == state_key(alone[i])
                assert calls[start:] == ["powers"] * 2 * (i == 0) + ["pass"] * passes
            # a full-length step extends the kept sums to the whole vector
            start = len(calls)
            got = recenter_step(state, "0.25", "0.1")
            assert calls[start:] == ["pass"] * (301 - wide)
        assert state_key(got) == state_key(recenter_step(state, "0.25", "0.1"))

    def test_repeated_runs_outside_a_block_do_all_their_work(self, arctan_assoc_701,
                                                             monkeypatch):
        config = SchemeConfig(m=120, step="0.25", alpha="0.1")
        calls = record_passes(monkeypatch)
        first = continue_to_one_with_steps(arctan_assoc_701, config)
        once = list(calls)
        second = continue_to_one_with_steps(arctan_assoc_701, config)
        assert run_key(*first) == run_key(*second)
        assert calls == once * 2
        assert once.count("powers") == 2 * config.steps
        assert once.count("pass") == sum(len(s.coeffs) for s in first[1])
        assert continuation._first_shift.get() is None

    def test_exact_and_decimal_prefixes_keep_their_types(self, monkeypatch):
        """Equal values of another type are another shift: each keeps its
        output type, whichever is shifted first."""
        exact = tuple(F((-1) ** n, 2 ** n) for n in range(30))
        decimal = to_decimals(exact, 30)
        assert decimal == exact
        states = [ContinuationState(D(0), c, 30) for c in (exact, decimal)]
        alone = [recenter_step(s, "0.25", "0.01") for s in states]
        assert [{type(c) for c in a.coeffs} for a in alone] == [{F}, {D}]
        for order in ((0, 1), (1, 0)):
            calls = record_passes(monkeypatch)
            with shared_first_shift():
                got = [recenter_step(states[i], "0.25", "0.01") for i in order]
            assert [state_key(g) for g in got] == [state_key(alone[i]) for i in order]
            assert calls.count("powers") == 4
            monkeypatch.undo()

    def test_equal_steps_of_other_spellings_share_a_shift(self, monkeypatch):
        state = make_state(to_decimals([F(1, n + 1) for n in range(40)], 19))
        want = recenter_step(state, "0.250", "0.01", carried_only=True)
        calls = record_passes(monkeypatch)
        with shared_first_shift():
            recenter_step(state, "0.25", "0.01", carried_only=True)
            start = len(calls)
            got = recenter_step(state, "0.250", "0.01", carried_only=True)
        assert calls[start:] == []
        assert state_key(got) == state_key(want)
        assert str(got.center) == "0.250"

    def test_block_is_cleared_when_it_raises(self, monkeypatch):
        state = make_state(to_decimals([F(1, n + 1) for n in range(40)], 19))
        with pytest.raises(ArithmeticError, match="injected"):
            with shared_first_shift():
                recenter_step(state, "0.25", "0.01")
                assert continuation._first_shift.get()
                raise ArithmeticError("injected")
        assert continuation._first_shift.get() is None
        calls = record_passes(monkeypatch)
        recenter_step(state, "0.25", "0.01")
        assert calls == ["powers"] * 2 + ["pass"] * 40

    @staticmethod
    def assert_shared_equal_unshared(assoc, configs):
        """Runs inside one shared_first_shift() block are the same runs
        outside it, state for state in value and repr, and those of the
        step loop of full-length steps."""
        for config, (state, states) in zip(configs, shared_runs(assoc, configs)):
            _, alone = continue_to_one_with_steps(assoc, config)
            assert [state_key(s) for s in states] == [state_key(s) for s in alone]
            assert run_key(state, states) == run_key(*reference_continue(assoc, config))

    @pytest.mark.parametrize("digits", [2, 19, 30])
    @pytest.mark.parametrize("step", ["0.125", "0.25", "0.5", "1"])
    @pytest.mark.parametrize("alphas", [("0.01", "0.1"), ("1e-300", "1e-5", "0.01", "0.1", "0.5")])
    def test_states_after_the_shared_steps(self, arctan_assoc_701, digits, step, alphas):
        """Neighbouring alphas' first-step blocks differ by a short stretch;
        1e-300 keeps the whole vector, a long stretch above its neighbour's."""
        pole = build_companion("pole:-3", 98)
        for assoc, m in ((arctan_assoc_701, 120), (arctan_assoc_701, 301), (pole, 98)):
            configs = [SchemeConfig(m=m, step=step, alpha=a, digits=digits) for a in alphas]
            self.assert_shared_equal_unshared(assoc, configs)

    def test_random_vectors_and_alpha_sets(self):
        rng = random.Random(7)
        for _ in range(40):
            values = [
                "0" if rng.random() < 0.25
                else f"{rng.randint(-10**19 + 1, 10**19 - 1)}E{rng.randint(-30, 5)}"
                for _ in range(rng.randint(1, 40))
            ]
            assoc = AssociatedSeries(coeffs=tuple(D(v) for v in values))
            step = rng.choice(["0.125", "0.25", "0.5", "1"])
            alphas = rng.sample(["1e-9", "0.001", "0.1", "10", "1e6"], rng.randint(1, 4))
            configs = [SchemeConfig(m=len(values), step=step, alpha=a) for a in alphas]
            self.assert_shared_equal_unshared(assoc, configs)

    @pytest.mark.parametrize("zeros", [0, 1, 2])
    def test_random_vectors_with_trailing_zeros(self, zeros):
        """Random vectors whose last nonzero term, itself random, is followed
        by exactly `zeros` zeros, at 2, 19 and 30 digits."""
        rng = random.Random(100 + zeros)
        for _ in range(30):
            values = [
                "0" if rng.random() < 0.25
                else f"{rng.randint(-10**19 + 1, 10**19 - 1)}E{rng.randint(-30, 5)}"
                for _ in range(rng.randint(0, 40))
            ] + [f"{rng.choice([-1, 1]) * rng.randint(1, 10**19 - 1)}E{rng.randint(-30, 5)}"]
            values += ["0"] * zeros
            assoc = AssociatedSeries(coeffs=tuple(D(v) for v in values))
            step = rng.choice(["0.125", "0.25", "0.5", "1"])
            alphas = rng.sample(["1e-300", "1e-9", "0.001", "0.1", "10", "1e6"], rng.randint(1, 4))
            digits = rng.choice([2, 19, 30])
            configs = [SchemeConfig(m=len(values), step=step, alpha=a, digits=digits)
                       for a in alphas]
            self.assert_shared_equal_unshared(assoc, configs)

    def test_exact_blocks_are_exact_shifts(self):
        """The sums of every leading block, exact or decimal, are its exact
        shift: over their denominators they equal the term-by-term sums."""
        rng = random.Random(3)
        for trial in range(20):
            m = rng.randint(2, 30)
            coeffs = tuple(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(m))
            if trial % 2:
                coeffs = to_decimals(coeffs, 19)
            step = D(rng.choice(["0.125", "0.25", "0.5", "1", "0.375"]))
            stops = sorted({m, *rng.sample(range(1, m + 1), rng.randint(1, min(4, m)))},
                           reverse=True)
            for stop in stops:
                length = rng.randint(1, stop)
                sums, dens, decimal = continuation._shift_sums(coeffs[:stop], step, length)
                assert decimal is bool(trial % 2)
                want = exact_recenter(coeffs[:stop], step)[:length]
                assert [F(b, d) for b, d in zip(sums, dens)] == want

    def test_rounding_error_of_the_shared_step_is_raised(self, arctan_assoc_701, monkeypatch):
        """An error in one alpha's rounding of the shared first shift is
        raised by that alpha's run alone: inside one block the other alphas
        still take their clean steps, whichever runs first.  An error in a
        later step is its own alpha's too."""
        configs = [SchemeConfig(m=120, step="0.25", alpha=a) for a in ("0.01", "0.1", "0.5")]
        clean = [continue_to_one_with_steps(arctan_assoc_701, c) for c in configs]
        assert len({len(states[0].coeffs) for _, states in clean}) == 3
        wide = max(range(3), key=lambda i: len(clean[i][1][0].coeffs))
        spoilt = (clean[wide][1][0].coeffs, clean[1][1][1].coeffs)
        quotients = continuation._quotients

        def failing(sums, dens, decimal, digits):
            coeffs = quotients(sums, dens, decimal, digits)
            if coeffs in spoilt:
                raise ArithmeticError("injected")
            return coeffs

        monkeypatch.setattr(continuation, "_quotients", failing)
        for order in ([0, 1, 2], [2, 1, 0]):
            with shared_first_shift():
                for i in order:
                    if i in (wide, 1):
                        with pytest.raises(ArithmeticError, match="injected"):
                            continue_to_one_with_steps(arctan_assoc_701, configs[i])
                    else:
                        got = continue_to_one_with_steps(arctan_assoc_701, configs[i])
                        assert run_key(*got) == run_key(*clean[i])

    def test_higher_precision(self, arctan_assoc_701):
        for alpha in ("1e-300", "1e-12"):
            config = SchemeConfig(m=301, step="0.25", alpha=alpha, digits=38)
            assert run_key(*continue_to_one_with_steps(arctan_assoc_701, config)) == run_key(
                *reference_continue(arctan_assoc_701, config)
            )


class TestExtractShifted:
    def test_sign_flip(self):
        state = make_state(["1.5707963", "1", "-0.5"], center="1", converged=3)
        shifted = extract_shifted(state, 3)
        assert shifted.coeffs == (D("1.5707963"), D("-1"), D("-0.5"))

    def test_affine_recovers_simple_pole(self):
        # u = 1 - x continued to 1 is [0, -1, 0, ...]; the expansion of
        # 1/(x+1) in powers of 1/(x+1) is exactly the second unit vector
        assoc = AssociatedSeries(coeffs=(F(1), F(-1)) + (F(0),) * 48)
        config = SchemeConfig(m=50, step="0.25", alpha="1e-30", digits=38)
        state = continue_to_one(assoc, config)
        shifted = extract_shifted(state, 3)
        assert abs(shifted.coeffs[0]) < D("1e-34")
        assert abs(shifted.coeffs[1] - 1) < D("1e-34")
        assert abs(shifted.coeffs[2]) < D("1e-34")

    def test_count_zero(self):
        state = make_state(["2"], center="1", converged=1)
        assert extract_shifted(state, 0).coeffs == ()

    def test_negative_count_rejected(self):
        state = make_state(["2"], center="1", converged=1)
        with pytest.raises(ValueError) as info:
            extract_shifted(state, -1)
        assert type(info.value) is ValueError
        assert str(info.value) == "count must be >= 0"

    def test_requires_center_one(self):
        state = make_state(["1"], center="0.5")
        with pytest.raises(ValueError):
            extract_shifted(state, 1)

    def test_refuses_beyond_converged(self):
        state = make_state(["1", "2", "3"], center="1", converged=1)
        with pytest.raises(InsufficientConvergedError):
            extract_shifted(state, 2)


class TestStateInvariants:
    def test_converged_count_bounds(self):
        with pytest.raises(ValueError):
            ContinuationState(center=D(0), coeffs=(D(1),), converged_count=2)
        with pytest.raises(ValueError):
            ContinuationState(center=D(0), coeffs=(D(1),), converged_count=-1)

    def test_to_decimals_rejects_float(self):
        with pytest.raises(TypeError):
            to_decimals((0.25,))

    def test_to_decimals_rounds_fraction(self):
        assert to_decimals((F(2, 3),), 5) == (D("0.66667"),)


class TestValueTypes:
    @pytest.mark.parametrize(
        "value, same, other, text",
        [
            (SchemeConfig(5, "0.25", "0.1"),
             SchemeConfig(m=5, step=D("0.25"), alpha=D("0.1"), digits=19),
             SchemeConfig(5, "0.25", "0.1", 20),
             "SchemeConfig(m=5, step=Decimal('0.25'), alpha=Decimal('0.1'), digits=19)"),
            (SchemeConfig(5, F(1, 8), D("1e-3"), 30),
             SchemeConfig(digits=30, alpha="0.001", step="0.125", m=5),
             SchemeConfig(5, "0.125", "0.01", 30),
             "SchemeConfig(m=5, step=Decimal('0.125'), alpha=Decimal('0.001'), digits=30)"),
            (ContinuationState(D(0), [D("1.5")], 1),
             ContinuationState(center=D(0), coeffs=(D("1.5"),), converged_count=1),
             ContinuationState(D(0), [D("1.5")], 0),
             "ContinuationState(center=Decimal('0'), coeffs=(Decimal('1.5'),), "
             "converged_count=1)"),
            (ShiftedExpansion([D(1), D("-0.5")]),
             ShiftedExpansion(coeffs=(D(1), D("-0.5"))),
             PlainExpansion((D(1), D("-0.5"))),
             "ShiftedExpansion(coeffs=(Decimal('1'), Decimal('-0.5')))"),
            (ShiftedExpansion((1,)), ShiftedExpansion(coeffs=[1]),
             ShiftedExpansion((1, 0)), "ShiftedExpansion(coeffs=(1,))"),
        ],
    )
    def test_value_contract(self, value, same, other, text):
        assert_value_contract(value, same, other, text)
