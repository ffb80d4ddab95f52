from __future__ import annotations

import functools
import random
from decimal import (
    ROUND_05UP,
    ROUND_CEILING,
    ROUND_DOWN,
    ROUND_FLOOR,
    ROUND_HALF_DOWN,
    ROUND_HALF_EVEN,
    ROUND_HALF_UP,
    ROUND_UP,
    Clamped,
    Context,
    Decimal,
    DivisionByZero,
    Inexact,
    InvalidOperation,
    Overflow,
    Rounded,
    Subnormal,
    Underflow,
    localcontext,
)
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from asymser import (
    AssociatedSeries,
    DegenerateRatiosError,
    PlainExpansion,
    RadiusEstimate,
    ShiftedExpansion,
    TaylorSeries,
    associated,
    associated_inverse,
    build_series,
    estimate_radius,
    plain_to_shifted,
    shifted_to_plain,
    to_decimals,
)
from asymser import transform
from asymser.transform import _BLOCK, exact_quotient
from helpers import (
    arctan_assoc_coeff,
    assert_value_contract,
    compose_with_geom_map,
    random_fraction_vector,
    reference_binomial_transform,
)

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

    def test_text_coefficients_rejected(self):
        with pytest.raises(TypeError, match="not str"):
            associated(TaylorSeries(("0.5", "0.25")))

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


ALTERNATING_MAPS = {"associated_inverse", "shifted_to_plain"}


def _valuation(n, p):
    """The exponent of the prime p in n >= 1 (0 for n = 0)."""
    k = 0
    while n and n % p == 0:
        n //= p
        k += 1
    return k


def _random_with_zeros(seed, length, c0):
    rng = random.Random(seed)
    return (c0,) + tuple(
        F(rng.randint(-99, 99), rng.randint(1, 99)) if rng.random() < 0.6 else F(0)
        for _ in range(length - 1)
    )


# Inputs for the oracle check, each built once.  In the first three every
# denominator divides its index (arctan, log(1+x)) or shares factors with it
# (1/s**2); in the rest the index weighting gains little or nothing:
# gcd(6s+1, s) = 1, the pole's denominators are powers of 3, and the random
# denominators mostly miss the index.
ORACLE_INPUTS = {
    "arctan_401": lambda: build_series("arctan", 401).coeffs,
    "log1p_201": lambda: (F(0),) + tuple(F((-1) ** (s + 1), s) for s in range(1, 201)),
    "inverse_squares_201": lambda: (F(0),) + tuple(F(1, s * s) for s in range(1, 201)),
    "one_over_6s_plus_1_201": lambda: (F(1),) + tuple(F(1, 6 * s + 1) for s in range(1, 201)),
    "pole_3_2_120": lambda: build_series("pole:3/2", 120, 19).coeffs,
    "random_zeros_c0_60": lambda: _random_with_zeros(1, 60, F(-7, 3)),
    "random_zeros_no_c0_60": lambda: _random_with_zeros(2, 60, F(0)),
    "length_1": lambda: (F(3, 7),),
    "length_2": lambda: (F(-5, 6), F(7, 4)),
}


@functools.cache
def oracle_case(case, alternating):
    vec = ORACLE_INPUTS[case]()
    return vec, reference_binomial_transform(vec, alternating)


def _full_growth(length, magnitude, alternating):
    """c_s = M/s, so that every d_s = s * c_s is M and each pass of the
    triangle doubles every entry (for the alternating maps c_s =
    (-1)**s * M/s, which the kernel's sign flips turn into the same row)."""
    sign = -1 if alternating else 1
    return (F(magnitude),) + tuple(F(sign ** s * magnitude, s) for s in range(1, length))


def _huge(seed, length, exponents):
    """+-10**e/s with random signs, e drawn from `exponents`."""
    rng = random.Random(seed)
    return (F(0),) + tuple(
        F(rng.choice((-1, 1)) * 10 ** rng.choice(exponents), s) for s in range(1, length)
    )


def _zeros_at_block_boundaries(length):
    rng = random.Random(5)
    zero = {i * _BLOCK + j for i in range(1, 4) for j in (-1, 0, 1)}
    return tuple(F(0) if s in zero else F(rng.randint(-999, 999), rng.randint(1, 9))
                 for s in range(length))


# Edge cases of the packed passes, keyed by a name and built for the plain or
# the alternating maps: rows that grow by the full 2**n across one block, a
# block boundary and two, huge entries of mixed sign and size, and zeros.
EDGE_INPUTS = {
    **{f"full_growth_{length}_{label}": functools.partial(_full_growth, length, magnitude)
       for length in (1, 2, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1, 300)
       for label, magnitude in (("1", 1), ("2**64-1", 2**64 - 1))},
    "huge_random_signs_200": lambda alternating: _huge(3, 200, (300,)),
    "huge_mixed_magnitudes_200": lambda alternating: _huge(4, 200, range(301)),
    "all_zero_2J+1": lambda alternating: (F(0),) * (2 * _BLOCK + 1),
    "zeros_at_block_boundaries": lambda alternating: _zeros_at_block_boundaries(3 * _BLOCK + 5),
    "one_entry_at_block_end":
        lambda alternating: (F(1),) + (F(0),) * (_BLOCK - 1) + (F(-7, 3),) + (F(0),) * (_BLOCK + 3),
}


@functools.cache
def edge_case(case, alternating):
    vec = EDGE_INPUTS[case](alternating)
    return vec, reference_binomial_transform(vec, alternating)


class TestKernelOracle:
    """The four maps against the term-by-term Fraction sum, bit for bit."""

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    @pytest.mark.parametrize("case", list(EDGE_INPUTS))
    def test_packed_kernel_edges(self, case, name):
        vec, want = edge_case(case, name in ALTERNATING_MAPS)
        got = FOUR_MAPS[name](vec)
        assert all(type(g) is Fraction for g in got)
        assert list(got) == want

    @pytest.mark.parametrize("alternating", [False, True])
    def test_full_growth_rows_double_every_pass(self, alternating):
        # the heads of the constant row M are (2**n - 1) * M: out_n = that / n,
        # up to the sign (-1)**n of the alternating maps
        m = 2**64 - 1
        _, want = edge_case("full_growth_300_2**64-1", alternating)
        sign = -1 if alternating else 1
        assert want[1:] == [sign ** n * F((2**n - 1) * m, n) for n in range(1, 300)]

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    @pytest.mark.parametrize("case", list(ORACLE_INPUTS))
    def test_matches_term_by_term_sum(self, case, name):
        vec, want = oracle_case(case, name in ALTERNATING_MAPS)
        got = FOUR_MAPS[name](vec)
        assert all(type(g) is Fraction for g in got)
        assert list(got) == want

    def test_arctan_oracle_is_the_companion_closed_form(self):
        _, want = oracle_case("arctan_401", False)
        assert want == [arctan_assoc_coeff(n) for n in range(401)]

    def test_companion_closed_form_inverts_to_arctan(self):
        w = tuple(arctan_assoc_coeff(n) for n in range(401))
        got = associated_inverse(AssociatedSeries(coeffs=w))
        assert list(got) == reference_binomial_transform(w, alternating=True)
        assert got == build_series("arctan", 401).coeffs


class TestKernelContract:
    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_decimal_result_is_exact_transform_rounded_once(self, name):
        apply = FOUR_MAPS[name]
        prefix = to_decimals(build_series("arctan", 60).coeffs, 19)
        exact = apply(tuple(F(d) for d in prefix))
        expected = to_decimals(exact, 19)
        with localcontext() as ctx:
            ctx.prec = 19
            got = apply(prefix)
        assert all(type(g) is Decimal for g in got)
        assert got == expected

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_index_divisible_decimals_rounded_once(self, name):
        # c_s = N_s / (the 2- and 5-part of s): exact decimals of at most 19
        # digits whose denominators divide their index, so every s * c_s is
        # an integer
        rng = random.Random(11)
        prefix = tuple(
            D(rng.randint(-10**12, 10**12))
            / (2 ** _valuation(s, 2) * 5 ** _valuation(s, 5))
            for s in range(60)
        )
        assert all(len(d.as_tuple().digits) <= 19 for d in prefix)
        exact = reference_binomial_transform(prefix, name in ALTERNATING_MAPS)
        expected = to_decimals(exact, 19)
        with localcontext() as ctx:
            ctx.prec = 19
            got = FOUR_MAPS[name](prefix)
        assert all(type(g) is Decimal for g in got)
        assert got == expected
        assert [g.as_tuple() for g in got] == [e.as_tuple() for e in expected]

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_vanishing_decimal_sums_stay_decimal(self, name):
        got = FOUR_MAPS[name]((D(1), D(0), D(0)))
        assert got == (D(1), D(0), D(0))
        assert all(type(g) is Decimal for g in got)

    @pytest.mark.parametrize("name", sorted(FOUR_MAPS))
    def test_float_rejected(self, name):
        with pytest.raises(TypeError):
            FOUR_MAPS[name]((1.0, 0.5, 0.25))


ROUNDINGS = (ROUND_05UP, ROUND_CEILING, ROUND_DOWN, ROUND_FLOOR, ROUND_HALF_DOWN,
             ROUND_HALF_EVEN, ROUND_HALF_UP, ROUND_UP)


def _outcome(divide, context):
    """str() of what `divide` returns in a copy of `context`, or the type of
    the exception it raises, and the signals it leaves flagged."""
    with localcontext(context.copy()) as ctx:
        try:
            result = str(divide())
        except ArithmeticError as e:
            result = type(e)
        return result, {signal for signal, raised in ctx.flags.items() if raised}


def assert_same_as_division(num, den, context, dnum=None, dden=None):
    """exact_quotient(num, den, True) is Decimal(num) / den in `context`: the
    same str(), exceptions and flags.  `dnum` and `dden`, when given, are
    Decimal(num) and Decimal(den), converted once for many contexts."""
    dnum = Decimal(num) if dnum is None else dnum
    dden = den if dden is None else dden
    got = _outcome(lambda: exact_quotient(num, den, True), context)
    assert got == _outcome(lambda: dnum / dden, context), (num, den, context)


@pytest.fixture
def integer_route(monkeypatch):
    """The exponents e of the powers 10**e that exact_quotient takes: one
    for each division that goes the integer route."""
    taken, power = [], transform._power_of_ten
    monkeypatch.setattr(transform, "_power_of_ten", lambda e: taken.append(e) or power(e))
    return taken


class TestExactQuotient:
    """exact_quotient divides large operands as integers with a sticky digit;
    every Decimal it returns must be that of Decimal(num) / den."""

    def test_random_operands(self, integer_route):
        rng = random.Random(2026)
        cases = 4000
        for _ in range(cases):
            den = rng.getrandbits(rng.randint(1, 4000))
            kind = rng.random()
            if kind < 0.1:
                num = 0
            elif kind < 0.3:  # a terminating quotient, exact at some precisions
                num = rng.randint(-10**40, 10**40) * den
                den *= 2 ** rng.randint(0, 60) * 5 ** rng.randint(0, 60)
            else:
                num = rng.choice((1, -1)) * rng.getrandbits(rng.randint(1, 4000))
            if rng.random() < 0.02:
                den = -den
            context = Context(prec=rng.randint(1, 120), rounding=rng.choice(ROUNDINGS), traps=[])
            assert_same_as_division(num, den, context)
        assert len(integer_route) > cases // 3

    def test_exact_quotients_of_long_operands(self, integer_route):
        """Quotients with and without a remainder, of operands long enough
        for the integer route: an exact one drops the trailing zeros a
        division drops, down to its ideal exponent 0, and rounds past prec
        digits with the same flags."""
        rng = random.Random(26)
        cases = 20000
        for i in range(cases):
            prec = (2, 5, 19, 30)[i % 4]
            base = rng.getrandbits(rng.randint(600, 700)) | 1
            quotient = rng.randint(1, 10 ** rng.randint(1, 2 * prec)) * 10 ** rng.randint(0, 8)
            den = base * 2 ** rng.randint(0, 40) * 5 ** rng.randint(0, 40)
            num = rng.choice((1, -1)) * (quotient * base + (i % 3 == 0) * rng.randint(1, base))
            context = Context(prec=prec, rounding=rng.choice(ROUNDINGS), traps=[])
            assert_same_as_division(num, den, context)
        assert len(integer_route) == cases

    @pytest.mark.parametrize("rounding", ROUNDINGS)
    @pytest.mark.parametrize("prec", [1, 2, 19, 60, 120])
    def test_halfway_and_next_to_it(self, integer_route, prec, rounding):
        # M.5 with M of prec digits, over a 3170-bit denominator: exactly
        # half way between two results, or one part in 10**1000 off it
        rng = random.Random(prec)
        big = 3 ** 2000
        context = Context(prec=prec, rounding=rounding, traps=[])
        for _ in range(5):
            half = 10 * rng.randrange(10 ** (prec - 1), 10 ** prec) + 5
            for sign in (1, -1):
                for off in (0, 1, -1):
                    assert_same_as_division(sign * (half * big + off), 10 * big, context)
        assert integer_route

    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize("decades", [3000, 100000])
    def test_exponents_near_the_ends_of_the_range(self, integer_route, sign, decades):
        # quotients near 10**decades and 10**-decades, in contexts whose Emax
        # or Emin lies beyond, at or inside them, or far inside (Emax 100).
        # At 10**100000 a division that does not take the integer route
        # converts a 332,000-bit operand, so only one edge on either side of
        # the route's margin.
        big = 3 ** (decades * 2096 // 1000)
        edges, clamps = (range(-6, 7), (0, 1)) if decades < 10000 else ((0, 5), (0,))
        for num, den in ((sign * big, 7), (sign * 7, big)):
            dnum, dden = Decimal(num), Decimal(den)
            adjusted = abs((dnum / dden).adjusted())
            for prec in (1, 19, 60):
                assert_same_as_division(num, den, Context(prec=prec, traps=[]), dnum, dden)
            for bound in (100, *(adjusted + edge for edge in edges)):
                for clamp in clamps:
                    context = Context(prec=19, Emax=bound, Emin=-bound, clamp=clamp, traps=[])
                    assert_same_as_division(num, den, context, dnum, dden)
        assert integer_route

    def test_long_operands_at_the_ends_of_small_exponent_ranges(self, integer_route):
        """Long-operand quotients near, at and past Emax and Emin, in every
        pairing of three Emax and three Emin values, with and without clamp,
        in every rounding mode, with no trap and with every signal trapped:
        each takes the integer route and rounds once, as a division does."""
        rng = random.Random(27)
        every_signal = [Clamped, DivisionByZero, Inexact, InvalidOperation, Overflow,
                        Rounded, Subnormal, Underflow]
        cases = 6000
        for i in range(cases):
            prec = (2, 5, 19, 30)[i % 4]
            emax, emin = rng.choice((50, 200, 999)), -rng.choice((50, 200, 999))
            # the quotient's adjusted exponent: past, at or near Emax, or down
            # through the subnormal range to below Etiny
            t = rng.choice((rng.randint(emax - 3, emax + 3),
                            rng.randint(emin - prec - 3, emin + 3)))
            digits = rng.randint(1, prec + 3)
            quotient = rng.randint(10 ** (digits - 1), 10 ** digits - 1)
            den = (rng.getrandbits(rng.randint(600, 700)) | 1) * 2 ** rng.randint(0, 8)
            num = quotient * den + (i % 3 == 0) * rng.randint(1, den - 1)
            shift = t - digits + 1
            num, den = (num * 10 ** shift, den) if shift >= 0 else (num, den * 10 ** -shift)
            context = Context(prec=prec, Emax=emax, Emin=emin, clamp=rng.randint(0, 1),
                              rounding=rng.choice(ROUNDINGS),
                              traps=every_signal if i % 2 else [])
            assert_same_as_division(rng.choice((1, -1)) * num, den, context)
        assert len(integer_route) == cases

    @pytest.mark.parametrize("prec", [1, 19, 60])
    def test_zero_numerator_and_denominator(self, prec):
        for traps in ([], None):
            context = Context(prec=prec, traps=traps)
            for num, den in ((0, 3 ** 2000), (0, -(3 ** 2000)), (3 ** 2000, 0), (0, 0),
                             (-(3 ** 2000), -(7 ** 1000))):
                assert_same_as_division(num, den, context)

    @pytest.mark.parametrize("prec", [1, 19, 60, 400])
    def test_trapped_inexact(self, prec):
        # the context of _exact_decimal: an inexact quotient raises Inexact
        big = 3 ** 2000
        context = Context(prec=prec, traps=[Inexact])
        for num, den in ((big, 7 * 3 ** 1990), (big * 2 ** 1500 + 1, 2 ** 1500),
                         (big * 10 ** 30, 5 ** 1400), (-big, 3 ** 1999 * 2 ** 40),
                         (big * 2 ** 40, 2 ** 40)):
            assert_same_as_division(num, den, context)


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

    def test_float_rejected(self):
        assoc = AssociatedSeries(coeffs=(0.5, 0.25, 0.125, 0.0625))
        with pytest.raises(TypeError, match="not float"):
            estimate_radius(assoc, lag=1)

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

    @staticmethod
    def fraction_route(coeffs, lag):
        """The estimates through an exact Fraction quotient and float()."""
        values = []
        for a, b in zip(coeffs, coeffs[lag:]):
            if a == 0 or b == 0:
                continue
            try:
                values.append(float(abs(F(a)) / abs(F(b))) ** (1.0 / lag))
            except OverflowError:
                values.append(float("inf"))
        return values

    @pytest.mark.parametrize("digits", [None, 19])
    def test_arctan_1001_matches_fraction_route(self, digits):
        taylor = build_series("arctan", 1001)
        if digits is None:
            assoc = associated(taylor)
        else:
            with localcontext() as ctx:
                ctx.prec = digits
                assoc = associated(TaylorSeries(to_decimals(taylor.coeffs, digits)))
        est = estimate_radius(assoc, lag=4)
        assert len(est.values) == (747 if digits is None else 996)
        assert list(est.values) == self.fraction_route(assoc.coeffs, 4)

    def test_overflowing_and_underflowing_ratios(self):
        coeffs = (F(10**400), F(1, 3), F(-1, 10**400), F(7), D("1e-400"), D(2))
        est = estimate_radius(AssociatedSeries(coeffs), lag=1)
        assert list(est.values) == self.fraction_route(coeffs, 1)
        assert est.values[:4] == (float("inf"), float("inf"), 0.0, float("inf"))


class TestSeriesTypes:
    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            TaylorSeries(coeffs=())
        with pytest.raises(ValueError):
            AssociatedSeries(coeffs=())

    def test_series_have_a_length(self):
        assert len(TaylorSeries((1, 2, 3))) == 3
        assert len(AssociatedSeries([F(1, 2)])) == 1

    @pytest.mark.parametrize(
        "value, same, other, text",
        [
            (TaylorSeries([F(1, 3), 2]), TaylorSeries(coeffs=(F(1, 3), 2)),
             ShiftedExpansion((F(1, 3), 2)),
             "TaylorSeries(coeffs=(Fraction(1, 3), 2))"),
            (TaylorSeries((1,)), TaylorSeries(coeffs=[1]),
             TaylorSeries((1, 0)), "TaylorSeries(coeffs=(1,))"),
            (AssociatedSeries([0, F(-2, 3)]), AssociatedSeries(coeffs=(0, F(-2, 3))),
             (0, F(-2, 3)), "AssociatedSeries(coeffs=(0, Fraction(-2, 3)))"),
            # the two series share one body, but never equal each other
            (TaylorSeries((1, 2)), TaylorSeries(coeffs=[1, 2]), AssociatedSeries((1, 2)),
             "TaylorSeries(coeffs=(1, 2))"),
            (AssociatedSeries((1, 2)), AssociatedSeries(coeffs=[1, 2]), TaylorSeries((1, 2)),
             "AssociatedSeries(coeffs=(1, 2))"),
            (RadiusEstimate(4), RadiusEstimate(lag=4, values=(), limit_guess=None),
             RadiusEstimate(4, (), 1.0), "RadiusEstimate(lag=4, values=(), limit_guess=None)"),
            (RadiusEstimate(1, (1.5, 2.0), 2.0),
             RadiusEstimate(limit_guess=2.0, values=(1.5, 2.0), lag=1), RadiusEstimate(2),
             "RadiusEstimate(lag=1, values=(1.5, 2.0), limit_guess=2.0)"),
        ],
    )
    def test_value_contract(self, value, same, other, text):
        assert_value_contract(value, same, other, text)
