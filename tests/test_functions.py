from __future__ import annotations

import json
import math
import os
import random
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from asymser import (
    CoefficientParseError,
    DegeneratePoleError,
    TaylorSeries,
    associated,
    build_companion,
    build_series,
    companion_at_one,
    estimate_radius,
    format_decimal,
    load_coeffs,
    rational_taylor,
    reaches_singularity,
    save_coeffs,
    to_decimals,
)
from asymser import functions
from asymser.transform import exact_quotient
from helpers import (
    COEFF_FILE_NAMES,
    ROUND_TRIP_SERIES,
    arctan_assoc_coeff,
    arctan_bounds,
    arctan_companion_bounds,
    arctan_taylor_coeff,
    binomial_series,
    companion_majorant,
    companion_taylor,
    inv_sqrt1p_taylor_coeff,
    log1p_taylor_coeff,
    pole_companion_coeff,
    pole_taylor_coeff,
    quotient_taylor,
)

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "bench"))

import refs  # noqa: E402

F = Fraction
D = Decimal

# the order of the checks decides which message an input with two faults gets
PARSE_ERRORS = [
    ("sin", 0, ValueError, "unknown input spec 'sin'"),
    ("pole", 3, ValueError, "unknown input spec 'pole'"),
    ("pole:abc", 0, ValueError, "bad pole parameter in 'pole:abc'"),
    ("pole:1/0", 3, ValueError, "bad pole parameter in 'pole:1/0'"),
    ("pole:1e100000", 0, ValueError,
     "pole parameter in 'pole:1e100000' has a numerator or denominator past 64 bits"),
    ("pole:18446744073709551616", 3, ValueError, "pole parameter in "
     "'pole:18446744073709551616' has a numerator or denominator past 64 bits"),
    ("pole:3/2e99999", 3, ValueError, "bad pole parameter in 'pole:3/2e99999'"),
    ("arctan", 0, ValueError, "count must be >= 1"),
    ("pole:0", 0, ValueError, "count must be >= 1"),
    ("pole:2", -1, ValueError, "count must be >= 1"),
    ("file:{dir}/missing.csv", 0, ValueError, "count must be >= 1"),
    ("pole:0", 3, DegeneratePoleError, "pole parameter must be nonzero"),
    ("pole:0e99999999", 3, DegeneratePoleError, "pole parameter must be nonzero"),
    ("file:{dir}/six.csv", 9, CoefficientParseError, "file provides 6 coefficients, need 9"),
]
POLES = ["2", "3/2", "1/3", "-2", "7/5", "-5/3"]
BUILT_INS = [("arctan", 1001), ("altgeom", 50)] + [(f"pole:{a}", 300) for a in POLES]


def pole_parameter(text):
    return F(1) if text == "altgeom" else F(text[len("pole:"):])


def closed_form(text, count):
    """The Taylor prefix of a built-in input from its closed form."""
    if text == "arctan":
        return [arctan_taylor_coeff(n) for n in range(count)]
    return [pole_taylor_coeff(pole_parameter(text), n) for n in range(count)]


class TestArctanCoeffs:
    def test_head(self):
        series = build_series("arctan", 6)
        assert list(series.coeffs) == [F(0), F(1), F(0), F(-1, 3), F(0), F(1, 5)]

    def test_derivative_at_zero(self):
        assert build_series("arctan", 2).coeffs[1] == 1

    def test_index_17(self):
        assert build_series("arctan", 18).coeffs[17] == F(1, 17)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            build_series("arctan", 0)


class TestBuiltinsAgainstClosedForms:
    """The built-in inputs, described by f's P/Q and expanded by
    rational_taylor, against the closed forms of their coefficients."""

    @pytest.mark.parametrize("text, count", BUILT_INS)
    def test_build_series(self, text, count):
        for n in sorted({1, 2, 3, count}):
            got = build_series(text, n).coeffs
            assert list(got) == closed_form(text, n)
            assert all(type(c) is Fraction for c in got)

    def test_integer_pole_parameter(self):
        assert build_series("pole:-2", 40) == build_series("pole:-2/1", 40)
        assert build_series("pole:-2", 40) == build_series("pole:-4/2", 40)

    @pytest.mark.parametrize("a", ["18446744073709551615", "1/18446744073709551615", "1e19",
                                   "-1e-19", "0." + "0" * 80 + "1e80"])
    def test_pole_parameter_within_64_bits(self, a):
        assert list(build_series(f"pole:{a}", 5).coeffs) == [
            pole_taylor_coeff(F(a), n) for n in range(5)]

    @pytest.mark.parametrize("a", ["18446744073709551616", "1/18446744073709551616", "1e20",
                                   "-1e-20", "1" + "0" * 84, "1e84", "-1e-1000000",
                                   "1e99999999999999999999"])
    def test_pole_parameter_past_64_bits(self, a):
        with pytest.raises(ValueError, match="past 64 bits$"):
            build_series(f"pole:{a}", 5)

    def test_pole_exponent_with_underscores(self):
        """Fraction reads underscores from Python 3.11 on, and a long
        exponent read apart keeps to the same syntax."""
        shown = "has a numerator" if sys.version_info >= (3, 11) else "bad pole parameter"
        with pytest.raises(ValueError, match=shown):
            build_series("pole:1e1_000_000", 5)

    @pytest.mark.parametrize("text", [text for text, _ in BUILT_INS])
    def test_companion_data_is_the_hand_derived_pair(self, text):
        """u = f(x/(1 - x)) from f's data: for arctan u' = 1/((1 - x)**2 + x**2)
        with u(0) = 0 and u(1) = pi/2, for pole:A u = (1 - x)/(A + (1 - A) x)."""
        if text == "arctan":
            with localcontext() as ctx:
                ctx.prec = 50
                want_p, want_q, want_ends = (1,), (1, -2, 2), (F(0), refs.machin_pi(50) / 2)
        else:
            a = pole_parameter(text)
            want_p, want_q, want_ends = (1, -1), (a, 1 - a), None
        p, q, ends = functions._companion(*functions._parse_input(text))
        scale = F(p[0], want_p[0])
        assert scale != 0
        assert list(p) == [scale * c for c in want_p]
        assert list(q) == [scale * c for c in want_q]
        assert ends == want_ends
        if ends is not None:
            assert type(ends[0]) is Fraction and type(ends[1]) is Decimal


class TestReferenceAtOne:
    """u's Taylor coefficients at 1 against oracles computed apart: Fraction
    long division for pole:A and the benchmark's recurrence and Machin's pi
    for arctan."""

    @pytest.mark.parametrize("text", ["altgeom"] + [f"pole:{a}" for a in POLES])
    def test_pole_is_long_division(self, text):
        a = pole_parameter(text)
        got = companion_at_one(text, 60)
        assert got == quotient_taylor((1, -1), (a, 1 - a), 1, 60)
        assert got[:2] == [0, -1]  # u(1) = f(oo) = 0 and u'(1) = -1 for every A
        assert all(type(c) is Fraction for c in got)

    def test_arctan_is_the_benchmark_reference(self):
        got = companion_at_one("arctan", 1001)
        with localcontext() as ctx:
            ctx.prec = 50
            half_pi = refs.machin_pi(50) / 2
        assert type(got[0]) is Decimal and got[0] == half_pi
        assert got[1:] == refs.companion_at_one(1001, half_pi)[1:]
        assert all(type(c) is Fraction for c in got[1:])

    def test_file_has_none(self, tmp_path):
        save_coeffs(build_series("arctan", 6), tmp_path / "six.csv")
        assert companion_at_one(f"file:{tmp_path}/six.csv", 2) is None

    @pytest.mark.parametrize("text, error, message", [
        ("sin", ValueError, "unknown input spec 'sin'"),
        ("pole:0", DegeneratePoleError, "pole parameter must be nonzero"),
    ])
    def test_errors_as_build_series(self, text, error, message):
        with pytest.raises(ValueError) as info:
            companion_at_one(text, 2)
        assert type(info.value) is error
        assert str(info.value) == message


class TestArctanBounds:
    """The Fraction enclosures of arctan that give u(j/8) = arctan(j/(8 - j)),
    arctan's companion at the centers of the path, against pi/2 from
    companion_at_one and against identities that tie the series together."""

    # |u(1) - pi/2| <= 10**-49 for the 50-digit Decimal u(1)
    SLACK = F(1, 10**49)

    @staticmethod
    def half_pi():
        return F(companion_at_one("arctan", 1)[0])

    def encloses(self, bounds, value):
        lo, hi = bounds
        return lo - self.SLACK <= value <= hi + self.SLACK

    def test_one_is_a_quarter_pi(self):
        lo, hi = arctan_companion_bounds(F(4, 8))
        assert 0 < hi - lo <= F(1, 10**40)
        assert self.encloses((lo, hi), self.half_pi() / 2)

    @pytest.mark.parametrize("j", range(1, 8))
    def test_reciprocals_sum_to_half_pi(self, j):
        lo, hi = arctan_companion_bounds(F(j, 8))
        lo2, hi2 = arctan_companion_bounds(F(8 - j, 8))
        assert self.encloses((lo + lo2, hi + hi2), self.half_pi())
        assert abs(float(lo) - math.atan(j / (8 - j))) < 1e-15
        assert arctan_bounds(F(-j, 8 - j)) == (-hi, -lo)

    def test_machin(self):
        lo5, hi5 = arctan_bounds(F(1, 5))
        lo239, hi239 = arctan_bounds(F(1, 239))
        lo1, hi1 = arctan_bounds(F(1))
        assert 4 * lo5 - hi239 <= hi1 and lo1 <= 4 * hi5 - lo239


class TestCompanionTaylor:
    """The oracle of u's Taylor coefficients at a center of the path against
    the library's companion at 0 and at 1, and against the closed form
    u = (1 - x)/(A + (1 - A)x) of pole:A at every j/8."""

    TEXTS = ["arctan", "altgeom"] + [f"pole:{a}" for a in POLES]

    @pytest.mark.parametrize("text", TEXTS)
    def test_at_zero_is_the_companion(self, text):
        got = companion_taylor(text, 0, 120)
        assert got == [(w, w) for w in build_companion(text, 120).coeffs]
        assert all(type(lo) is type(hi) is Fraction for lo, hi in got)

    @pytest.mark.parametrize("text", TEXTS)
    def test_at_one_is_companion_at_one(self, text):
        got, want = companion_taylor(text, 1, 120), companion_at_one(text, 120)
        assert got[1:] == [(w, w) for w in want[1:]]
        (lo, hi), u1 = got[0], F(want[0])
        if text == "arctan":  # pi/2 within the enclosure's width, 2e-40 at most
            assert 0 < hi - lo <= F(2, 10**40)
            assert lo - (hi - lo) <= u1 <= hi + (hi - lo)
        else:
            assert lo == hi == u1 == 0

    @pytest.mark.parametrize("j", range(9))
    @pytest.mark.parametrize("text", TEXTS[1:])
    def test_pole_is_the_closed_form(self, text, j):
        """At c, with d = A + (1 - A)c and rho = (1 - A)/d, u_n is
        ((1 - c)(-rho)**n - (-rho)**(n-1))/d, without the second term at n = 0."""
        a, c = pole_parameter(text), F(j, 8)
        d = a + (1 - a) * c
        if d == 0:  # pole:-5/3 has u's pole at 5/8
            with pytest.raises(ZeroDivisionError):
                companion_taylor(text, c, 60)
            return
        rho = (1 - a) / d
        want = [((1 - c) * (-rho) ** n - ((-rho) ** (n - 1) if n else 0)) / d for n in range(60)]
        assert companion_taylor(text, c, 60) == [(w, w) for w in want]

    @pytest.mark.parametrize("j", range(8))
    def test_arctan_value_is_its_enclosure(self, j):
        c = F(j, 8)
        (head, *rest) = companion_taylor("arctan", c, 40)
        assert head == arctan_companion_bounds(c)
        assert all(lo == hi and type(lo) is Fraction for lo, hi in rest)
        # u' = 1/(1 - 2x + 2x**2)
        assert rest[0][0] == 1 / (1 - 2 * c + 2 * c * c)

    def test_arctan_majorant(self):
        """n**2 * u_n(c)**2 * rho**n <= 1 for 1 <= n <= 100 at every j/8, and
        the bound is reached: where (p - c)**-n is imaginary, p = (1 + i)/2."""
        reached = 0
        for c in (F(j, 8) for j in range(9)):
            coeffs = companion_taylor("arctan", c, 101)
            for n in range(1, 101):
                u, bound = coeffs[n][0], companion_majorant("arctan", c, n)
                assert u * u <= bound, (c, n)
                reached += u * u == bound
        assert reached == 100

    @pytest.mark.parametrize("a", ["3/2", "2", "11", "101", "-3"])
    def test_pole_majorant_is_the_coefficient(self, a):
        """u_n(c) = -R/(z - c)**(n+1) for 1 <= n <= 100 at every j/8 but the
        pole z = 3/4 of pole:-3."""
        z = F(a) / (F(a) - 1)
        for c in (F(j, 8) for j in range(9) if F(j, 8) != z):
            coeffs = companion_taylor(f"pole:{a}", c, 101)
            for n in range(1, 101):
                u = pole_companion_coeff(a, c, n)
                assert coeffs[n] == (u, u), (c, n)
                assert u * u == companion_majorant(f"pole:{a}", c, n)

    def test_altgeom_majorant(self):
        for c in (F(j, 8) for j in range(9)):
            coeffs = companion_taylor("altgeom", c, 101)
            assert [lo for lo, _ in coeffs[1:]] == [-1] + [0] * 99
            assert [companion_majorant("altgeom", c, n) for n in range(1, 101)] == [1] + [0] * 99

    @pytest.mark.parametrize("j", range(9))
    def test_arctan_value_at_a_narrower_width(self, j):
        """A width past the default 1e-40 narrows u(j/8) inside the default
        enclosure, and at 1 still holds pi/2 from Machin's formula."""
        c, width = F(j, 8), F(1, 10**80)
        (lo, hi), *rest = companion_taylor("arctan", c, 3, width)
        (lo40, hi40), *rest40 = companion_taylor("arctan", c, 3)
        assert 0 <= hi - lo <= width
        assert lo40 <= lo <= hi <= hi40
        assert rest == rest40
        if j == 8:  # machin_pi(90) is within 10**-89 of pi
            half_pi = F(refs.machin_pi(90)) / 2
            assert lo - F(1, 10**89) <= half_pi <= hi + F(1, 10**89)

    @pytest.mark.parametrize("text, center, error", [
        ("arctan", F(-1, 8), ValueError), ("pole:2", F(9, 8), ValueError),
        ("file:coeffs.csv", 0, ValueError)])
    def test_refused(self, text, center, error):
        with pytest.raises(error):
            companion_taylor(text, center, 3)


class TestReachesSingularity:
    """The step-start test against the distance from each center k*h to the
    zeros of Q_u, computed from their closed forms: z = A/(A - 1) for
    pole:A, and (1 +- i)/2 for arctan."""

    STEPS = [F(1, 2), F(1, 3), F(1, 4), F(1, 5), F(1, 8), F(1, 10)]

    @staticmethod
    def within(h, squared_distance):
        return any(squared_distance(k * h) <= h * h for k in range(int(1 / h)))

    @pytest.mark.parametrize("a", POLES + ["-3", "-1", "-1/2", "1/2", "-7"])
    def test_pole(self, a):
        a = F(a)
        for h in self.STEPS:
            want = self.within(h, lambda c: (c - a / (a - 1)) ** 2)
            assert reaches_singularity(f"pole:{a}", h, int(1 / h)) == want, h

    def test_arctan(self):
        for h in self.STEPS:
            want = self.within(h, lambda c: (c - F(1, 2)) ** 2 + F(1, 4))
            assert reaches_singularity("arctan", h, int(1 / h)) == want, h
        assert [reaches_singularity("arctan", D(h), int(1 / F(h)))
                for h in ("0.5", "0.25", "0.125")] == [True, False, False]

    @pytest.mark.parametrize("text", ["arctan", "altgeom", "pole:3/2", "pole:-3", "pole:-5/3",
                                      "pole:2"])
    def test_nearest_centers_decide(self, text):
        """Testing the centers next to Re z gives the all-centers loop's
        answer, for every step 2**-j up to 1/64 and every count of steps."""
        _, q, _ = functions._companion(*functions._parse_input(text))
        for j in range(7):
            h = F(1, 2**j)
            for steps in range(1, 2**j + 2):
                want = any(abs(sum(a * (k * h) ** i for i, a in enumerate(q)))
                           <= abs(q[-1]) * h ** (len(q) - 1) for k in range(steps))
                assert reaches_singularity(text, h, steps) == want, (h, steps)

    def test_nearest_centers_of_any_zero(self, monkeypatch):
        """The same for random Q_u, a real zero or a conjugate pair, with Re z
        anywhere between two centers: the next center up may be the nearer."""
        rng = random.Random(26)
        for _ in range(300):
            re, im = F(rng.randint(-40, 80), 64), F(rng.randint(0, 20), 64)
            scale = F(rng.choice([-3, -1, 1, 2]), rng.randint(1, 5))
            q = ((-re * scale, scale) if rng.random() < 0.3
                 else (scale * (re * re + im * im), -2 * re * scale, scale))
            monkeypatch.setattr(functions, "_companion", lambda *_: ((1,), q, None))
            h = F(1, rng.randint(1, 20))
            steps = rng.randint(1, 25)
            want = any(abs(sum(a * (k * h) ** i for i, a in enumerate(q)))
                       <= abs(q[-1]) * h ** (len(q) - 1) for k in range(steps))
            assert reaches_singularity("pole:2", h, steps) == want, (q, h, steps)

    def test_step_count_costs_nothing(self):
        assert not reaches_singularity("arctan", F(1, 10**30), 10**30)
        assert reaches_singularity("pole:-3", F(1, 10**30), 10**30)  # z = 3/4

    def test_float_step_rejected(self):
        # the binary 0.1 is not the step 1/10
        with pytest.raises(TypeError, match="not float"):
            reaches_singularity("arctan", 0.1, 10)
        assert reaches_singularity("arctan", "0.5", 2)
        assert not reaches_singularity("arctan", "0.1", 10)

    def test_no_singularity(self, tmp_path):
        save_coeffs(build_series("arctan", 6), tmp_path / "six.csv")
        for h in self.STEPS:
            assert not reaches_singularity("altgeom", h, int(1 / h))  # u = 1 - x
            assert not reaches_singularity(f"file:{tmp_path}/six.csv", h, int(1 / h))


class TestArctanAssocClosedForm:
    def test_values(self):
        assert arctan_assoc_coeff(6) == F(-4, 3)
        assert arctan_assoc_coeff(25) == F(2**12, 25)
        assert arctan_assoc_coeff(20) == 0
        assert arctan_assoc_coeff(0) == 0

    def test_cross_validates_transform_over_full_range(self, arctan_assoc_32):
        for n in range(1, 32):
            assert arctan_assoc_32.coeffs[n] == arctan_assoc_coeff(n), n

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            arctan_assoc_coeff(-1)


class TestSingularAtOne:
    """Exact file: prefixes whose companions are singular at 1, where the
    paper's condition fails: log(1 + x) gives u = -log(1 - x), and
    (1 + x)**(-1/2) gives u = sqrt(1 - x)."""

    @pytest.mark.parametrize("taylor, companion", [
        (log1p_taylor_coeff, lambda m: [F(1, n) if n else F(0) for n in range(m)]),
        (inv_sqrt1p_taylor_coeff,
         lambda m: [(-1) ** n * c for n, c in enumerate(binomial_series(F(1, 2), m))]),
    ])
    def test_companion_is_exact(self, tmp_path, taylor, companion):
        m = 701
        save_coeffs(TaylorSeries(tuple(map(taylor, range(m)))), tmp_path / "f.csv")
        assert build_companion(f"file:{tmp_path}/f.csv", m).coeffs == tuple(companion(m))

    def test_closed_forms(self):
        assert [log1p_taylor_coeff(n) for n in range(4)] == [0, 1, F(-1, 2), F(1, 3)]
        assert [inv_sqrt1p_taylor_coeff(n) for n in range(4)] == [1, F(-1, 2), F(3, 8), F(-5, 16)]
        assert binomial_series(F(1, 2), 4) == [1, F(1, 2), F(-1, 8), F(1, 16)]
        assert binomial_series(F(-1, 2), 40) == [inv_sqrt1p_taylor_coeff(n) for n in range(40)]
        assert binomial_series(F(1, 2), 0) == []


class TestPoleCoeffs:
    def test_unit_pole_is_alternating(self):
        assert list(build_series("pole:1", 4).coeffs) == [F(1), F(-1), F(1), F(-1)]

    def test_pole_two(self):
        assert list(build_series("pole:2", 3).coeffs) == [F(1, 2), F(-1, 4), F(1, 8)]

    def test_rational_pole(self):
        series = build_series("pole:3/2", 2)
        assert series.coeffs[0] == F(2, 3)
        assert series.coeffs[1] == F(-4, 9)

    def test_degenerate(self):
        with pytest.raises(DegeneratePoleError):
            build_series("pole:0", 3)
        with pytest.raises(DegeneratePoleError):
            build_series("pole:0/5", 3)

    def test_altgeom_alias(self):
        assert build_series("altgeom", 5) == build_series("pole:1", 5)

    def test_companion_radius_is_pole_location(self):
        # companion of 1/(2+x) is (1-x)/(2-x): simple pole at x = 2
        assoc = associated(build_series("pole:2", 60))
        est = estimate_radius(assoc, lag=1)
        assert est.limit_guess == pytest.approx(2.0, abs=1e-12)


class TestFileRoundTrip:
    def test_csv_exact_round_trip(self, tmp_path):
        series = build_series("arctan", 12)
        path = tmp_path / "coeffs.csv"
        save_coeffs(series, path)
        back = load_coeffs(path)
        assert back.coeffs == series.coeffs

    def test_csv_integers_of_any_length(self, tmp_path):
        """pole:1/1000 has c_n = (-1)**n * 1000**(n+1): 4501 digits at n = 1499,
        past the interpreter's default limit of 4300 on int/str conversion."""
        series = build_series("pole:1/1000", 1500)
        path = tmp_path / "big.csv"
        save_coeffs(series, path)
        assert path.read_text().splitlines()[-1] == "1499,-1" + "0" * 4500 + ",1"
        assert load_coeffs(path).coeffs == series.coeffs

    @pytest.mark.parametrize("text", ["1" * 5000 + "x", "1e" + "0" * 5000, "1." + "0" * 5000,
                                      "--" + "1" * 5000])
    def test_long_non_integers_are_bad_rows(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(f"n,numerator,denominator\n0,1,1\n1,{text},1\n")
        with pytest.raises(CoefficientParseError, match="bad row 1"):
            load_coeffs(path)

    LONG = "1" * 4999 + "x"
    SHOWN = f"{LONG[:40]!r}... (5000 characters)"

    @pytest.mark.parametrize("name, text, message", [
        ("bad.csv", f"n,numerator,denominator\n0,1,1\n1,{LONG},1\n",
         f"bad row 1: {{'n': '1', 'numerator': {SHOWN}, 'denominator': '1'}}"),
        ("bad.csv", f"n,numerator,denominator\n0,1,1\n1,x,1,{LONG},2\n",
         f"bad row 1: {{'n': '1', 'numerator': 'x', 'denominator': '1', None: [{SHOWN}, '2']}}"),
        ("bad.json", f'["1", "{LONG}"]', f"entry 1 is not a decimal: {SHOWN}"),
        ("bad.json", f'["1", "NaN{LONG[:-1]}"]',  # a NaN with a 4999-digit payload
         f"entry 1 is not finite: {'NaN' + LONG[:37]!r}... (5002 characters)"),
    ])
    def test_long_values_are_shown_short(self, tmp_path, name, text, message):
        """A long value is shown by its start and its length: the message
        names the row or entry and stays under 200 characters."""
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(CoefficientParseError) as info:
            load_coeffs(path)
        assert str(info.value) == message
        assert len(message) < 200

    def test_csv_matches_builtin(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text(
            "n,numerator,denominator\n0,0,1\n1,1,1\n2,0,1\n3,-1,3\n"
        )
        assert load_coeffs(path).coeffs == build_series("arctan", 4).coeffs

    def test_json_decimal_round_trip(self, tmp_path):
        path = tmp_path / "coeffs.json"
        path.write_text('["0", "1", "0", "-0.3333333333333333333"]\n')
        series = load_coeffs(path, digits=19)
        assert series.coeffs[3] == D("-0.3333333333333333333")
        out = tmp_path / "out.json"
        save_coeffs(series, out)
        assert load_coeffs(out, digits=19).coeffs == series.coeffs

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_coeffs(tmp_path / "nope.csv")

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(CoefficientParseError):
            load_coeffs(path)

    def test_non_monotone_index(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("n,numerator,denominator\n0,1,1\n2,1,1\n")
        with pytest.raises(CoefficientParseError):
            load_coeffs(path)

    def test_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(CoefficientParseError):
            load_coeffs(path)

    def test_json_non_string_entry(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[0.5, 1.5]")
        with pytest.raises(CoefficientParseError):
            load_coeffs(path)

    @pytest.mark.parametrize(
        "name, text, message",
        [
            ("bad.csv", "n,numerator,denominator\n0,x,1\n",
             "bad row 0: {'n': '0', 'numerator': 'x', 'denominator': '1'}"),
            ("bad.csv", "n,numerator,denominator\n0,1,1\n1,1,-2\n",
             "row 1: denominator must be positive"),
            ("bad.csv", "n,numerator,denominator\n", "no coefficient rows"),
            ("bad.json", '{"0": "1"}', "JSON must be a non-empty array of decimal strings"),
            ("bad.json", '["1", "one"]', "entry 1 is not a decimal: 'one'"),
            ("bad.json", '["1", "1e1000000"]',
             "entry 1 overflows the decimal range: '1e1000000'"),
            ("bad.json", '["1", "1e99999999999999999999"]',
             "entry 1 is outside the decimal range: '1e99999999999999999999'"),
            ("bad.json", '["1", "1e-99999999999999999999"]',
             "entry 1 is outside the decimal range: '1e-99999999999999999999'"),
            ("bad.json", '["1", "sNaN"]', "entry 1 is not finite: 'sNaN'"),
        ],
    )
    def test_rejected_files(self, tmp_path, name, text, message):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(CoefficientParseError) as info:
            load_coeffs(path)
        assert str(info.value) == message

    @pytest.mark.parametrize("name", COEFF_FILE_NAMES)
    @pytest.mark.parametrize("key", list(ROUND_TRIP_SERIES))
    def test_every_written_file_reads_back(self, tmp_path, key, name):
        series, path = ROUND_TRIP_SERIES[key], tmp_path / name
        if key == "exact-thirds" and name.endswith(".json"):
            with pytest.raises(ValueError) as info:
                save_coeffs(series, path)
            assert str(info.value) == (
                "coefficient 3: -1/3 has no terminating decimal representation")
            assert not path.exists()
            return
        save_coeffs(series, path)
        assert path.read_text().startswith("[") == name.endswith(".json")
        assert load_coeffs(path, digits=19).coeffs == series.coeffs

    def test_json_entries_are_exact_decimals(self, tmp_path):
        save_coeffs(ROUND_TRIP_SERIES["exact-terminating"], tmp_path / "c.json")
        assert json.loads((tmp_path / "c.json").read_text()) == [
            "0.5", "-0.375", "0", "5", "0.0009765625"]

    @pytest.mark.parametrize("target", [None, "-"])
    def test_standard_output_follows_the_data(self, tmp_path, capsys, target):
        for key, name in (("decimal-19", "c.json"), ("exact-thirds", "c.csv")):
            save_coeffs(ROUND_TRIP_SERIES[key], target)
            save_coeffs(ROUND_TRIP_SERIES[key], tmp_path / name)
            assert capsys.readouterr().out == (tmp_path / name).read_text()

    @pytest.mark.parametrize("name", ["c.json", "c.csv"])
    @pytest.mark.parametrize("value", ["NaN", "-Infinity"])
    def test_non_finite_decimals_refused(self, tmp_path, name, value):
        with pytest.raises(ValueError) as info:
            save_coeffs(TaylorSeries((D(1), D(value))), tmp_path / name)
        assert str(info.value) == "coefficients must be finite"
        assert not (tmp_path / name).exists()

    @pytest.mark.parametrize("name", ["c.json", "c.csv"])
    def test_float_coefficient_refused(self, tmp_path, name):
        # the binary 0.1 is 3602879701896397/36028797018963968, not 1/10
        with pytest.raises(TypeError) as info:
            save_coeffs(TaylorSeries([F(1), 0.1]), tmp_path / name)
        assert str(info.value) == (
            "coefficient 1: must be exact (int, str, Fraction, Decimal), not float")
        assert not (tmp_path / name).exists()


class TestFormatDecimal:
    def test_rounds_half_even_at_ten_digits(self):
        assert format_decimal(F(2, 3)) == "0.6666666667"
        assert format_decimal(F(16, 9)) == "1.777777778"
        assert format_decimal(F(-8, 7)) == "-1.142857143"

    def test_exact_values_print_short(self):
        assert format_decimal(F(2**12, 25)) == "163.84"
        assert format_decimal(F(0)) == "0"
        assert format_decimal(F(-4, 5)) == "-0.8"

    def test_decimal_input(self):
        assert format_decimal(D("1.23456789012345"), 5) == "1.2346"


# (numerator, denominator) pairs: half-even ties at 1, 19 and 60 digits,
# negatives, exact quotients with trailing zeros, and 3000-bit integers
QUOTIENTS = {
    "tie-down": (25, 10), "tie-up": (35, 10), "tie-negative": (-25, 10), "eighth": (1, 8),
    "two-thirds": (2, 3), "negative-sevenths": (-8, 7),
    "tie-20-digits": (10**19 + 5, 10), "tie-20-digits-negative": (-(10**19 + 15), 10),
    "tie-61-digits": (10**60 + 5, 10), "tie-61-digits-negative": (-(10**60 + 15), 10),
    "thousand": (1000, 1), "exact-75": (300, 4), "exact-negative-1500": (-12000, 8),
    "exact-10e40-over-2e10": (10**40, 2**10), "zero": (0, 7),
    "3000-bit": (3**1893, 7**1069), "3000-bit-negative": (-(2**3000 + 1), 3),
    "3000-bit-terminating": (2**3000, 5**1292), "3000-bit-small": (7**1069, 3**1893),
}


class TestDecimalBoundary:
    @pytest.mark.parametrize("digits", [1, 19, 60])
    @pytest.mark.parametrize("num, den", list(QUOTIENTS.values()), ids=list(QUOTIENTS))
    def test_every_route_is_one_division(self, num, den, digits):
        with localcontext() as ctx:
            ctx.prec = digits
            want = Decimal(num) / Decimal(den)
            got = exact_quotient(num, den, True)
        assert got.as_tuple() == want.as_tuple()
        assert to_decimals((F(num, den),), digits)[0].as_tuple() == want.as_tuple()
        assert D(format_decimal(F(num, den), digits)) == want


class TestBuildSeries:
    @pytest.mark.parametrize("count", [1, 5, 40])
    def test_parse_forms(self, count):
        assert build_series("pole:3/2", count) == build_series("pole:1.5", count)
        assert build_series("pole:3/2", count) == build_series("pole:6/4", count)

    def test_build_from_file_with_count_check(self, tmp_path):
        path = tmp_path / "c.csv"
        save_coeffs(build_series("arctan", 6), path)
        assert build_series(f"file:{path}", 4) == build_series("arctan", 4)
        assert build_series(f"file:{path}", 6) == build_series("arctan", 6)

    def test_json_file_read_at_digits(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text('["0.123456789", "1"]\n')
        assert build_series(f"file:{path}", 1, digits=4).coeffs == (D("0.1235"),)
        assert build_series(f"file:{path}", 2).coeffs == (D("0.123456789"), D(1))

    @pytest.mark.parametrize("text, count, error, message", PARSE_ERRORS)
    def test_parse_errors(self, tmp_path, text, count, error, message):
        save_coeffs(build_series("arctan", 6), tmp_path / "six.csv")
        with pytest.raises(ValueError) as info:
            build_series(text.format(dir=tmp_path), count)
        assert type(info.value) is error
        assert str(info.value) == message


class TestRationalTaylor:
    """The recurrence kernel against the binomial transform at 0, the
    benchmark's reference at 1 and long division at other centers."""

    @pytest.mark.parametrize("text, count", [("arctan", 1001), ("altgeom", 50)]
                             + [(f"pole:{a}", 300) for a in POLES])
    def test_companion_at_zero_is_the_transform(self, text, count):
        got = build_companion(text, count).coeffs
        want = associated(build_series(text, count)).coeffs
        assert got == want
        assert all(type(w) is Fraction for w in got)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5])
    def test_short_companions(self, count):
        assert build_companion("arctan", count) == associated(build_series("arctan", count))
        assert build_companion("pole:3", count) == associated(build_series("pole:3", count))

    def test_arctan_at_one_is_the_benchmark_reference(self):
        # u' = 1/(1 - 2x + 2x**2): the coefficients k >= 1 of u at 1
        want = refs.companion_at_one(1001, refs.machin_pi(20) / 2)[1:]
        got = rational_taylor((1,), (1, -2, 2), 1, 1000, integrate=True)
        assert got == want
        assert all(type(w) is Fraction for w in got)

    @pytest.mark.parametrize("center", [F(1, 2), 1, D("0.5"), "0.25"])
    @pytest.mark.parametrize("a", POLES)
    def test_pole_companion_off_zero_is_long_division(self, a, center):
        p, q = (1, -1), (F(a), 1 - F(a))
        assert rational_taylor(p, q, center, 120) == quotient_taylor(p, q, center, 120)

    def test_integrate_divides_by_the_index(self):
        p, q = (1,), (1, -2, 2)
        r = quotient_taylor(p, q, F(1, 2), 60)
        assert rational_taylor(p, q, F(1, 2), 60, integrate=True) == [
            r[k - 1] / k for k in range(1, 61)]

    @pytest.mark.parametrize("a", ["3/2", "-5/3", "2", "1", "-3", "7/11"])
    def test_linear_q_is_the_closed_form(self, a):
        """A linear Q runs the same recurrence as every other input; the
        values and types are the closed form's."""
        got = build_series(f"pole:{a}", 4002).coeffs
        want = [pole_taylor_coeff(F(a), n) for n in range(4002)]
        assert list(got) == want
        assert all(type(g) is Fraction for g in got)
        assert build_companion(f"pole:{a}", 301) == associated(build_series(f"pole:{a}", 301))

    @pytest.mark.parametrize("p, q", [((1,), (F(3, 2), 1)), ((2, -1, 5), (-3, 7)),
                                      ((1, 4), (5, 0)), ((), (1, 1)), ((0,), (2, -3))])
    @pytest.mark.parametrize("center", [0, F(1, 3)])
    def test_linear_q_past_p_is_long_division(self, p, q, center):
        r = quotient_taylor(p, q, center, 40)
        assert rational_taylor(p, q, center, 40) == r
        assert rational_taylor(p, q, center, 40, integrate=True) == [
            r[k - 1] / k for k in range(1, 41)]
        for count in (1, 2, 3):
            assert rational_taylor(p, q, center, count) == r[:count]

    def test_float_center_rejected(self):
        with pytest.raises(TypeError, match="not float"):
            rational_taylor((1,), (1, 1), 0.1, 2)
        assert rational_taylor((1,), (1, 1), "0.1", 2) == [F(10, 11), F(-100, 121)]

    def test_pole_at_the_center_raises(self):
        # 1/(2 + x) has its companion's pole at x = 2
        with pytest.raises(ZeroDivisionError):
            rational_taylor((1, -1), (2, -1), 2, 5)

    def test_decimal_file_companion_is_rounded_at_digits(self, tmp_path):
        path = tmp_path / "c.json"
        save_coeffs(ROUND_TRIP_SERIES["decimal-19"], path)
        series = build_series(f"file:{path}", 8, digits=12)
        with localcontext() as ctx:
            ctx.prec = 12
            want = associated(series)
        assert build_companion(f"file:{path}", 8, digits=12) == want

    @pytest.mark.parametrize("text, count, error, message", PARSE_ERRORS)
    def test_parse_errors_as_build_series(self, tmp_path, text, count, error, message):
        save_coeffs(build_series("arctan", 6), tmp_path / "six.csv")
        with pytest.raises(ValueError) as info:
            build_companion(text.format(dir=tmp_path), count)
        assert type(info.value) is error
        assert str(info.value) == message
