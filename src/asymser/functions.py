"""Built-in inputs as rational data, the CLI input syntax that names them
(:func:`build_series`, :func:`build_companion`) and no other module does, the
companions' poles (:func:`singular_data`, :func:`reaches_singularity`) and values
at 1 (:func:`companion_at_one`), :func:`rational_taylor`, files, decimal rendering.

A built-in input f is P/Q, or has f(0), f(oo) and f' = P/Q.  So are its
companion u(x) = f(x/(1 - x)) or u', with u(0) = f(0) and u(1) = f(oo), and
its Taylor prefixes at 0 and 1 follow a short linear recurrence, at O(m)
cost against the O(m**2) of the binomial transform.  A file's name decides
its format: a ``.json`` name holds a JSON array of decimal strings, any
other name CSV rows ``n,numerator,denominator`` of exact rationals.  Decimal
strings, not binary floats, keep the significant-digit contract intact.  All
decimal rendering rounds half-even, by the rules of :mod:`asymser.transform`.
"""
from __future__ import annotations

import csv
import json
import math
import os
import re
import sys
from decimal import ConversionSyntax, Decimal, InvalidOperation, localcontext
from fractions import Fraction

from .transform import (DEFAULT_DIGITS, AssociatedSeries, TaylorSeries, _exact, _exact_decimal,
                        associated, scale_to_integers, to_decimals)


class DegeneratePoleError(ValueError):
    """The pole parameter must be nonzero."""


class CoefficientParseError(ValueError):
    """Malformed coefficient file."""


def _parse_input(text: str):
    """The one parser of the CLI input syntax.  A built-in input is f's data
    (P, Q, ends): f = P/Q when ends is None, else f' = P/Q with f(0) = ends[0]
    and f(oo) = ends[1]; P and Q are ascending tuples.  A file: gives its path."""
    if text == "arctan":  # f' = 1/(1 + x**2), f(0) = 0, f(oo) = pi/2
        half_pi = Decimal("1.5707963267948966192313216916397514420985846996876")
        return (1,), (1, 0, 1), (Fraction(0), half_pi)
    if text == "altgeom":
        text = "pole:1"
    if text.startswith("pole:"):
        return (1,), (_pole_parameter(text), 1), None
    if not text.startswith("file:"):
        raise ValueError(f"unknown input spec {text!r}")
    return text[len("file:"):]


# The bits of a pole parameter's numerator or denominator.  The companion's
# exact prefix grows by about that many bits a term: at m=1001, A = 2**32
# takes 0.8 s, 2**64 - 1 1.9 s and 10**30 4.8 s (2 cores, Python 3.11).
_POLE_BITS = 64
_EXPONENT = re.compile(r"[eE]([+-]?\d+(?:_\d+)*)\s*\Z")


def _pole_parameter(text: str) -> Fraction:
    """The A of pole:A, refused when its numerator or denominator passes
    _POLE_BITS bits.  An exponent e with |e| above the text's length plus
    _POLE_BITS makes one of them pass 10**_POLE_BITS unless A = 0, so
    10**e is not formed: the text is read with e's digits zeroed."""
    param = text[len("pole:"):]
    exp = _EXPONENT.search(param)
    try:
        big = exp is not None and abs(int(exp[1])) > len(param) + _POLE_BITS
        a = Fraction(param[:exp.start(1)] + re.sub(r"\d", "0", exp[1]) if big else param)
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad pole parameter in {_shown(text)}") from e
    if (big and a) or max(a.numerator.bit_length(), a.denominator.bit_length()) > _POLE_BITS:
        raise ValueError(f"pole parameter in {_shown(text)} has a numerator or denominator "
                         f"past {_POLE_BITS} bits")
    return a


def _rational_prefix(p, q, ends, count: int, center: int = 0) -> list:
    """The first `count` Taylor coefficients at `center`, 0 or 1, of P/Q, or, when
    ends is not None, of the function with derivative P/Q and value ends[center]."""
    if count < 1:
        raise ValueError("count must be >= 1")
    if q[0] == 0:  # a pole at 0: only pole:0 names one
        raise DegeneratePoleError("pole parameter must be nonzero")
    if ends is None:
        return rational_taylor(p, q, center, count)
    return [ends[center], *rational_taylor(p, q, center, count - 1, True)]


def _companion(p, q, ends):
    """The data of u(x) = f(x/(1 - x)) for f's: each term c_i x**i of P and
    Q becomes c_i x**i (1 - x)**(d - i), d the larger degree, with two fewer
    powers in P when f' = P/Q (the chain rule's 1/(1 - x)**2); the ends
    carry over.  That sum is x**d R(1/x - 1), R reversed at degree d."""
    drop = 0 if ends is None else 2
    d = max(len(p) + drop, len(q)) - 1
    p, q = ([0] * (e + 1 - len(c)) + list(c[::-1]) for c, e in ((p, d - drop), (q, d)))
    return _taylor_shift(p, -1)[::-1], _taylor_shift(q, -1)[::-1], ends


def companion_at_one(text: str, count: int) -> list | None:
    """The first `count` Taylor coefficients at 1 of the companion u that `text` names:
    Fractions, but arctan's u(1) = pi/2 is a 50-digit Decimal; None for a file: input.
    u is analytic at 1 for every built-in input: the paper's condition for an expansion at oo."""
    spec = _parse_input(text)
    return None if isinstance(spec, str) else _rational_prefix(*_companion(*spec), count, 1)


def singular_data(text: str) -> tuple | None:
    """The poles of the companion u of `text` as (Q_u, |R|**2, u'): u, or u' when u'
    is True, is P_u/Q_u (:func:`_companion`), Q_u ascending with one zero z or a pair
    z, z*, |R|**2 = |P_u(z)|**2/|Q_u'(z)|**2 or None at a double zero.  None for altgeom
    and a file: input; a Q_u of degree above 2, or with two real zeros, raises ValueError."""
    spec = _parse_input(text)
    if isinstance(spec, str):
        return None
    p, q, ends = _companion(*spec)
    d = len(q) - 1
    gap = 4 * q[0] * q[2] - q[1] ** 2 if d == 2 else q[1] ** 2  # |Q_u'(z)|**2
    if d > 2 or gap < 0:
        raise ValueError(f"Q_u of {_shown(text)} has degree {d}, not one zero or a pair z, z*")
    if not q[d]:  # altgeom
        return None
    x, w = Fraction(-q[d - 1], d * q[d]), Fraction(gap, 4 * q[d] ** 2) if d == 2 else 0
    a = b = 0
    for c in reversed(p):  # P_u(z) = a + b i sqrt(w) at z = x + i sqrt(w), by Horner
        a, b = a * x - b * w + c, a + b * x
    return q, (a * a + b * b * w) / gap if gap else None, ends is not None


def reaches_singularity(text: str, step, steps: int) -> bool:
    """Whether a continuation of the companion u of `text` starts a step, at a center
    c = k*step with k < `steps`, within `step` of a pole z (:func:`singular_data`):
    |Q_u(c)| = |q_d| |c - z|**d <= |q_d| step**d at the two centers next to Re z, nearest z."""
    h = Fraction(_exact(step, "step"))
    data = singular_data(text)
    if data is None or steps < 1:
        return False
    q, d = data[0], len(data[0]) - 1
    k = math.floor(Fraction(-q[-2]) / (d * q[-1] * h))
    return any(abs(sum(a * (c * h) ** i for i, a in enumerate(q))) <= abs(q[-1]) * h ** d
               for c in {min(max(j, 0), steps - 1) for j in (k, k + 1)})


def build_series(text: str, count: int, digits: int = DEFAULT_DIGITS) -> TaylorSeries:
    """The first `count` Taylor coefficients named by CLI input syntax:
    arctan | pole:A (f = 1/(A + x)) | altgeom (same as pole:1) | file:PATH.

    A built-in input's are exact, from :func:`rational_taylor` at 0.  A file
    is read at `digits` significant digits and must provide at least `count`
    coefficients.
    """
    spec = _parse_input(text)
    if not isinstance(spec, str):
        return TaylorSeries(_rational_prefix(*spec, count))
    if count < 1:
        raise ValueError("count must be >= 1")
    series = load_coeffs(spec, digits=digits)
    if len(series) < count:
        raise CoefficientParseError(f"file provides {len(series)} coefficients, need {count}")
    return TaylorSeries(series.coeffs[:count])


def build_companion(text: str, count: int, digits: int = DEFAULT_DIGITS) -> AssociatedSeries:
    """The first `count` companion coefficients w_n of the input `text` names.

    A built-in input's are exact, from :func:`rational_taylor` at 0 on the
    data of u (:func:`_companion`), and equal those of
    associated(build_series(text, count)).  A file: input's are
    associated(build_series(text, count, digits)), with a decimal file's
    rounded once at `digits` significant digits.  Inputs are rejected with
    the errors of :func:`build_series`, in the same order.
    """
    spec = _parse_input(text)
    if not isinstance(spec, str):
        return AssociatedSeries(_rational_prefix(*_companion(*spec), count))
    series = build_series(text, count, digits)
    with localcontext() as ctx:
        ctx.prec = digits
        return associated(series)


def _taylor_shift(coeffs, c: Fraction) -> list:
    """Ascending coefficients of p(c + t), for those of p(x)."""
    return [sum(math.comb(n, k) * a * c ** (n - k) for n, a in enumerate(coeffs) if n >= k)
            for k in range(len(coeffs))]


def rational_taylor(P, Q, center, count: int, integrate: bool = False) -> list:
    """The Taylor coefficients r_0 .. r_{count-1} of R = P/Q at `center`,
    as exact Fractions.

    P and Q are ascending coefficient sequences of ints or Fractions, and
    `center` is exact (an int, a Fraction, a Decimal or their text; a
    float raises TypeError) with Q(center) != 0.  Both polynomials are
    shifted exactly to the center and scaled to integers over one common
    denominator, which leaves P/Q as it is.  Q R = P then gives
    r_n = N_n / q_0**(n+1), where

        N_n = p_n q_0**n - sum_{j=1..deg Q} q_j q_0**(j-1) N_{n-j},

    so the loop multiplies and adds integers only, and each r_n is built
    once as a Fraction.  The cost is O(count) operations on integers that
    grow linearly, against the O(count**2) additions of the binomial
    transform (van der Hoeven, Fast evaluation of holonomic functions, TCS
    1999).

    With `integrate`, R is the derivative of the function wanted, and its
    coefficients k = 1 .. count are returned, r_{k-1}/k, each one Fraction;
    the constant term is the caller's.
    """
    c = Fraction(_exact(center, "center"))
    p, q = _taylor_shift(P, c), _taylor_shift(Q, c)
    nums, _, _ = scale_to_integers(p + q)
    p, q = nums[:len(p)], nums[len(p):]
    q0 = q[0]
    if q0 == 0:
        raise ZeroDivisionError(f"Q vanishes at the center {center}")
    weights = [w * q0 ** (j - 1) for j, w in enumerate(q[1:], 1)]
    N, powers = [], [1]  # powers[n] = q0**n
    for n in range(count):
        acc = p[n] * powers[n] if n < len(p) else 0
        for j, w in enumerate(weights[:n], 1):
            acc -= w * N[n - j]
        N.append(acc)
        powers.append(powers[n] * q0)
    return [Fraction(N[n], powers[n + 1] * (n + 1 if integrate else 1)) for n in range(count)]


# str(n) and int(text) keep to the interpreter's limit on the digits of an
# integer/string conversion (4300 by default); Decimal keeps to none.
_INTEGER_TEXT = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def _int_text(n: int) -> str:
    """str(n), for an int of any number of digits."""
    return str(Decimal(n))


def _text_int(text: str) -> int:
    """int(text), for an integer text of any number of digits."""
    if not _INTEGER_TEXT.fullmatch(text):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(Decimal(text))


def _holds_json(path: str) -> bool:
    """The one format rule of coefficient files, for reading and writing: a
    `.json` name holds decimal strings, any other name exact CSV rows."""
    return os.path.splitext(path)[1].lower() == ".json"


_SHOWN = 40  # characters of a text that an error message shows


def _shown(value) -> str:
    """repr(value), but a text longer than _SHOWN characters as its start
    and its length, so that an error message stays short.  A list, a CSV
    row's fields past its header, shows each of its texts so."""
    if isinstance(value, list):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, str) and len(value) > _SHOWN:
        return f"{value[:_SHOWN]!r}... ({len(value)} characters)"
    return repr(value)


def load_coeffs(path: str | os.PathLike, digits: int = DEFAULT_DIGITS) -> TaylorSeries:
    """Load coefficients from a file in the format its name names (see
    :func:`_holds_json`): exact rationals from CSV, or decimals read at
    `digits` significant digits from JSON.  CSV rows must be indexed
    0, 1, 2, ... in order.
    """
    path = os.fspath(path)
    with open(path) as fh:
        text = fh.read()
    if not _holds_json(path):
        coeffs = []
        reader = csv.DictReader(text.splitlines())
        if reader.fieldnames is None or not {"n", "numerator", "denominator"} <= set(
            reader.fieldnames
        ):
            raise CoefficientParseError("CSV needs header n,numerator,denominator")
        for i, row in enumerate(reader):
            try:
                n = int(row["n"])
                num = _text_int(row["numerator"])
                den = _text_int(row["denominator"])
            except (TypeError, ValueError) as e:
                shown = ", ".join(f"{_shown(k)}: {_shown(v)}" for k, v in row.items())
                raise CoefficientParseError(f"bad row {i}: {{{shown}}}") from e
            if n != i:
                raise CoefficientParseError(f"row {i} has index {n}; rows must be 0,1,2,...")
            if den <= 0:
                raise CoefficientParseError(f"row {i}: denominator must be positive")
            coeffs.append(Fraction(num, den))
        if not coeffs:
            raise CoefficientParseError("no coefficient rows")
        return TaylorSeries(coeffs)
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise CoefficientParseError(f"bad JSON: {e}") from e
    if not isinstance(data, list) or not data:
        raise CoefficientParseError("JSON must be a non-empty array of decimal strings")
    coeffs = []
    with localcontext() as ctx:
        ctx.prec = digits
        for i, item in enumerate(data):
            if not isinstance(item, str):
                raise CoefficientParseError(f"entry {i} is not a string")
            try:
                value = Decimal(item)
            except InvalidOperation as e:  # else decimal syntax with an exponent past libmpdec's
                reason = ("is not a decimal" if ConversionSyntax in e.args[0]
                          else "is outside the decimal range")
                raise CoefficientParseError(f"entry {i} {reason}: {_shown(item)}") from e
            if not value.is_finite():
                raise CoefficientParseError(f"entry {i} is not finite: {_shown(item)}")
            try:
                coeffs.append(+value)
            except ArithmeticError as e:  # the rounding passes the context's Emax
                raise CoefficientParseError(
                    f"entry {i} overflows the decimal range: {_shown(item)}") from e
    return TaylorSeries(coeffs)


def save_coeffs(series: TaylorSeries, path: str | os.PathLike | None) -> None:
    """Write coefficients so that :func:`load_coeffs` reads them back.

    A file gets the format its name names (see :func:`_holds_json`).
    Standard output, `path` None or "-", gets JSON when a coefficient is a
    Decimal and CSV otherwise.  JSON entries are exact decimal strings: a
    value with no terminating decimal, such as 1/3, raises ValueError, and
    a float TypeError in either format, before anything is written.
    """
    coeffs = series.coeffs
    if any(isinstance(c, Decimal) and not c.is_finite() for c in coeffs):
        raise ValueError("coefficients must be finite")
    path = None if path in (None, "-") else os.fspath(path)
    as_json = any(isinstance(c, Decimal) for c in coeffs) if path is None else _holds_json(path)
    if as_json:
        entries = [str(_exact_decimal(c, f"coefficient {n}:")) for n, c in enumerate(coeffs)]
        text = json.dumps(entries, indent=0) + "\n"
    else:
        fractions = ((n, Fraction(_exact(c, f"coefficient {n}:"))) for n, c in enumerate(coeffs))
        text = "n,numerator,denominator\n" + "".join(
            f"{n},{_int_text(f.numerator)},{_int_text(f.denominator)}\n" for n, f in fractions)
    _write_text(text, path)


def _write_text(text: str, path: str | os.PathLike | None) -> None:
    """Write `text` to standard output when `path` is None or "-", else to
    the file `path`, replacing it."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def format_decimal(value, digits: int = 10) -> str:
    """Render an exact value (int, str, Fraction, Decimal) at `digits`
    significant digits, rounded once through :func:`to_decimals`, with
    trailing zeros trimmed (so exact short values print short)."""
    (d,) = to_decimals((value,), digits)
    if d == 0:
        return "0"
    with localcontext() as ctx:
        ctx.prec = digits  # d has at most `digits` digits: normalize only trims zeros
        return f"{d.normalize():f}"
