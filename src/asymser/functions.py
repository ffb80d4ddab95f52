"""Built-in coefficient generators, the CLI input syntax that names them
(:func:`build_series`), coefficient file formats, and decimal rendering.

Generators produce exact rational Taylor coefficients around 0.  A file's
name decides its format: a ``.json`` name holds a JSON array of decimal
strings, any other name CSV rows ``n,numerator,denominator`` of exact
rationals.  Decimal strings rather than binary floats keep the
significant-digit contract intact.
All decimal rendering rounds half-even.
"""
from __future__ import annotations

import csv
import json
import os
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

from .continuation import DEFAULT_DIGITS, _exact_decimal, _rounded, to_decimals
from .transform import TaylorSeries


class DegeneratePoleError(ValueError):
    """The pole parameter must be nonzero."""


class CoefficientParseError(ValueError):
    """Malformed coefficient file."""


def arctan_coeffs(count: int) -> TaylorSeries:
    """Taylor coefficients of arctan at 0: 0 at even n, (-1)**((n-1)/2)/n at odd n."""
    if count < 1:
        raise ValueError("count must be >= 1")
    coeffs = tuple(
        Fraction(0) if n % 2 == 0 else Fraction((-1) ** ((n - 1) // 2), n)
        for n in range(count)
    )
    return TaylorSeries(coeffs=coeffs, center=0)


def pole_coeffs(a: int | Fraction, count: int) -> TaylorSeries:
    """Taylor coefficients of f = 1/(a + x) at 0: c_n = (-1)**n / a**(n+1)."""
    if count < 1:
        raise ValueError("count must be >= 1")
    a = Fraction(a)
    if a == 0:
        raise DegeneratePoleError("pole parameter must be nonzero")
    coeffs = tuple(Fraction((-1) ** n, 1) / a ** (n + 1) for n in range(count))
    return TaylorSeries(coeffs=coeffs, center=0)


def build_series(text: str, count: int, digits: int = DEFAULT_DIGITS) -> TaylorSeries:
    """The first `count` Taylor coefficients named by CLI input syntax:
    arctan | pole:A (f = 1/(A + x)) | altgeom (same as pole:1) | file:PATH.

    A file is read at `digits` significant digits and must provide at least
    `count` coefficients.
    """
    if text == "arctan":
        return arctan_coeffs(count)
    if text == "altgeom":
        text = "pole:1"
    if text.startswith("pole:"):
        try:
            a = Fraction(text[len("pole:"):])
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad pole parameter in {text!r}") from e
        return pole_coeffs(a, count)
    if not text.startswith("file:"):
        raise ValueError(f"unknown input spec {text!r}")
    if count < 1:
        raise ValueError("count must be >= 1")
    series = load_coeffs(text[len("file:"):], digits=digits)
    if len(series) < count:
        raise CoefficientParseError(f"file provides {len(series)} coefficients, need {count}")
    return TaylorSeries(coeffs=series.coeffs[:count], center=series.center)


def _holds_json(path: str) -> bool:
    """The one format rule of coefficient files, for reading and writing: a
    `.json` name holds decimal strings, any other name exact CSV rows."""
    return os.path.splitext(path)[1].lower() == ".json"


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
                num = int(row["numerator"])
                den = int(row["denominator"])
            except (TypeError, ValueError) as e:
                raise CoefficientParseError(f"bad row {i}: {row}") from e
            if n != i:
                raise CoefficientParseError(f"row {i} has index {n}; rows must be 0,1,2,...")
            if den <= 0:
                raise CoefficientParseError(f"row {i}: denominator must be positive")
            coeffs.append(Fraction(num, den))
        if not coeffs:
            raise CoefficientParseError("no coefficient rows")
        return TaylorSeries(coeffs=tuple(coeffs), center=0)
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
                value = _rounded(item)
            except ArithmeticError as e:
                raise CoefficientParseError(f"entry {i} is not a decimal: {item!r}") from e
            if not value.is_finite():
                raise CoefficientParseError(f"entry {i} is not finite: {item!r}")
            coeffs.append(value)
    return TaylorSeries(coeffs=tuple(coeffs), center=0)


def save_coeffs(series: TaylorSeries, path: str | os.PathLike | None) -> None:
    """Write coefficients so that :func:`load_coeffs` reads them back.

    A file gets the format its name names (see :func:`_holds_json`).
    Standard output, `path` None or "-", gets JSON when a coefficient is a
    Decimal and CSV otherwise.  JSON entries are exact decimal strings: a
    value with no terminating decimal, such as 1/3, raises ValueError
    before anything is written.
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
        fractions = enumerate(map(Fraction, coeffs))
        text = "n,numerator,denominator\n" + "".join(
            f"{n},{f.numerator},{f.denominator}\n" for n, f in fractions)
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
