"""Built-in coefficient generators, coefficient file formats, and decimal
rendering.

Generators produce exact rational Taylor coefficients around 0.  Files come
in two flavours: CSV with header ``n,numerator,denominator`` for exact input,
and JSON arrays of decimal strings for fixed-precision input.  Decimal
strings rather than binary floats keep the significant-digit contract intact.
All decimal rendering rounds half-even.
"""
from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .continuation import DEFAULT_DIGITS, to_decimal
from .transform import TaylorSeries


class DegeneratePoleError(ValueError):
    """The pole parameter must be nonzero."""


class CoefficientParseError(ValueError):
    """Malformed coefficient file."""


@dataclass(frozen=True)
class GeneratorSpec:
    """What to generate: a builtin function or a coefficient file.

    kind is one of "arctan", "pole" (f = 1/(pole + x)), "altgeom"
    (f = 1/(1 + x)) or "file".
    """

    kind: str
    count: int
    pole: Optional[Fraction] = None
    path: Optional[str] = None
    digits: int = DEFAULT_DIGITS

    def __post_init__(self):
        if self.kind not in ("arctan", "pole", "altgeom", "file"):
            raise ValueError(f"unknown generator kind {self.kind!r}")
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if self.kind == "pole" and self.pole == 0:
            raise DegeneratePoleError("pole parameter must be nonzero")


def arctan_coeffs(count: int) -> TaylorSeries:
    """Taylor coefficients of arctan at 0: 0 at even n, (-1)**((n-1)/2)/n at odd n."""
    if count < 1:
        raise ValueError("count must be >= 1")
    coeffs = tuple(
        Fraction(0) if n % 2 == 0 else Fraction((-1) ** ((n - 1) // 2), n)
        for n in range(count)
    )
    return TaylorSeries(coeffs=coeffs, center=0)


def arctan_assoc_coeff(n: int) -> Fraction:
    """Closed form of the n-th companion coefficient for arctan.

    Zero when n is a multiple of 4 (including n = 0), otherwise
    (-1)**(n // 4) * 2**(n // 2) / n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if n % 4 == 0:
        return Fraction(0)
    return Fraction((-1) ** (n // 4) * 2 ** (n // 2), n)


def pole_coeffs(a: Union[int, Fraction], count: int) -> TaylorSeries:
    """Taylor coefficients of f = 1/(a + x) at 0: c_n = (-1)**n / a**(n+1)."""
    a = Fraction(a)
    if a == 0:
        raise DegeneratePoleError("pole parameter must be nonzero")
    if count < 1:
        raise ValueError("count must be >= 1")
    coeffs = tuple(Fraction((-1) ** n, 1) / a ** (n + 1) for n in range(count))
    return TaylorSeries(coeffs=coeffs, center=0)


def altgeom_coeffs(count: int) -> TaylorSeries:
    """Alternating geometric coefficients [1, -1, 1, ...] of f = 1/(1 + x)."""
    return pole_coeffs(1, count)


def build_series(spec: GeneratorSpec) -> TaylorSeries:
    """Materialise a GeneratorSpec into a TaylorSeries."""
    if spec.kind == "arctan":
        return arctan_coeffs(spec.count)
    if spec.kind == "pole":
        if spec.pole is None:
            raise ValueError("pole generator needs a pole parameter")
        return pole_coeffs(spec.pole, spec.count)
    if spec.kind == "altgeom":
        return altgeom_coeffs(spec.count)
    series = load_coeffs(spec.path, digits=spec.digits)
    if len(series) < spec.count:
        raise CoefficientParseError(
            f"file provides {len(series)} coefficients, need {spec.count}"
        )
    return TaylorSeries(coeffs=series.coeffs[: spec.count], center=series.center)


def parse_generator(text: str, count: int, digits: int = DEFAULT_DIGITS) -> GeneratorSpec:
    """Parse CLI input syntax: arctan | pole:A | altgeom | file:PATH."""
    if text == "arctan":
        return GeneratorSpec(kind="arctan", count=count, digits=digits)
    if text == "altgeom":
        return GeneratorSpec(kind="altgeom", count=count, digits=digits)
    if text.startswith("pole:"):
        try:
            a = Fraction(text[len("pole:"):])
        except (ValueError, ZeroDivisionError) as e:
            raise ValueError(f"bad pole parameter in {text!r}") from e
        return GeneratorSpec(kind="pole", count=count, pole=a, digits=digits)
    if text.startswith("file:"):
        return GeneratorSpec(kind="file", count=count, path=text[len("file:"):], digits=digits)
    raise ValueError(f"unknown input spec {text!r}")


def load_coeffs(
    path: Union[str, Path],
    fmt: Optional[str] = None,
    digits: int = DEFAULT_DIGITS,
) -> TaylorSeries:
    """Load coefficients from a CSV (exact rationals) or JSON (decimals) file.

    Format is inferred from the extension when not given.  CSV rows must be
    indexed 0, 1, 2, ... in order.
    """
    path = Path(path)
    if fmt is None:
        fmt = "json" if path.suffix.lower() == ".json" else "csv"
    text = path.read_text()
    if fmt == "csv":
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
    if fmt == "json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as e:
            raise CoefficientParseError(f"bad JSON: {e}") from e
        if not isinstance(data, list) or not data:
            raise CoefficientParseError("JSON must be a non-empty array of decimal strings")
        coeffs = []
        for i, item in enumerate(data):
            if not isinstance(item, str):
                raise CoefficientParseError(f"entry {i} is not a string")
            try:
                value = to_decimal(item, digits)
            except ArithmeticError as e:
                raise CoefficientParseError(f"entry {i} is not a decimal: {item!r}") from e
            if not value.is_finite():
                raise CoefficientParseError(f"entry {i} is not finite: {item!r}")
            coeffs.append(value)
        return TaylorSeries(coeffs=tuple(coeffs), center=0)
    raise ValueError(f"unknown format {fmt!r}")


def save_coeffs(series: TaylorSeries, path: Union[str, Path], fmt: Optional[str] = None) -> None:
    """Write coefficients to CSV (Fraction series) or JSON (Decimal series)."""
    path = Path(path)
    if fmt is None:
        if path.suffix.lower() == ".json":
            fmt = "json"
        elif path.suffix.lower() == ".csv":
            fmt = "csv"
        else:
            fmt = "csv" if isinstance(series.coeffs[0], (Fraction, int)) else "json"
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["n", "numerator", "denominator"])
            for n, c in enumerate(series.coeffs):
                f = Fraction(c)
                writer.writerow([n, f.numerator, f.denominator])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump([str(c) for c in series.coeffs], fh, indent=0)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def format_decimal(value, digits: int = 10) -> str:
    """Render a value at `digits` significant digits, round-half-even,
    trailing zeros trimmed (so exact short values print short)."""
    with localcontext() as ctx:
        ctx.prec = digits
        if isinstance(value, Fraction):
            d = Decimal(value.numerator) / Decimal(value.denominator)
        elif isinstance(value, Decimal):
            d = +value
        elif isinstance(value, int):
            d = +Decimal(value)
        else:
            raise TypeError(f"cannot render {type(value).__name__}")
        if d == 0:
            return "0"
        d = d.normalize()
    return f"{d:f}"
