"""The number layer, which imports no other module of the package: exact
values (the one float check, :func:`_exact`) and their rounding
(:func:`to_decimals`, :func:`_exact_decimal`), the series and expansion
types, the binomial transform between a Taylor series and the series of its
companion function u, and ratio-test radius estimation for u.

Given f(x) = sum c_n (x - x0)**n, the companion function is

    u(x) = f(x0 + x/(1-x)) = sum w_n x**n,

whose coefficients are the triangular binomial transform

    w_0 = c_0,   w_n = sum_{s=1..n} C(n-1, s-1) * c_s   (n >= 1).

Analyticity of u at x = 1 guarantees that f admits an expansion in powers of
1/(x - x0 + 1) as x -> infinity, which is why this transform is the entry
point of the whole pipeline.

One integer kernel, :func:`binomial_transform`, serves the companion
transform, its inverse (the same sum with alternating signs, which are
flipped around the plain sum) and both shifted/plain conversions in
:mod:`asymser.conversion`.  By the identity C(n-1, s-1) = (s/n) * C(n, s) it
sums the index-weighted coefficients s * c_s, whose common denominator is
far smaller than that of the c_s when denominators divide the index (for
arctan, 1 instead of an lcm of about 1.44*m bits), so the Pascal triangle
of m**2/2 integer additions carries far smaller integers.  The triangle runs
as packed passes: the live row is one big integer with a fixed-width slot
per entry, each entry raised by a bias that keeps its slot non-negative,
and a pass is the single addition row += row >> width.  Slots are wide
enough for a block of _BLOCK = 64 doublings above the bias, so no carry
crosses a slot; after each block the live slots are cut to the width their
entries now need and repacked.

Fraction input stays exact.  Decimal results are the exact transform of the
given decimals, rounded once in the ambient decimal context; the rounding
already in the input is still amplified by the sum of absolute terms (about
2**(n-1)/n for the arctan companion), so a 19-digit arctan prefix gives
garbage past n ~ 120.

The module also holds :class:`Value`, the base of every result and
parameter type of the package: a plain class whose fields compare, hash and
print as a tuple and cannot be reassigned.  It gives what frozen dataclasses
would, without importing :mod:`dataclasses` (and :mod:`inspect`) on every
start of the command line.
"""
from __future__ import annotations

import functools
import math
import operator
from decimal import (MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, InvalidOperation,
                     getcontext, localcontext)
from fractions import Fraction

DEFAULT_DIGITS = 19
CoeffLike = int | str | Fraction | Decimal


class DegenerateRatiosError(ValueError):
    """Every candidate coefficient pair for the ratio test hit a zero."""


class Value:
    """Base of the package's immutable value types.

    A subclass validates its arguments in __init__ and stores its fields
    with :meth:`_set`, in the order its repr lists them.  Two instances are
    equal when they are of the same class with equal fields; an instance
    hashes and prints as its fields, and raises AttributeError on assignment
    or deletion.  The fields live in the instance __dict__, so pickling and
    copying work as for any plain object.
    """

    def _set(self, **fields) -> None:
        self.__dict__.update(fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple(self.__dict__.values()) == tuple(other.__dict__.values())
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Series(Value):
    """A nonempty coefficient prefix, as long as its number of coefficients."""

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least one coefficient")
        self._set(coeffs=coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)


class TaylorSeries(Series):
    """Finite prefix of Taylor coefficients c_0..c_m around a real center x0."""


class AssociatedSeries(Series):
    """Coefficients of the companion function u around 0."""


class Expansion(Value):
    """Coefficients of an expansion of f at infinity, possibly none."""

    def __init__(self, coeffs):
        self._set(coeffs=tuple(coeffs))


class ShiftedExpansion(Expansion):
    """Coefficients of the expansion of f in powers of 1/(x - x0 + 1)."""


class PlainExpansion(Expansion):
    """Coefficients of the expansion of f in powers of 1/(x - x0)."""


class RadiusEstimate(Value):
    """Lagged ratio-test estimates of a convergence radius.

    values[i] is (|w_n| / |w_{n+lag}|)**(1/lag) for the i-th index n where
    both coefficients are nonzero.  limit_guess is the last estimate when the
    final estimates have stabilised, None when they still oscillate.
    """

    def __init__(self, lag: int, values: tuple = (), limit_guess: float | None = None):
        self._set(lag=lag, values=values, limit_guess=limit_guess)


def _integer_ratios(values) -> tuple[list, bool]:
    """(numerator, denominator) of each value in lowest terms, and whether
    any value is a Decimal; other types, float and str among them, raise TypeError."""
    kinds = set(map(type, values))
    for kind in kinds:
        if not issubclass(kind, (int, Fraction, Decimal)):
            raise TypeError(f"pass exact values (int, Fraction, Decimal), not {kind.__name__}")
    decimal = any(issubclass(kind, Decimal) for kind in kinds)
    return [c.as_integer_ratio() for c in values], decimal


def _over_common_denominator(ratios) -> tuple[list, int]:
    den = math.lcm(*(d for _, d in ratios))
    return [n * (den // d) for n, d in ratios], den


def scale_to_integers(values) -> tuple[list, int, bool]:
    """Numerators of `values` over their least common denominator.

    Returns (numerators, denominator, decimal), where decimal tells whether
    any value is a Decimal, i.e. whether results built from these integers
    should come back as Decimals (see :func:`exact_quotient`).  Floats are
    rejected: binary artifacts must not enter the exact kernels.
    """
    ratios, decimal = _integer_ratios(values)
    return (*_over_common_denominator(ratios), decimal)


_LOG10_2 = math.log10(2)
# Scales a Decimal by any power of ten exactly, whatever the ambient context.
_WIDE = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[])


@functools.lru_cache(maxsize=256)
def _power_of_ten(e: int) -> int:
    return 10 ** e


def exact_quotient(num: int, den: int, decimal: bool):
    """num/den as an exact Fraction, or as a Decimal rounded once in the
    ambient decimal context.

    This is the package's one division of an exact integer pair into a
    Decimal: every other rounding of an exact value goes through it.  The
    result, its exponent and the context flags it raises are those of
    Decimal(num) / den.

    That division converts both operands to Decimal, in time quadratic in
    their length, so large operands are divided as integers instead (Brent
    and Zimmermann, Modern Computer Arithmetic, 2010, ch. 3).  A power of
    ten 10**e, picked from the bit lengths, makes y = |num| * 10**e // den
    an integer of at least prec + 2 digits.  Every rounding boundary at prec
    digits, a result or the half-way point between two, is then a whole
    value of y.  When the division leaves a remainder, the exact quotient
    and y followed by a sticky digit 1 both lie strictly between y and
    y + 1, so rounding the latter once gives the same Decimal and the same
    Inexact and Rounded flags.  An exact quotient y * 10**-e first drops
    trailing zeros of y while e > 0, as a division does down to its ideal
    exponent 0 (10/4 gives 2.5).  y * 10**-e is formed exactly in a context
    of the widest exponent range and rounded once in the ambient one, so a
    subnormal, clamped or overflowing quotient is rounded as a division
    rounds it.  A zero num, a nonpositive den and operands too short to pay
    for the integer route are divided as Decimals.
    """
    if not decimal:
        return Fraction(num, den)
    ctx = getcontext()
    prec = ctx.prec
    nbits, dbits = num.bit_length(), den.bit_length()
    # The integer route converts a prec-digit integer, the Decimal route both
    # operands: the integer route pays for operands well past prec digits
    # (at 19 digits the two break even near two 512-bit operands).
    if num and den > 0 and nbits + dbits > 4 * prec + 1024:
        # |num/den| > 2**(nbits - 1 - dbits) >= 10**lo, up to the float's
        # error, so the result's adjusted exponent lies in [lo, lo + 2]
        lo = math.floor((nbits - 1 - dbits) * _LOG10_2)
        e = prec + 1 - lo
        if e >= 0:
            y, rem = divmod(abs(num) * _power_of_ten(e), den)
        else:
            y, rem = divmod(abs(num), den * _power_of_ten(-e))
        if rem:
            y, e = 10 * y + 1, e + 1
        while not y % 10 and e > 0:  # exact: down to the ideal exponent, 0
            y, e = y // 10, e - 1
        return ctx.plus(Decimal(y if num > 0 else -y).scaleb(-e, _WIDE))
    return Decimal(num) / den


def _exact(value: CoeffLike, what: str = "value") -> CoeffLike:
    """`value`, unless it is a float: the package's one float check, so that
    no binary artifact (the float 0.1 is 3602879701896397/2**55) enters it."""
    if isinstance(value, float):
        raise TypeError(f"{what} must be exact (int, str, Fraction, Decimal), not float")
    return value


def to_decimals(values, digits: int = DEFAULT_DIGITS) -> tuple:
    """Exact values (int, str, Fraction, Decimal) as Decimals, each rounded
    once to `digits` significant digits, half-even.

    Floats are rejected: binary artifacts must not enter the decimal pipeline.
    Decimals alone, such as a prefix rounded before, are each rounded by
    one call of the context's plus.
    """
    values = tuple(values)
    with localcontext() as ctx:
        ctx.prec = digits
        if all(type(v) is Decimal for v in values):
            return tuple(map(ctx.plus, values))
        return tuple(_rounded(v) for v in values)


def _rounded(value: CoeffLike) -> Decimal:
    if isinstance(_exact(value), Fraction):
        return exact_quotient(value.numerator, value.denominator, True)
    return +Decimal(value)


def _exact_decimal(value: CoeffLike, what: str, exc=ValueError) -> Decimal:
    """Convert a step/threshold parameter, requiring exact representability.

    A Fraction is divided out in a context that traps Inexact.  Its
    precision, num.bit_length() // 3 + 1 (at least the numerator's digits,
    counted without text) plus the denominator's bit length, holds every
    terminating quotient: with den = 2**a * 5**b the quotient has at most
    digits(num) + max(a, b) significant digits.
    """
    if isinstance(_exact(value, what), Fraction):
        num, den = value.numerator, value.denominator
        with localcontext() as ctx:
            ctx.prec = num.bit_length() // 3 + 1 + den.bit_length()
            ctx.traps[Inexact] = True
            try:
                return exact_quotient(num, den, True)
            except Inexact:
                raise exc(f"{what} {value} has no terminating decimal representation") from None
    try:
        return Decimal(value)
    except InvalidOperation:
        raise ValueError(f"{what} {value!r} is not a number") from None


def _check_digits(digits: int) -> int:
    """`digits` when decimal can work at that many significant digits."""
    if digits < 1:
        raise ValueError("digits must be >= 1")
    if digits > MAX_PREC:
        raise ValueError(f"digits must be <= {MAX_PREC}")
    return digits


# Passes of the Pascal triangle between two repackings of its packed row (a
# multiple of 8, so that a block's headroom is whole bytes).
_BLOCK = 64
# Byte tables: flip the top bit (offset binary <-> two's complement), and the
# sign extension of a byte's top bit.
_FLIP = bytes(range(0x80, 0x100)) + bytes(range(0x80))
_SIGN = bytes(0x80) + b"\xff" * 0x80


def _pascal_heads(row: list) -> list:
    """The heads sum_{s=0..n} C(n, s) * row[s] for n = 0 .. len(row) - 1.

    They are the first entries of the rows of a Pascal triangle whose next
    row holds the sums of neighbours of the last.  The live row is packed
    into one non-negative int, entry i in slot i of `size` bytes, the low
    slot first, so that one pass of the triangle is one big-integer addition,
    packed += packed >> (8 * size).

    Each slot holds its entry plus the bias 2**(8k-1), where k is the least
    number of bytes whose two's complement holds every entry.  A pass at
    most doubles a slot, so after t passes every slot lies in
    [0, 2**(8k+t)): with size = k + _BLOCK/8 bytes, no carry crosses a slot in
    a block of _BLOCK passes, the stale top slots included.  The head after
    t passes is the low slot less 2**(8k-1+t).  After a block every slot
    holds its entry plus 2**(8*size-1), the top bit of the slot: its bytes
    are the entry's two's complement with that bit flipped.  The rescan
    strips the top byte columns that are only sign extension, which leaves
    the new k, and the repack keeps the low k bytes of each live slot, flips
    their top bit back and puts _BLOCK/8 bytes of headroom above them.
    """
    heads = [row[0]]
    m = len(row)
    headroom = bytes(_BLOCK // 8)
    k = (max(map(abs, row)).bit_length() + 8) // 8
    bias = 1 << (8 * k - 1)
    size = k + len(headroom)
    data = b"".join([(v + bias).to_bytes(size, "big") for v in reversed(row)])
    n = 1
    while n < m:
        packed = int.from_bytes(data, "big")
        width = 8 * size
        mask = (1 << width) - 1
        passes = min(_BLOCK, m - n)
        for t in range(1, passes + 1):
            packed += packed >> width
            heads.append((packed & mask) - (bias << t))
        n += passes
        if n == m:
            break
        # the live slots, top first; their top byte column in two's complement
        data = packed.to_bytes(size * (m - n + 1 + passes), "big")[size * passes:]
        top = data[::size].translate(_FLIP)
        cut = 0
        while cut + 1 < size and top == data[cut + 1::size].translate(_SIGN):
            cut += 1
            top = data[cut::size]
        k = size - cut
        data = headroom + headroom.join([data[i:i + k] for i in range(cut, len(data), size)])
        size = k + len(headroom)
        if cut:
            data = bytearray(data)
            data[len(headroom)::size] = data[len(headroom)::size].translate(_FLIP)
        bias = 1 << (8 * k - 1)
    return heads


def binomial_transform(coeffs, alternating: bool = False) -> tuple:
    """The triangular binomial transform shared by all four series maps.

    out_0 = c_0 and, for n >= 1,

        out_n = sum_{s=1..n} C(n-1, s-1) * c_s                 (plain)
        out_n = sum_{s=1..n} (-1)**(n-s) * C(n-1, s-1) * c_s   (alternating)

    The two are inverse to each other.  Since C(n-1, s-1) = (s/n) * C(n, s),

        out_n = (1/n) * sum_{s=1..n} (+-1)**(n-s) * C(n, s) * d_s,

    a plain binomial sum of the index-weighted coefficients d_s = s * c_s.
    The d_s are scaled to integers over their least common denominator and
    the sums are the heads of a Pascal triangle built on them by additions
    (see :func:`_pascal_heads`): row 0 holds d_0 = 0, d_1, ..., each next
    row holds the sums of neighbours, and out_n is the head of row n divided
    by n times that denominator.  The alternating sum is the plain one with
    the signs flipped around it, as (-1)**(n-s) = (-1)**n * (-1)**s: the odd
    d_s are negated before the triangle and the odd heads after it.

    The triangle runs as packed passes: the row is one integer with a
    fixed-width slot per entry, and a pass is one big-integer addition of
    the row to itself shifted down a slot.  Every entry carries a bias that
    keeps its slot non-negative, and the slots have room for _BLOCK (64)
    doublings above it, so no carry crosses a slot; every _BLOCK passes the
    live slots are cut to the width their entries now need and repacked.

    The weighting is what keeps the integers small: coefficients whose
    denominators divide their index, such as the arctangent's +-1/s or its
    companion's +-2**(s//2)/s, become integers, so the common denominator
    drops from the lcm of the odd numbers below m, about 1.44*m bits, to 1,
    and every addition of the triangle carries that many fewer bits.
    Denominators that share nothing with the index gain nothing and cost at
    most log2(m) bits.

    Exact input gives exact Fractions.  Input containing a Decimal gives
    Decimals, each the exact transform of the given decimals rounded once in
    the ambient context.  Floats are rejected.
    """
    ratios, decimal = _integer_ratios(coeffs)
    # s * n/d in lowest terms is n * (s/g) / (d/g) with g = gcd(s, d)
    weighted = [(n * (s // g), d // g) for s, (n, d) in enumerate(ratios)
                for g in (math.gcd(s, d),)]
    row, den = _over_common_denominator(weighted)
    if alternating:
        row[1::2] = map(operator.neg, row[1::2])
    heads = _pascal_heads(row)
    if alternating:
        heads[1::2] = map(operator.neg, heads[1::2])
    return (exact_quotient(*ratios[0], decimal),) + tuple(
        exact_quotient(heads[n], n * den, decimal) for n in range(1, len(row)))


def associated(series: TaylorSeries) -> AssociatedSeries:
    """Transform Taylor coefficients into the companion-function coefficients
    w_n = sum_{s=1..n} C(n-1, s-1) * c_s, with w_0 = c_0."""
    return AssociatedSeries(binomial_transform(series.coeffs))


def associated_inverse(assoc: AssociatedSeries) -> tuple:
    """Recover Taylor coefficients from companion coefficients.

    Closed form of the inverse (composition with y/(1+y)):

        c_n = sum_{s=1..n} (-1)**(n-s) * C(n-1, s-1) * w_s.
    """
    return binomial_transform(assoc.coeffs, alternating=True)


# relative tolerance within which the last three ratio estimates must agree
# for estimate_radius to report a limit guess
STABLE_RTOL = 1e-3


def estimate_radius(assoc: AssociatedSeries, lag: int) -> RadiusEstimate:
    """Ratio-test radius estimate with a lag.

    The lag steps over periodic zeros of the coefficient sequence (the
    arctangent companion vanishes at every fourth index, so lag=4 there).
    Pairs containing a zero coefficient are skipped; if no pair survives,
    DegenerateRatiosError is raised.

    A limit guess is reported when at least three estimates exist and the
    last three agree to STABLE_RTOL relative tolerance.
    """
    if lag < 1:
        raise ValueError("lag must be >= 1")
    if len(assoc.coeffs) < lag + 2:
        raise ValueError("need at least lag + 2 coefficients")
    # |w_n / w_{n+lag}| = (|a| * d) / (b * |c|) for w_n = a/b, w_{n+lag} = c/d,
    # rounded once to a float by the integer true division
    ratios, _ = _integer_ratios(assoc.coeffs)
    values = []
    for (a, b), (c, d) in zip(ratios, ratios[lag:]):
        if a == 0 or c == 0:
            continue
        try:
            est = (abs(a) * d / (b * abs(c))) ** (1.0 / lag)
        except OverflowError:
            est = float("inf")
        values.append(est)
    if not values:
        raise DegenerateRatiosError(
            "every candidate pair contains a zero coefficient"
        )
    guess = None
    if len(values) >= 3:
        tail = values[-3:]
        scale = max(abs(v) for v in tail)
        if scale > 0 and all(abs(v - tail[-1]) <= STABLE_RTOL * scale for v in tail):
            guess = values[-1]
    return RadiusEstimate(lag=lag, values=tuple(values), limit_guess=guess)
