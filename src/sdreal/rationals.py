"""Exact rational scalars.

Every coefficient, approximation and integral in this package is an exact
rational in lowest terms with a positive denominator: a stdlib
``fractions.Fraction``, normalized on construction and interoperating with
Python ints.
"""

import re
import sys
from fractions import Fraction

from .errors import DomainError

Rat = Fraction

# digits per int-to-str conversion, below the smallest limit Python lets
# a process set on them (640 digits)
_PIECE = 600
_PIECE_BASE = 10**_PIECE
_DIGIT_RUN = re.compile(r"\d+")
# the one number-literal shape, the DSL's and --at's
RAT_LITERAL = r"[+-]?\s*(?:\d*\.\d+|\d+(?:\s*/\s*\d+)?)"
_RAT_SHAPE = re.compile(RAT_LITERAL)


def _int_str(n, width):
    """Non-negative int n in decimal, zero-padded to `width` digits, built
    from pieces short enough for any int-to-str limit."""
    pieces = []
    while width > _PIECE or n >= _PIECE_BASE:
        n, low = divmod(n, _PIECE_BASE)
        pieces.append(f"{low:0{_PIECE}d}")
        width -= _PIECE
    pieces.append(f"{n:0{max(width, 1)}d}")
    return "".join(reversed(pieces))


def rat_str(q):
    """Render ``p/q`` in lowest terms, integers without the ``/1``."""
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rat(text):
    """Parse a `RAT_LITERAL`, ``p/q``, an integer or a decimal, exactly.

    ``1.5`` becomes 3/2 and ``- 1 / 3`` becomes -1/3; no binary rounding
    happens anywhere.  A run of digits longer than Python converts to an
    int (4300 digits unless the process set another limit), any other
    shape, such as ``1_000``, ``1.`` or ``1e3`` (an exponent builds
    10^exponent), or a zero denominator is a DomainError."""
    text = text.strip()
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    longest = max(map(len, _DIGIT_RUN.findall(text)), default=0)
    if limit and longest > limit:
        raise DomainError(
            f"a number with a run of {longest} digits exceeds the limit "
            f"of {limit} digits"
        )
    if not _RAT_SHAPE.fullmatch(text):
        raise DomainError(f"{text!r} is not p/q, an integer or a decimal")
    try:
        return Fraction("".join(text.split()))
    except ZeroDivisionError:
        raise DomainError(f"{text} has a zero denominator") from None


def decimal_str(q, digits):
    """Correctly rounded decimal rendering with `digits` fractional digits.

    Rounding is to nearest, ties away from zero; the result is a plain
    decimal string, sign included.
    """
    if digits < 0:
        raise ValueError("digits must be >= 0")
    num, den = q.numerator, q.denominator
    sign = "-" if num < 0 else ""
    num = abs(num)
    scaled, rem = divmod(num * 10**digits, den)
    if 2 * rem >= den:
        scaled += 1
    text = _int_str(scaled, digits + 1)
    if digits == 0:
        return f"{sign}{text}"
    return f"{sign}{text[:-digits]}.{text[-digits:]}"
