"""Exact rational scalars.

Every coefficient, approximation and integral in this package is an exact
rational in lowest terms with a positive denominator: a stdlib
``fractions.Fraction``, normalized on construction and interoperating with
Python ints.
"""

from fractions import Fraction

Rat = Fraction


def rat_str(q):
    """Render ``p/q`` in lowest terms, integers without the ``/1``."""
    num, den = q.numerator, q.denominator
    return str(num) if den == 1 else f"{num}/{den}"


def parse_rat(text):
    """Parse ``p/q``, an integer, or a decimal literal, all exactly.

    ``1.5`` becomes 3/2 and ``0.7`` becomes 7/10; no binary rounding
    happens anywhere.
    """
    return Fraction(text.strip())


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
    if digits == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**digits)
    return f"{sign}{whole}.{frac:0{digits}d}"
