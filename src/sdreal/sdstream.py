"""Signed digits, lazy digit streams, and Cauchy-sequence conversions.

A stream of digits d_i in {-1,0,1} denotes the real
``sum d_i * 2^-(i+1)`` in [-1,1].  Streams are persistent: the tail is a
deferred computation that is forced at most once and cached, so two
interleaved traversals observe identical digits.
"""

import enum

from .errors import DomainError
from .rationals import Rat


class SignedDigit(enum.IntEnum):
    """Ternary digit. The int value is the digit's numeric value."""

    N = -1
    Z = 0
    P = 1

    def __str__(self):
        return self.name


N, Z, P = SignedDigit.N, SignedDigit.Z, SignedDigit.P
DIGITS = (N, Z, P)

class DigitStream:
    """Infinite signed-digit stream with a cached, lazily forced tail.

    `tail` may be given directly as a DigitStream or deferred as a
    zero-argument callable.  Forcing is idempotent, so concurrent readers
    at worst duplicate one expansion and then agree.
    """

    __slots__ = ("head", "_tail", "_thunk")

    def __init__(self, head, tail):
        self.head = head if type(head) is SignedDigit else SignedDigit(head)
        if callable(tail):
            self._tail = None
            self._thunk = tail
        else:
            self._tail = tail
            self._thunk = None

    @property
    def tail(self):
        t = self._tail
        if t is None:
            t = self._thunk()
            self._tail = t
            self._thunk = None
        return t

    def take(self, n):
        """First n digits as a list; no tail past the n-th is forced."""
        out = []
        s = self
        for i in range(n):
            if i:
                s = s.tail
            out.append(s.head)
        return out

    def drop(self, n):
        s = self
        for _ in range(n):
            s = s.tail
        return s

    def __str__(self):
        return digits_str(self.take(8)) + "..."


def constant(d):
    """The stream d,d,d,..."""
    s = DigitStream(d, lambda: s)
    s._tail = s
    return s


def from_digits(prefix):
    """Stream starting with `prefix` and continuing with zeros."""
    s = constant(Z)
    for d in reversed(prefix):
        s = DigitStream(d, s)
    return s


_NAMES = {d: d.name for d in DIGITS}
_P_PLACES = str.maketrans("NZP", "001")
_N_PLACES = str.maketrans("NZP", "100")


def digits_str(digits):
    """Render digits as contiguous N/Z/P text, e.g. ``PPNPN``."""
    return "".join(map(_NAMES.__getitem__, digits))


def digits_value(digits):
    """sum_i d_i * 2^-(i+1) over a finite digit list: the binary number
    of its P places minus that of its N places, over 2^len(digits)."""
    text = "0" + digits_str(digits)
    acc = int(text.translate(_P_PLACES), 2) - int(text.translate(_N_PLACES), 2)
    return Rat(acc, 2 ** len(digits))


def sigma_approx(s, n):
    """Partial sum of the stream's value: sum_{i<n} s_i * 2^-(i+1).

    Within 2^-n of the denoted real; the denominator divides 2^n.  No
    tail past the n-th digit is forced.
    """
    return digits_value(s.take(n))


def select_digit(q):
    """First digit of a point known to within 1/4: P if q > 1/4,
    Z if |q| <= 1/4, N otherwise."""
    return _shifted_digit(Rat(q), 0, 0)


def _shifted_digit(q, k, t):
    """select_digit(2^k * q - t), in integers (see cauchy_to_stream)."""
    den = q.denominator
    v = 4 * ((q.numerator << k) - t * den)
    return P if v > den else Z if v >= -den else N


def unit_point(q):
    """q as a rational, refused unless it lies in [-1,1]."""
    q = Rat(q)
    if abs(q) > 1:
        raise DomainError(f"{q} lies outside [-1,1]")
    return q


def const_seq(q):
    """The fast Cauchy sequence constantly q, for rational q in [-1,1]."""
    q = unit_point(q)
    return lambda n: q


def cauchy_to_stream(f):
    """Signed-digit representation of the real a fast Cauchy sequence
    converges to.

    `f` maps n to a rational within 2^-n of the target.  Digit k is
    select_digit(g_k(2)) for the shifted sequences g_0 = f and
    g_{k+1}(n) = 2*g_k(n+1) - e_k, e_k the k-th digit's value.  The shift
    is carried as the state (k, t_k) by the invariant

        g_k(n) = 2^k * f(n+k) - t_k,   t_0 = 0,   t_{k+1} = 2*t_k + e_k,

    so digit k is select_digit(2^k * f(k+2) - t_k).  With f(k+2) = n/den,
    den > 0, that residual is v/den for v = (n << k) - t_k*den, and the
    digit is P if 4v > den, Z if 4v >= -den, N otherwise: select_digit's
    tests against 1/4, multiplied by den.  Each digit costs one query of
    `f`, no rational arithmetic, and constant stack depth.
    """

    def step(k, t):
        d = _shifted_digit(f(k + 2), k, t)
        return DigitStream(d, lambda: step(k + 1, 2 * t + d))

    return step(0, 0)
