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

_QUARTER = Rat(1, 4)


class DigitStream:
    """Infinite signed-digit stream with a cached, lazily forced tail.

    `tail` may be given directly as a DigitStream or deferred as a
    zero-argument callable.  Forcing is idempotent, so concurrent readers
    at worst duplicate one expansion and then agree.
    """

    __slots__ = ("head", "_tail", "_thunk")

    def __init__(self, head, tail):
        self.head = SignedDigit(head)
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
        """First n digits as a list."""
        out = []
        s = self
        for _ in range(n):
            out.append(s.head)
            s = s.tail
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


def from_digits(prefix, rest=None):
    """Stream starting with `prefix` and continuing with `rest`
    (default: all zeros)."""
    s = rest if rest is not None else constant(Z)
    for d in reversed(prefix):
        s = DigitStream(d, s)
    return s


def cycle(digits):
    """Periodic stream repeating `digits` forever."""
    if not digits:
        raise ValueError("empty cycle")
    first = None
    nxt = None
    for d in reversed(digits):
        nxt = DigitStream(d, nxt if nxt is not None else (lambda: first))
        first = nxt
    return first


def digits_str(digits):
    """Render digits as contiguous N/Z/P text, e.g. ``PPNPN``."""
    return "".join(d.name for d in digits)


def digits_from_str(text):
    return [SignedDigit[c] for c in text]


def sigma_approx(s, n):
    """Partial sum of the stream's value: sum_{i<n} s_i * 2^-(i+1).

    Within 2^-n of the denoted real; the denominator divides 2^n.
    """
    acc = 0
    for _ in range(n):
        acc = 2 * acc + int(s.head)
        s = s.tail
    return Rat(acc, 2**n)


def select_digit(q):
    """First digit of a point known to within 1/4: P if q > 1/4,
    Z if |q| <= 1/4, N otherwise."""
    if q > _QUARTER:
        return P
    if abs(q) <= _QUARTER:
        return Z
    return N


def const_seq(q):
    """The fast Cauchy sequence constantly q, for rational q in [-1,1]."""
    q = Rat(q)
    if abs(q) > 1:
        raise DomainError(f"{q} lies outside [-1,1]")
    return lambda n: q


def cauchy_to_stream(f):
    """Signed-digit representation of the real a fast Cauchy sequence
    converges to.

    `f` maps n to a rational within 2^-n of the target.  Digit k is
    select_digit(g_k(2)) for the shifted sequences g_0 = f and
    g_{k+1}(n) = 2*g_k(n+1) - e_k, e_k the k-th digit's value.  The shift
    is carried as the state (k, t_k) by the invariant

        g_k(n) = 2^k * f(n+k) - t_k,   t_0 = 0,   t_{k+1} = 2*t_k + e_k,

    so digit k is select_digit(2^k * f(k+2) - t_k).  Each digit costs one
    query of `f` and constant stack depth.
    """

    def step(k, t):
        d = select_digit(2**k * f(k + 2) - t)
        return DigitStream(d, lambda: step(k + 1, 2 * t + int(d)))

    return step(0, 0)
