"""Digital systems: wellfounded state machines compiled to continuity trees.

A digital system classifies each state as "write digit d, continue in the
successor state" or "read one digit of input i, branch on it"; reads must
make progress towards the next write.  `build_tree` unfolds such a system
lazily into a CTree, sharing one tree object per state when states are
hashable — revisited states then cost nothing and linear maps with dyadic
coefficients literally become finite automata.

The concrete families: linear-affine maps, quadratics (hence the logistic
family), iterated self-composition, and trees synthesized from an honest
uniform-continuity modulus.
"""

from dataclasses import dataclass
from math import gcd, lcm
from typing import Callable

from .ctree import CTree, ExpansionStats, ReadNode, WriteNode, compose
from .errors import DomainError
from .rationals import Rat
from .sdstream import DIGITS, SignedDigit, select_digit

N, Z, P = DIGITS


@dataclass(frozen=True)
class WriteStep:
    digit: SignedDigit
    state: object


@dataclass(frozen=True)
class ReadStep:
    index: int
    branches: tuple  # successor states in (N, Z, P) order


@dataclass(frozen=True)
class DigitalSystem:
    """step decides write-or-read per state."""

    arity: int
    step: Callable


def build_tree(sys, start):
    """Unfold a digital system from `start` into a lazy tree.

    With hashable states, each distinct state owns exactly one tree
    object, cached after its first expansion; else each visit gets one.
    """
    stats = ExpansionStats()
    try:
        hash(start)
        memo = {}
    except TypeError:
        memo = None

    def tree_for(state):
        if memo is not None:
            t = memo.get(state)
            if t is None:
                t = CTree(lambda: expand(state), sys.arity, stats)
                memo[state] = t
            return t
        return CTree(lambda: expand(state), sys.arity, stats)

    def expand(state):
        step = sys.step(state)
        if isinstance(step, WriteStep):
            return WriteNode(step.digit, tree_for(step.state))
        return ReadNode(step.index, tuple(tree_for(s) for s in step.branches))

    return tree_for(start)


def _norm1(u):
    return sum(abs(ui) for ui in u)


_QUARTER = Rat(1, 4)


def lin_tree(u, v):
    """Tree for x -> u_1 x_1 + ... + u_n x_n + v, |u|_1 + |v| <= 1.

    When |u|_1 <= 1/4 the image fits some I_d and a digit is written;
    otherwise the (smallest) input with |u_i| >= |u|_1/n is read, which
    contracts |u|_1 by at least 1 - 1/(2n).
    """
    u = tuple(Rat(ui) for ui in u)
    v = Rat(v)
    n = len(u)
    if n == 0:
        raise DomainError("lin_tree needs at least one coefficient")
    if _norm1(u) + abs(v) > 1:
        raise DomainError("|u|_1 + |v| must be <= 1 to map I^n into I")

    def step(state):
        su, sv = state
        s1 = _norm1(su)
        if s1 <= _QUARTER:
            if sv < -_QUARTER:
                e = SignedDigit.N
            elif sv > _QUARTER:
                e = SignedDigit.P
            else:
                e = SignedDigit.Z
            return WriteStep(
                e, (tuple(2 * ui for ui in su), 2 * sv - int(e))
            )
        i = next(k for k, ui in enumerate(su) if n * abs(ui) >= s1)
        ui = su[i]
        half = su[:i] + (ui / 2,) + su[i + 1 :]
        return ReadStep(
            i + 1,
            tuple((half, sv + ui * int(d) / 2) for d in DIGITS),
        )

    return build_tree(DigitalSystem(n, step), (u, v))


def quad_range(u, v, w):
    """Exact (min, max) of u x^2 + v x + w over [-1,1]: endpoints plus the
    extremal point -v/(2u) when it lies inside."""
    crit = [u + v + w, u - v + w]
    if u != 0:
        x = -v / (2 * u)
        if -1 <= x <= 1:
            crit.append(u * x * x + v * x + w)
    return min(crit), max(crit)


def _quad_test(state, e):
    u, v, w = state
    low, high = quad_range(u, v, w)
    e = int(e)
    return 2 * low >= e - 1 and 2 * high <= e + 1


def _quad_write(state, e):
    u, v, w = state
    return (2 * u, 2 * v, 2 * w - int(e))


def _quad_read(state, d):
    u, v, w = state
    d = int(d)
    return (u / 4, (u * d + v) / 2, u * d * d / 4 + v * d / 2 + w)


class _QuadTree(CTree):
    """Quadratic-family tree with a fused, integer-only unfold.

    The state is (U, V, W, S) in lowest terms with S > 0, denoting
    x -> (U x^2 + V x + W)/S.  Write and read successors are exactly
    _quad_write/_quad_read cleared of fractions (reads rescale S by 4),
    and the digit test is _quad_test with both sides multiplied out, so
    the emitted tree is node-for-node the one the rational step yields.
    Integration folds millions of these nodes, hence the hand-inlining.
    """

    # arity, stats and memo live on a per-family subclass (see quad_tree)
    # so each of the ~10^6 nodes stores only its state
    __slots__ = ("state",)

    def __init__(self, state):
        self._node = None
        self._thunk = None
        self.state = state

    def _expand(self):
        memo = self.memo
        cls = self.__class__
        U, V, W, S = self.state
        A = U + V + W
        B = U - V + W
        if A <= B:
            lo2, hi2 = A + A, B + B
        else:
            lo2, hi2 = B + B, A + A
        S2 = S + S
        e = None
        if hi2 - lo2 <= S2:
            # endpoints fit a width-1 window; fold in the extremum
            # (an interior critical point only ever widens the range)
            emin = emax = None
            U2 = U + U
            if U > 0:
                if -U2 <= V <= U2:
                    emin = 4 * U * W - V * V
                    su2 = S * U2
            elif U < 0:
                if U2 <= V <= -U2:
                    emax = 4 * U * W - V * V
                    su2 = S * U2
            if lo2 >= -S2 and hi2 <= 0 and \
               (emin is None or emin >= -2 * su2) and \
               (emax is None or emax >= 0):
                e = -1
            elif lo2 >= -S and hi2 <= S and \
               (emin is None or emin >= -su2) and \
               (emax is None or emax >= su2):
                e = 0
            elif lo2 >= 0 and hi2 <= S2 and \
               (emin is None or emin >= 0) and \
               (emax is None or emax >= 2 * su2):
                e = 1
        if e is not None:
            u2, v2, w2 = U + U, V + V, W + W - e * S
            g = gcd(u2, v2, w2, S)
            if g > 1:
                s2 = (u2 // g, v2 // g, w2 // g, S // g)
            else:
                s2 = (u2, v2, w2, S)
            nxt = memo.get(s2)
            if nxt is None:
                nxt = cls(s2)
                memo[s2] = nxt
            return WriteNode(DIGITS[e + 1], nxt)
        S4 = 4 * S
        W4 = 4 * W
        V2 = V + V
        branches = []
        for vd, wd in (
            (V2 - U - U, W4 + U - V2),
            (V2, W4),
            (V2 + U + U, W4 + U + V2),
        ):
            g = gcd(U, vd, wd, S4)
            if g > 1:
                s2 = (U // g, vd // g, wd // g, S4 // g)
            else:
                s2 = (U, vd, wd, S4)
            b = memo.get(s2)
            if b is None:
                b = cls(s2)
                memo[s2] = b
            branches.append(b)
        return ReadNode(1, tuple(branches))


def quad_tree(u, v, w):
    """Tree for x -> u x^2 + v x + w, which must map [-1,1] into itself.

    Digits are tried in N, Z, P order and the first whose half-interval
    contains the whole image is written; if none fits, the input is read.
    The unfold runs on fraction-free integer states (see _QuadTree); the
    rational helpers _quad_test/_quad_write/_quad_read state the same
    step rule at reference speed.
    """
    u, v, w = Rat(u), Rat(v), Rat(w)
    low, high = quad_range(u, v, w)
    if low < -1 or high > 1:
        raise DomainError("u x^2 + v x + w does not map [-1,1] into itself")
    S = lcm(int(u.denominator), int(v.denominator), int(w.denominator))
    U, V, W = (int(u * S), int(v * S), int(w * S))
    g = gcd(U, V, W, S)
    state = (U // g, V // g, W // g, S // g)

    class family(_QuadTree):
        __slots__ = ()
        arity = 1
        stats = ExpansionStats()
        memo = {}

    root = family(state)
    family.memo[state] = root
    return root


def logistic_tree(a):
    """Tree for the logistic map a(1 - x^2) - 1, rational a in [0,2]."""
    a = Rat(a)
    if not 0 <= a <= 2:
        raise DomainError("logistic parameter must lie in [0,2]")
    return quad_tree(-a, 0, a - 1)


def iterate_tree(t, n):
    """n-fold self-composition, left-nested: f^(k+1) = f^k . f."""
    if n < 1:
        raise DomainError("iteration count must be >= 1")
    acc = t
    for _ in range(n - 1):
        acc = compose(acc, (t,))
    return acc


@dataclass(frozen=True)
class ModulusEvaluator:
    """Computable witness of uniform continuity of some f: I -> I.

    approx(p, delta) returns q with f[ball_delta(p)] inside
    ball_eps(q) for the eps that delta answers; modulus(eps) returns such
    a delta.  Honesty is the caller's obligation.
    """

    approx: Callable
    modulus: Callable


def tree_from_modulus(ev):
    """Tree for the function a ModulusEvaluator describes (unary only).

    State: dyadic input interval (midpoint c, half-width r) plus the
    affine residue of the digits written so far — the current function is
    2^j * f - t on that interval.  A digit is written once the evaluator
    pins the image down to radius 2^-(j+2); otherwise reading a digit
    halves the interval.
    """
    start = (Rat(0), Rat(1), 0, Rat(0))

    def step(state):
        c, r, j, t = state
        eps = Rat(1, 4 * 2**j)
        if ev.modulus(eps) >= r:
            q = 2**j * ev.approx(c, r) - t
            d = select_digit(q)
            return WriteStep(d, (c, r, j + 1, 2 * t + int(d)))
        return ReadStep(
            1,
            tuple((c + int(d) * r / 2, r / 2, j, t) for d in DIGITS),
        )

    return build_tree(DigitalSystem(1, step), start)
