"""Digital systems: wellfounded state machines compiled to continuity trees.

A digital system classifies each state as "write digit d, continue in the
successor state" or "read one digit of input i, branch on it"; reads must
make progress towards the next write.  `build_tree` unfolds such a system
lazily into a CTree, sharing one tree object per (hashable) state —
revisited states then cost nothing and linear maps with dyadic
coefficients literally become finite automata.

The concrete families: linear-affine maps, quadratics (hence the logistic
family), iterated self-composition, and trees synthesized from an honest
uniform-continuity modulus.
"""

from dataclasses import dataclass
from math import lcm
from sys import getrecursionlimit
from typing import Callable

from .ctree import CTree, ExpansionStats, MirrorRead, ReadNode, WriteNode
from .ctree import compose, family
from .errors import DomainError, ResourceLimitError
from .rationals import Rat
from .sdstream import DIGITS, select_digit

N, Z, P = DIGITS


@dataclass(frozen=True)
class DigitalSystem:
    """step(state) returns a fresh node naming successor states in place
    of subtrees: WriteNode(digit, state) or ReadNode(index, (s_N, s_Z,
    s_P)).  The unfold swaps those states for trees in that very node."""

    arity: int
    step: Callable


class _SysTree(CTree):
    """One state of a digital system `system` (a family attribute)."""

    __slots__ = ()

    def _expand(self):
        at = self._at
        node = self.system.step(self.state)
        if isinstance(node, WriteNode):
            node.next = at(node.next)
        else:
            node.branches = tuple(at(s) for s in node.branches)
        return node


def build_tree(sys, start):
    """Unfold a digital system from `start` into a lazy tree.

    States key a memo, so they must be hashable: each distinct state owns
    exactly one tree object, cached after its first expansion.
    """
    fam = family(_SysTree, sys.arity, ExpansionStats(), memo={}, system=sys)
    return fam._at(start)


def _norm1(u):
    return sum(abs(ui) for ui in u)


def _integer_state(*qs):
    """(N_1, ..., N_k, S) with q_i = N_i/S, S > 0, in lowest terms: S is
    the lcm of the reduced denominators, so no prime divides every N_i."""
    S = lcm(*(q.denominator for q in qs))
    ns = tuple(q.numerator * (S // q.denominator) for q in qs)
    return ns + (S,)


def lin_tree(u, v):
    """Tree for x -> u_1 x_1 + ... + u_n x_n + v, |u|_1 + |v| <= 1.

    The state (U, V, S) denotes x -> (U . x + V)/S in lowest terms, S > 0.
    When |u|_1 <= 1/4 (4 |U|_1 <= S) the image fits some I_d and a digit is
    written; otherwise the (smallest) input with |u_i| >= |u|_1/n is read,
    which contracts |u|_1 by at least 1 - 1/(2n).  A successor's only
    possible common factor is 2: a write divides by it exactly when S is
    even, a read of input i exactly when U_i is even.
    """
    u = tuple(Rat(ui) for ui in u)
    v = Rat(v)
    n = len(u)
    if n == 0:
        raise DomainError("lin_tree needs at least one coefficient")
    if _norm1(u) + abs(v) > 1:
        raise DomainError("|u|_1 + |v| must be <= 1 to map I^n into I")

    def step(state):
        U, V, S = state
        s1 = _norm1(U)
        if 4 * s1 <= S:
            e = N if 4 * V < -S else P if 4 * V > S else Z
            if S & 1:
                U = tuple(2 * x for x in U)
                return WriteNode(e, (U, 2 * V - e * S, S))
            h = S >> 1
            return WriteNode(e, (U, V - e * h, h))
        i = next(k for k, x in enumerate(U) if n * abs(x) >= s1)
        ui = U[i]
        if ui & 1:
            U = tuple(2 * x for x in U)
            V, S = 2 * V, 2 * S
        else:
            ui >>= 1
        half = U[:i] + (ui,) + U[i + 1 :]
        return ReadNode(i + 1, tuple((half, V + d * ui, S) for d in DIGITS))

    *U, V, S = _integer_state(*u, v)
    return build_tree(DigitalSystem(n, step), (tuple(U), V, S))


def quad_range(u, v, w):
    """Exact (min, max) of u x^2 + v x + w over [-1,1]: endpoints plus the
    extremal point -v/(2u) when it lies inside."""
    crit = [u + v + w, u - v + w]
    if u != 0:
        x = -v / (2 * u)
        if -1 <= x <= 1:
            crit.append(u * x * x + v * x + w)
    return min(crit), max(crit)


class _QuadTree(CTree):
    """Quadratic-family tree with a fused, integer-only unfold.

    The state is (U, V, W, S) in lowest terms with S > 0, denoting
    x -> (U x^2 + V x + W)/S.  Write and read successors are the rational
    step's (f -> 2f - e and f -> f((x + d)/2)) cleared of fractions, and
    the digit test multiplies out "the image lies in I_e", so the emitted
    tree is node-for-node the one the rational step yields.  Lowest terms
    need no gcd: a write's only common factor is 2, when S is even, and
    all three read successors share the factor lowbit(U | 2V | 4).
    Integration folds millions of these nodes, hence the hand-inlining.
    A read of an even function (V = 0) is a MirrorRead: its N and P
    successors then differ only in the sign of their V.
    """

    __slots__ = ()

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
            if S & 1:
                s2 = (U + U, V + V, W + W - e * S, S)
            else:
                S >>= 1
                s2 = (U, V, W - e * S, S)
            nxt = memo.get(s2)
            if nxt is None:
                nxt = cls(s2)
                memo[s2] = nxt
            return WriteNode(DIGITS[e + 1], nxt)
        S4 = 4 * S
        W4 = 4 * W
        V2 = V + V
        g = U | V2 | 4
        g &= -g
        if g > 1:
            # g divides each term below
            U //= g
            V2 //= g
            W4 //= g
            S4 //= g
        U2 = U + U
        branches = []
        for vd, wd in (
            (V2 - U2, W4 + U - V2),
            (V2, W4),
            (V2 + U2, W4 + U + V2),
        ):
            s2 = (U, vd, wd, S4)
            b = memo.get(s2)
            if b is None:
                b = cls(s2)
                memo[s2] = b
            branches.append(b)
        return (MirrorRead if V == 0 else ReadNode)(1, tuple(branches))


def quad_tree(u, v, w):
    """Tree for x -> u x^2 + v x + w, which must map [-1,1] into itself.

    Digits are tried in N, Z, P order and the first whose half-interval
    contains the whole image is written; if none fits, the input is read.
    The unfold runs on fraction-free integer states (see _QuadTree).
    """
    u, v, w = Rat(u), Rat(v), Rat(w)
    low, high = quad_range(u, v, w)
    if low < -1 or high > 1:
        raise DomainError("u x^2 + v x + w does not map [-1,1] into itself")
    state = _integer_state(u, v, w)
    return family(_QuadTree, 1, ExpansionStats(), memo={})._at(state)


def logistic_tree(a):
    """Tree for the logistic map a(1 - x^2) - 1, rational a in [0,2]."""
    a = Rat(a)
    if not 0 <= a <= 2:
        raise DomainError("logistic parameter must lie in [0,2]")
    return quad_tree(-a, 0, a - 1)


def iterate_tree(t, n):
    """n-fold self-composition, left-nested: f^(k+1) = f^k . f.

    A walk takes a stack frame per layer, so n above the recursion limit
    is a resource limit, raised before any layer is built.
    """
    if n < 1:
        raise DomainError("iteration count must be >= 1")
    if n > getrecursionlimit():
        raise ResourceLimitError(
            f"composition depth {n} exceeds the recursion limit "
            f"({getrecursionlimit()} frames)"
        )
    acc = t
    for _ in range(n - 1):
        acc = compose(acc, (t,))
    return acc


@dataclass(frozen=True)
class ModulusEvaluator:
    """Computable witness of uniform continuity of some f: I -> I.

    approx(c, r) returns q with f[ball_r(c)] inside ball_eps(q) whenever
    r <= modulus(eps); tree_from_modulus passes dyadic c and r (an
    interval's midpoint and half-width).  modulus(eps) must depend on eps
    alone: tree_from_modulus asks it once per write level and keeps the
    answer.  Honesty is the caller's obligation.
    """

    approx: Callable
    modulus: Callable


def _halvings(delta):
    """Least p >= 0 with 2^-p <= delta, for rational delta > 0."""
    n, d = delta.numerator, delta.denominator
    if n <= 0:
        raise DomainError("a modulus must be positive")
    p = max(0, d.bit_length() - n.bit_length())
    return p + 1 if n << p < d else p


def tree_from_modulus(ev):
    """Tree for the function a ModulusEvaluator describes (unary only).

    The state (m, p, j, t), all integers: the input interval has midpoint
    m/2^p and half-width 2^-p, and the current function is 2^j f - t on
    it, t the residue of the j digits written so far.  A digit is written
    once ev.modulus(2^-(j+2)) >= 2^-p, which pins the image down to radius
    2^-(j+2); otherwise reading digit d halves the interval, to
    (2m + d, p + 1, j, t).  Fractions appear only in the calls to ev.
    """
    need = {}  # write level j -> least p at which level j writes

    def step(state):
        m, p, j, t = state
        least = need.get(j)
        if least is None:
            least = need[j] = _halvings(Rat(ev.modulus(Rat(1, 4 << j))))
        if p >= least:
            q = (1 << j) * ev.approx(Rat(m, 1 << p), Rat(1, 1 << p)) - t
            d = select_digit(q)
            return WriteNode(d, (m, p, j + 1, 2 * t + d))
        return ReadNode(1, tuple((2 * m + d, p + 1, j, t) for d in DIGITS))

    return build_tree(DigitalSystem(1, step), (0, 0, 0, 0))
