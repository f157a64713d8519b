"""Digital systems: the built-in families of wellfounded state machines
compiled to continuity trees by `ctree.build_tree`.

Each base builder here is a step over integer states in lowest terms: a
state is classified as "write digit d, continue in the successor state"
or "read one digit of input i, branch on it", and reads make progress
towards the next write.  The unfold shares one tree object per state, so
revisited states cost nothing and linear maps with dyadic coefficients
literally become finite automata.

The concrete families: linear-affine maps, quadratics (hence the logistic
family), iterated self-composition, and trees synthesized from an honest
uniform-continuity modulus.
"""

from collections import namedtuple
from math import lcm

from .ctree import MirrorRead, ReadNode, WriteNode
from .ctree import build_tree, check_depth, compose
from .errors import DomainError
from .rationals import Rat, rat_str
from .sdstream import DIGITS, _shifted_digit

N, Z, P = DIGITS


def _norm1(u):
    return sum(abs(ui) for ui in u)


def _atom(name, *qs):
    return f"{name}({','.join(map(rat_str, qs))})"


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
        raise DomainError(f"{_atom('lin', *u, v)}: |u|_1 + |v| must be <= 1")

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
    return build_tree(n, step, (tuple(U), V, S))


def quad_range(u, v, w):
    """Exact (min, max) of u x^2 + v x + w over [-1,1]: endpoints plus the
    extremal point -v/(2u) when it lies inside."""
    crit = [u + v + w, u - v + w]
    if u != 0:
        x = -v / (2 * u)
        if -1 <= x <= 1:
            crit.append(u * x * x + v * x + w)
    return min(crit), max(crit)


def _quad_step(state):
    """The quadratic family's step, fused and integer-only.

    The state is (U, V, W, S) in lowest terms with S > 0, denoting
    f(x) = (U x^2 + V x + W)/S.  The image f[I] is [lo/D, hi/D], from
    f(1), f(-1) and, when the vertex -V/2U lies in I, its value, all three
    then scaled by c = 4|U|.  The first e in N, Z, P with the image in
    I_e = [(e - 1)/2, (e + 1)/2] is written, else the input is read, so
    the tree is node-for-node the rational step's; the successors are its
    f -> 2f - e and f -> f((x + d)/2) cleared of fractions.  Lowest terms
    need no gcd: a write's only common factor is 2, when S is even, and
    all three read successors share the factor lowbit(U | 2V | 4).
    Integration folds millions of these nodes, hence the hand-inlining.
    A read of an even function (V = 0) is a MirrorRead: its N and P
    successors then differ only in the sign of their V.
    """
    U, V, W, S = state
    A = U + V + W
    B = U - V + W
    lo, hi = (A, B) if A <= B else (B, A)
    if hi - lo <= S:
        # the ends fit a window; a vertex inside I only widens the image
        D = S
        if U > 0 and -U - U <= V <= U + U:
            c = 4 * U
            lo, hi, D = c * W - V * V, hi * c, S * c
        elif U < 0 and U + U <= V <= -U - U:
            c = -4 * U
            lo, hi, D = lo * c, V * V + c * W, S * c
        for e in (-1, 0, 1):
            if lo + lo >= (e - 1) * D and hi + hi <= (e + 1) * D:
                if S & 1:
                    s2 = (U + U, V + V, W + W - e * S, S)
                else:
                    S >>= 1
                    s2 = (U, V, W - e * S, S)
                return WriteNode(DIGITS[e + 1], s2)
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
    return (MirrorRead if V == 0 else ReadNode)(1, (
        (U, V2 - U2, W4 + U - V2, S4),
        (U, V2, W4, S4),
        (U, V2 + U2, W4 + U + V2, S4),
    ))


def quad_tree(u, v, w):
    """Tree for x -> u x^2 + v x + w, which must map [-1,1] into itself.

    Digits are tried in N, Z, P order and the first whose half-interval
    contains the whole image is written; if none fits, the input is read.
    The unfold runs on fraction-free integer states (see _quad_step).
    """
    u, v, w = Rat(u), Rat(v), Rat(w)
    low, high = quad_range(u, v, w)
    if low < -1 or high > 1:
        raise DomainError(f"{_atom('quad', u, v, w)} does not map I into I")
    return build_tree(1, _quad_step, _integer_state(u, v, w))


def logistic_tree(a):
    """Tree for the logistic map a(1 - x^2) - 1, rational a in [0,2]."""
    a = Rat(a)
    if not 0 <= a <= 2:
        raise DomainError(f"{_atom('logistic', a)} needs a in [0,2]")
    return quad_tree(-a, 0, a - 1)


def iterate_tree(t, n):
    """n-fold self-composition, left-nested: f^(k+1) = f^k . f.

    A walk nests two stack frames per layer, so n above the recursion
    limit is a resource limit, raised before any layer is built.
    """
    if n < 1:
        raise DomainError(f"iteration count {n} must be >= 1")
    check_depth(n, "composition depth")
    acc = t
    for _ in range(n - 1):
        acc = compose(acc, (t,))
    return acc


class ModulusEvaluator(namedtuple("ModulusEvaluator", "approx modulus")):
    """Computable witness of uniform continuity of some f: I -> I.

    approx(c, r) returns q with f[ball_r(c)] inside ball_eps(q) whenever
    r <= modulus(eps); tree_from_modulus passes dyadic c and r (an
    interval's midpoint and half-width).  modulus(eps) must depend on eps
    alone: tree_from_modulus asks it once per write level and keeps the
    answer.  Honesty is the caller's obligation.
    """

    __slots__ = ()


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
            q = ev.approx(Rat(m, 1 << p), Rat(1, 1 << p))
            d = _shifted_digit(q, j, t)
            return WriteNode(d, (m, p, j + 1, 2 * t + d))
        return ReadNode(1, tuple((2 * m + d, p + 1, j, t) for d in DIGITS))

    return build_tree(1, step, (0, 0, 0, 0))
