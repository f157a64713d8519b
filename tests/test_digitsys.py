from math import gcd
from sys import getrecursionlimit

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdreal import digitsys
from sdreal.ctree import (
    MirrorRead,
    ReadNode,
    WriteNode,
    apply,
    build_tree,
    check_productive,
    compose,
    eval_at,
    expansion_count,
    modulus,
)
from sdreal.digitsys import (
    ModulusEvaluator,
    iterate_tree,
    lin_tree,
    logistic_tree,
    quad_range,
    quad_tree,
    tree_from_modulus,
)
from sdreal.errors import DomainError, ResourceLimitError
from sdreal.exprdsl import parse
from oracle import (
    Lin,
    Logistic,
    Quad,
    eval_exact,
    lipschitz_evaluator,
)
from sdreal.rationals import Rat
from sdreal.sdstream import (
    DIGITS,
    N,
    P,
    Z,
    SignedDigit,
    constant,
    digits_str,
)

from conftest import GRID, quarter_rule, same_nodes, within


def digits_of(t, n, at=None):
    return apply(t, (at if at is not None else constant(Z),)).take(n)


def test_build_tree_constant_writer():
    t = build_tree(1, lambda s: WriteNode(Z, s), ())
    assert digits_of(t, 6) == [Z] * 6


def test_build_tree_write_free_not_productive():
    t = build_tree(1, lambda s: ReadNode(1, (s, s, s)), 0)
    assert not check_productive(t, 1, 64)


def affine_step(state):
    # x -> u x + v with |u| + |v| <= 1, on a (u, v) tuple
    u, v = state
    if abs(u) <= Rat(1, 4):
        e = N if v < Rat(-1, 4) else P if v > Rat(1, 4) else Z
        return WriteNode(e, (2 * u, 2 * v - int(e)))
    return ReadNode(1, tuple((u / 2, v + u * int(d) / 2) for d in DIGITS))


def test_build_tree_unhashable_states():
    # states key the memo: a list state fails at build time, and equal
    # tuple states share one tree
    with pytest.raises(TypeError):
        build_tree(1, affine_step, [Rat(0), Rat(0)])
    shared = build_tree(1, affine_step, (Rat(0), Rat(0)))
    assert shared.root.next is shared


def lin_reference(u, v):
    # reference rule: the rational step lin_tree unfolded before its states
    # became integers, on (u, v) with Fraction coefficients
    u = tuple(Rat(ui) for ui in u)
    v = Rat(v)
    n = len(u)
    _QUARTER = Rat(1, 4)

    def _norm1(u):
        return sum(abs(ui) for ui in u)

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
            return WriteNode(
                e, (tuple(2 * ui for ui in su), 2 * sv - int(e))
            )
        i = next(k for k, ui in enumerate(su) if n * abs(ui) >= s1)
        ui = su[i]
        half = su[:i] + (ui / 2,) + su[i + 1 :]
        return ReadNode(
            i + 1,
            tuple((half, sv + ui * int(d) / 2) for d in DIGITS),
        )

    return build_tree(n, step, (u, v))


def flat(state):
    for x in state:
        yield from flat(x) if type(x) is tuple else (x,)


def int_states(t):
    """Every state t's family has reached is made of ints."""
    return all(type(x) is int for s in type(t).memo for x in flat(s))


def lowest_terms(t):
    """Every state t's family has reached has coprime entries."""
    return all(gcd(*flat(s)) == 1 for s in type(t).memo)


def same_sharing(t, ref):
    """t's family reached as many states as ref's: with states in one-to-one
    correspondence, the two trees share the same subtrees."""
    return len(type(t).memo) == len(type(ref).memo)


# odd and even denominators: a lin write halves its state exactly when the
# common denominator is even, a read when the coefficient read is even
DENOMINATORS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 24, 149)


@st.composite
def affine_maps(draw, arity):
    """(u, v) with |u|_1 + |v| <= 1, each coefficient over its own
    denominator."""
    room = Rat(1)
    coeffs = []
    for _ in range(arity + 1):
        den = draw(st.sampled_from(DENOMINATORS))
        top = int(room * den)
        q = Rat(draw(st.integers(-top, top)), den)
        room -= abs(q)
        coeffs.append(q)
    coeffs = draw(st.permutations(coeffs))
    return coeffs[:-1], coeffs[-1]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(affine_maps))
def test_lin_tree_matches_rational_rule(uv):
    u, v = uv
    t, ref = lin_tree(u, v), lin_reference(u, v)
    assert same_nodes(t, ref, 9)
    assert int_states(t) and lowest_terms(t) and same_sharing(t, ref)


def test_lin_tree_productive():
    assert check_productive(lin_tree([Rat(1)], 0), 8, 4)


def test_lin_tree_immediate_write():
    assert digits_str(digits_of(lin_tree([Rat(0)], Rat(1, 2)), 6)) == "PZZZZZ"


def test_lin_tree_paper_value():
    t = lin_tree([Rat(1, 4)], Rat(1, 5))
    assert eval_at(t, Rat(1, 3), 10) == Rat(145, 512)


def test_lin_tree_domain_error():
    with pytest.raises(DomainError):
        lin_tree([Rat(1, 2)], Rat(2, 3))


def test_lin_tree_needs_a_coefficient():
    with pytest.raises(DomainError, match="at least one coefficient"):
        lin_tree([], 0)


def test_lin_tree_vs_oracle_grid():
    cases = [
        (Rat(1, 2), Rat(1, 4)),
        (Rat(-1, 3), Rat(1, 3)),
        (Rat(1), Rat(0)),
        (Rat(0), Rat(-1)),
    ]
    for u, v in cases:
        t = lin_tree([u], v)
        e = Lin(u, v)
        for q in GRID:
            assert within(eval_at(t, q, 24), eval_exact(e, q), 24)


def test_lin_write_soundness_and_contraction():
    # walk the state machine directly and check the digital-system laws
    u, v = (Rat(1, 2), Rat(1, 4)), Rat(1, 8)
    n = len(u)
    sys_states = [(u, v)]
    seen = 0
    while sys_states and seen < 200:
        su, sv = sys_states.pop()
        seen += 1
        s1 = sum(abs(x) for x in su)
        if s1 <= Rat(1, 4):
            # image [v - |u|, v + |u|] must land in I_e for the digit written
            if sv < Rat(-1, 4):
                e = -1
            elif sv > Rat(1, 4):
                e = 1
            else:
                e = 0
            assert abs(2 * (sv - s1) - e) <= 1
            assert abs(2 * (sv + s1) - e) <= 1
        else:
            i = next(k for k, x in enumerate(su) if n * abs(x) >= s1)
            for d in (-1, 0, 1):
                nu = su[:i] + (su[i] / 2,) + su[i + 1 :]
                nv = sv + su[i] * d / 2
                assert sum(abs(x) for x in nu) <= s1 * (2 * n - 1) / (2 * n)
                if seen < 60:
                    sys_states.append((nu, nv))


def test_quad_range_fig1():
    low, high = quad_range(Rat(-2, 3), Rat(0), Rat(-1, 3))
    assert low == -1
    assert high == Rat(-1, 3)


def test_quad_tree_fig1_root():
    t = quad_tree(Rat(-2, 3), 0, Rat(-1, 3))
    node = t.root
    assert isinstance(node, WriteNode)
    assert node.digit is N


# the rational quadratic step rule, at reference speed: the integer
# _quad_step must unfold to it node for node


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


def test_quad_invariant_preserved():
    # quadWrite/quadRead keep the function mapping I into I
    todo = [(Rat(-2, 3), Rat(0), Rat(-1, 3))]
    for _ in range(80):
        state = todo.pop(0)
        low, high = quad_range(*state)
        assert low >= -1 and high <= 1
        wrote = False
        for e in DIGITS:
            if _quad_test(state, e):
                todo.append(_quad_write(state, e))
                wrote = True
                break
        if not wrote:
            todo.extend(_quad_read(state, d) for d in DIGITS)


def quad_reference(u, v, w):
    # reference rule: the rational _quad_test/_quad_write/_quad_read step
    # unfolded by the generic builder; quad_tree must equal it node for node
    def step(state):
        for e in DIGITS:
            if _quad_test(state, e):
                return WriteNode(e, _quad_write(state, e))
        return ReadNode(1, tuple(_quad_read(state, d) for d in DIGITS))

    return build_tree(1, step, (u, v, w))


@st.composite
def quadratics(draw):
    """(u, v, w) for u (x - c)^2 + m mapping I into I.  The vertex (c, m)
    lies on the 1/8 grid, so digit windows are often met exactly, where
    the integer unfold's comparisons must not be strict."""
    c = Rat(draw(st.integers(-16, 16)), 8)
    m = Rat(draw(st.integers(-8, 8)), 8)
    sign = draw(st.sampled_from((-1, 1)))
    # the image lies between m and m + u (1 + |c|)^2
    room = (1 - sign * m) / (1 + abs(c)) ** 2
    u = sign * room * Rat(draw(st.integers(0, 8)), 8)
    return u, -2 * u * c, u * c * c + m


@settings(max_examples=60, deadline=None)
@given(quadratics())
# one pinned case per branch of the integer window test: U < 0 with the
# vertex inside I (logistic(2), image exactly [-1, 1]), U > 0 with it
# inside, the vertex on an endpoint for each sign of U, U = 0, and a
# bench-sized logistic coefficient
@example((Rat(-2), Rat(0), Rat(1)))
@example((Rat(1, 2), Rat(1, 4), Rat(0)))
@example((Rat(1, 4), Rat(1, 2), Rat(0)))
@example((Rat(-1, 4), Rat(1, 2), Rat(1, 4)))
@example((Rat(0), Rat(1, 2), Rat(1, 4)))
@example((Rat(-19014, 10007), Rat(0), Rat(9007, 10007)))
def test_quad_tree_matches_rational_rule(uvw):
    t, ref = quad_tree(*uvw), quad_reference(*uvw)
    assert same_nodes(t, ref, 9)
    assert lowest_terms(t) and same_sharing(t, ref)


@st.composite
def half_even_quadratics(draw):
    """Quadratics on the 1/8 grid, half of them even: u x^2 + m, u != 0
    unless m = +-1 leaves no room."""
    if draw(st.booleans()):
        return draw(quadratics())
    m = Rat(draw(st.integers(-8, 8)), 8)
    sign = draw(st.sampled_from((-1, 1)))
    u = sign * (1 - sign * m) * Rat(draw(st.integers(1, 8)), 8)
    return u, Rat(0), m


@settings(max_examples=60, deadline=None)
@given(half_even_quadratics())
def test_quad_mirror_reads_pinned(uvw):
    # same_nodes ignores node classes: here a read within depth 9 is a
    # MirrorRead exactly when its state's V is 0, so an unfold that
    # rebuilt read nodes instead of filling in the step's own would fail
    seen, level, mirrors = set(), [quad_tree(*uvw)], 0
    for _ in range(9):
        nxt = []
        for t in level:
            if id(t) in seen:
                continue
            seen.add(id(t))
            node = t.root
            if type(node) is WriteNode:
                nxt.append(node.next)
                continue
            assert type(node) is (MirrorRead if t.state[1] == 0 else ReadNode)
            mirrors += type(node) is MirrorRead
            nxt.extend(node.branches)
        level = nxt
    u, v, _ = uvw
    if v == 0 and u != 0:
        assert mirrors > 0


def test_quad_degenerate_is_linear():
    u, v = Rat(1, 3), Rat(1, 4)
    tq = quad_tree(0, u, v)
    tl = lin_tree([u], v)
    for q in GRID:
        assert within(eval_at(tq, q, 20), eval_at(tl, q, 20), 19)


def test_quad_tree_domain_error():
    with pytest.raises(DomainError):
        quad_tree(Rat(2), 0, 0)


def test_logistic_zero_is_constant_minus_one():
    assert digits_str(digits_of(logistic_tree(0), 6)) == "NNNNNN"


def test_logistic_matches_quad():
    a = Rat(2)
    t1, t2 = logistic_tree(a), quad_tree(-a, 0, a - 1)
    for q in (Rat(0), Rat(7, 10), Rat(-1, 2)):
        assert eval_at(t1, q, 20) == eval_at(t2, q, 20)


def test_logistic_domain_error():
    with pytest.raises(DomainError):
        logistic_tree(Rat(5, 2))


def test_logistic_value():
    assert within(eval_at(logistic_tree(2), Rat(7, 10), 20), Rat(1, 50), 20)


def test_iterate_one_is_same_tree():
    t = logistic_tree(2)
    assert iterate_tree(t, 1) is t
    with pytest.raises(DomainError):
        iterate_tree(t, 0)


def test_iterate_past_recursion_limit_builds_nothing(monkeypatch):
    # each layer costs a walk a stack frame, so such a tree is unwalkable
    calls = []
    monkeypatch.setattr(
        digitsys, "compose", lambda *a: calls.append(a) or compose(*a)
    )
    t = logistic_tree(2)
    with pytest.raises(ResourceLimitError, match="recursion limit"):
        iterate_tree(t, getrecursionlimit() + 1)
    assert calls == []
    iterate_tree(t, 3)
    assert len(calls) == 2


def test_iterate_two():
    t = iterate_tree(logistic_tree(2), 2)
    assert within(eval_at(t, Rat(7, 10), 20), Rat(1249, 1250), 20)


def test_iterate_vs_oracle():
    for a in (Rat(1, 2), Rat(1), Rat(3, 2), Rat(2)):
        expr = Logistic(a)
        for k in (1, 2, 4, 6):
            t = iterate_tree(logistic_tree(a), k)
            for q in (Rat(0), Rat(7, 10), Rat(-1, 3)):
                want = q
                for _ in range(k):
                    want = eval_exact(expr, want)
                assert within(eval_at(t, q, 24), want, 24)


def test_finite_state_sharing_bounded():
    # dyadic linear map: finitely many states, so a deep traversal along a
    # path expands only a bounded set of shared nodes
    t = lin_tree([Rat(1, 2)], 0)
    apply(t, (constant(Z),)).take(300)
    assert expansion_count(t) <= 20


def test_tree_from_modulus_constant_zero():
    ev = ModulusEvaluator(approx=lambda p, r: Rat(0), modulus=lambda eps: eps)
    t = tree_from_modulus(ev)
    assert digits_of(t, 8) == [Z] * 8


@pytest.mark.parametrize(
    "expr",
    [Lin(Rat(1, 2), 0), Quad(Rat(1, 2), 0, 0), Quad(Rat(-2, 3), 0, Rat(-1, 3))],
)
def test_tree_from_modulus_vs_oracle(expr):
    t = tree_from_modulus(lipschitz_evaluator(expr))
    for q in GRID:
        assert within(eval_at(t, q, 16), eval_exact(expr, q), 16)


def test_tree_from_modulus_productive():
    t = tree_from_modulus(lipschitz_evaluator(Quad(Rat(1, 2), 0, 0)))
    assert check_productive(t, 6, 12)


def modulus_reference(ev):
    # reference rule: the rational step tree_from_modulus unfolded before
    # its states became integers, on (c, r, j, t) with Fraction c, r, t
    start = (Rat(0), Rat(1), 0, Rat(0))

    def step(state):
        c, r, j, t = state
        eps = Rat(1, 4 * 2**j)
        if ev.modulus(eps) >= r:
            q = 2**j * ev.approx(c, r) - t
            d = quarter_rule(q)
            return WriteNode(d, (c, r, j + 1, 2 * t + int(d)))
        return ReadNode(
            1,
            tuple((c + int(d) * r / 2, r / 2, j, t) for d in DIGITS),
        )

    return build_tree(1, step, start)


@pytest.mark.parametrize(
    "text",
    [
        "lin(1/2, 1/3)",
        "lin(-3/4, 1/8)",
        "lin(2/7, -5/9)",
        "quad(1/2, 0, 0)",
        "quad(-2/3, 0, -1/3)",
        "quad(1/4, -1/3, 1/5)",
        "logistic(3/2)",
    ],
)
def test_tree_from_modulus_matches_rational_rule(text):
    ev = lipschitz_evaluator(parse(text))
    t, ref = tree_from_modulus(ev), modulus_reference(ev)
    assert same_nodes(t, ref, 9)
    assert int_states(t) and same_sharing(t, ref)


def test_tree_from_modulus_asks_modulus_once_per_level():
    ev = lipschitz_evaluator(parse("quad(1/2,0,0)"))
    asked = []

    def counted(eps):
        asked.append(eps)
        return ev.modulus(eps)

    t = tree_from_modulus(ModulusEvaluator(ev.approx, counted))
    assert modulus(t, 10) == 11
    assert expansion_count(t) == 17374
    assert len(asked) <= 11


def test_tree_from_modulus_needs_positive_modulus():
    ev = ModulusEvaluator(approx=lambda p, r: Rat(0), modulus=lambda eps: 0)
    with pytest.raises(DomainError):
        tree_from_modulus(ev).root
