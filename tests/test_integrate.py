from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdreal.ctree import (
    MirrorRead,
    WriteNode,
    compose,
    constant_tree,
    expansion_count,
    feed_digit,
)
from sdreal.digitsys import lin_tree, logistic_tree, quad_tree
from sdreal.errors import DomainError, ResourceLimitError
from sdreal.integrate import integral, integral_once
from oracle import Comp, Lin, Logistic, Pow, Quad, integral_exact
from sdreal.exprdsl import to_tree
from sdreal.rationals import Rat
from sdreal.sdstream import N, P, Z


def test_constant_zero_tree():
    for k in (0, 1, 5, 12):
        res = integral(constant_tree(Z), k)
        assert res.value == 0
        assert res.error_bound == Rat(2, 2**k)


def test_k_zero_returns_zero_with_bound_two():
    res = integral(logistic_tree(2), 0)
    assert res.value == 0
    assert res.error_bound == 2


def test_logistic_three_halves_paper_call():
    # the integral of a(1-x^2)-1 over [-1,1] is 4a/3 - 2, zero at a = 3/2
    res = integral(logistic_tree(Rat(3, 2)), 10)
    assert abs(res.value) <= Rat(1, 2**9)


def test_lin_quarter_fifth():
    want = Rat(2, 5)
    for k in (2, 6, 10, 14):
        res = integral(lin_tree([Rat(1, 4)], Rat(1, 5)), k)
        assert abs(res.value - want) <= Rat(2, 2**k)


@pytest.mark.parametrize(
    "expr",
    [
        Lin(Rat(1, 4), Rat(1, 5)),
        Lin(Rat(1, 2), Rat(0)),
        Quad(Rat(1, 2), Rat(1, 4), Rat(0)),
        Logistic(Rat(1, 2)),
        Logistic(Rat(2)),
    ],
)
def test_error_bound_vs_oracle(expr):
    t = to_tree_of(expr)
    want = integral_exact(expr)
    assert type(want) is Fraction  # a bare int coefficient would give a float
    for k in range(1, 17):
        res = integral(t, k)
        assert abs(res.value - want) <= Rat(2, 2**k)


@pytest.mark.parametrize(
    "expr",
    [
        Comp(Lin(Rat(1, 2), 0), Logistic(Rat(3, 2))),
        Pow(Logistic(Rat(2)), 2),
    ],
)
def test_error_bound_vs_oracle_composed(expr):
    # composed trees fold both branches of every read that does not mirror
    # them, so the node count grows fast with k; k = 12 keeps this short
    t = to_tree_of(expr)
    want = integral_exact(expr)
    assert type(want) is Fraction  # a bare int coefficient would give a float
    for k in range(1, 13):
        res = integral(t, k)
        assert abs(res.value - want) <= Rat(2, 2**k)


def to_tree_of(expr):
    return to_tree(expr)


def test_monotone_refinement():
    t = logistic_tree(Rat(4, 5))
    prev = None
    for k in range(1, 15):
        cur = integral(t, k).value
        if prev is not None:
            assert abs(cur - prev) <= Rat(2, 2 ** (k - 1)) + Rat(1, 2**k)
        prev = cur


def test_adaptivity_soft():
    # a write-only tree costs exactly k nodes, and at equal precision a
    # flatter integrand (fewer reads per path) costs far fewer nodes
    assert integral(logistic_tree(Rat(0)), 20).nodes_visited == 20
    smooth = integral(logistic_tree(Rat(1, 10)), 10).nodes_visited
    wiggly = integral(logistic_tree(Rat(3, 2)), 10).nodes_visited
    assert smooth * 4 <= wiggly, (smooth, wiggly)


def test_arity_and_precision_errors():
    for integrate in (integral, integral_once):
        with pytest.raises(DomainError):
            integrate(lin_tree([Rat(1, 4), Rat(1, 4)], 0), 4)
        with pytest.raises(DomainError):
            integrate(constant_tree(Z), -1)


def test_resource_limit_reported():
    with pytest.raises(ResourceLimitError):
        integral(logistic_tree(2), 16, max_nodes=10)
    with pytest.raises(ResourceLimitError, match="10-node budget"):
        integral_once(logistic_tree(2), 16, max_nodes=10)


def test_budget_counts_write_only_paths():
    # a constant tree never reads, so its 50 visits are all writes: the
    # budget still holds them, raising exactly past max_nodes
    for integrate in (integral, integral_once):
        with pytest.raises(ResourceLimitError, match="1-node budget"):
            integrate(constant_tree(Z), 50, max_nodes=1)
        with pytest.raises(ResourceLimitError):
            integrate(constant_tree(Z), 50, max_nodes=49)
        res = integrate(constant_tree(Z), 50, max_nodes=50)
        assert res.value == 0 and res.nodes_visited == 50


def plain_integral(t, k):
    # reference fold: the two integral identities on Fractions, folding
    # both branches of every read (no mirror shortcut, no integer pairs)
    def fold(tree, k):
        if k == 0:
            return Fraction(0)
        node = tree.root
        if isinstance(node, WriteNode):
            return int(node.digit) + fold(node.next, k - 1) / 2
        bn, _, bp = node.branches
        return (fold(bn, k) + fold(bp, k)) / 2

    return fold(t, k)


@st.composite
def quads(draw):
    # u x^2 + v x + w on the 1/8 grid with |u| + |v| + |w| <= 1; half of
    # them even (v = 0), whose reads mirror their N and P branches
    u = draw(st.integers(-8, 8))
    left = 8 - abs(u)
    v = draw(st.just(0) | st.integers(-left, left))
    left -= abs(v)
    w = draw(st.integers(-left, left))
    return quad_tree(Rat(u, 8), Rat(v, 8), Rat(w, 8))


@settings(max_examples=40, deadline=None)
@given(quads(), st.integers(0, 12))
def test_fold_matches_plain_rule_on_quads(t, k):
    res = integral(t, k)
    assert res.value == plain_integral(t, k)
    once = integral_once(t, k)
    assert (once.value, once.error_bound) == (res.value, res.error_bound)
    if t.state[0]:
        # reads of a proper quadratic never meet at one precision
        assert once.nodes_visited == res.nodes_visited
    else:
        # u = 0 is a linear map, whose states repeat as lin's do
        assert once.nodes_visited <= res.nodes_visited


@pytest.mark.parametrize(
    "make",
    [
        lambda: to_tree(Comp(Lin(Rat(1, 2), 0), Logistic(Rat(3, 2)))),
        lambda: to_tree(Pow(Logistic(Rat(2)), 2)),
        # fed inner trees hand on the quads' own reads, mirrors included
        lambda: compose(
            lin_tree([Rat(1, 2), Rat(1, 2)], 0),
            (logistic_tree(2), logistic_tree(Rat(3, 2))),
        ),
        # a fed Z keeps logistic even, so the fed tree reaches MirrorReads
        lambda: feed_digit(logistic_tree(2), 1, Z),
        lambda: feed_digit(logistic_tree(Rat(3, 2)), 1, N),
        lambda: constant_tree(Z),
        lambda: constant_tree(P),
    ],
)
def test_fold_matches_plain_rule_on_composed(make):
    t = make()
    for k in (0, 1, 5, 9, 12):
        res = integral(t, k)
        assert res.value == plain_integral(t, k)
        # the one-shot fold on a fresh copy: same value, same visits
        assert integral_once(make(), k) == res


def test_mirror_shortcut_visits():
    # the shortcut fires at every read of an even state, as it always has
    for integrate in (integral, integral_once):
        res = integrate(logistic_tree(2), 14)
        assert res.value == Rat(89478149, 134217728)
        assert res.nodes_visited == 97_671


def test_mirror_shortcut_through_unary_composition():
    # logistic(3/2) reads its even root with a MirrorRead, and f o g keeps
    # it, so the fold takes one branch of it: 146,827 visits when compose
    # emitted a plain ReadNode for every read
    t = to_tree(Comp(Lin(Rat(1, 2), Rat(1, 2)), Logistic(Rat(3, 2))))
    once = integral_once(t, 14)
    assert type(t.root) is MirrorRead
    res = integral(t, 14)
    assert once == res
    assert res.value == Rat(536870311, 536870912)
    assert res.nodes_visited == 73_414


@st.composite
def lins(draw):
    # u x + v on the 1/16 grid with |u| + |v| <= 1
    u = draw(st.integers(-16, 16))
    left = 16 - abs(u)
    return lin_tree([Rat(u, 16)], Rat(draw(st.integers(-left, left)), 16))


@settings(max_examples=40, deadline=None)
@given(lins(), st.integers(0, 12))
def test_one_shot_fold_on_lin(t, k):
    # lin's states repeat, and the one-shot fold descends a read met again
    # at the same precision only once
    once, res = integral_once(t, k), integral(t, k)
    assert once.value == res.value == plain_integral(t, k)
    assert once.error_bound == res.error_bound
    assert once.nodes_visited <= res.nodes_visited


def test_one_shot_fold_is_linear_on_finite_state_lin():
    # the tree fold takes 3,145,725 visits on lin(1/2,0) at k = 20
    t = lin_tree([Rat(1, 2)], 0)
    visits = integral_once(t, 20).nodes_visited
    assert visits == 153  # 8 k - 7: linear in k
    # a read met again counts against the budget
    assert integral_once(t, 20, max_nodes=visits).value == 0
    with pytest.raises(ResourceLimitError):
        integral_once(t, 20, max_nodes=visits - 1)
    assert integral_once(lin_tree([Rat(3, 4)], Rat(1, 8)), 400).value == Rat(1, 4)


def test_one_shot_fold_retains_nothing():
    t = logistic_tree(Rat(3, 2))
    assert integral_once(t, 12) == integral(logistic_tree(Rat(3, 2)), 12)
    assert expansion_count(t) == 0
