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
from sdreal.digitsys import lin_tree, logistic_tree, tree_from_modulus
from sdreal.errors import DomainError, ResourceLimitError
from sdreal.integrate import integral
from oracle import Comp, Lin, Logistic, Pow, Quad, integral_exact
from oracle import lipschitz_evaluator
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
    with pytest.raises(DomainError):
        integral(lin_tree([Rat(1, 4), Rat(1, 4)], 0), 4)
    with pytest.raises(DomainError):
        integral(constant_tree(Z), -1)


def test_resource_limit_reported():
    with pytest.raises(ResourceLimitError, match="10-node budget"):
        integral(logistic_tree(2), 16, max_nodes=10)


def test_budget_counts_write_only_paths():
    # a constant tree never reads, so its 50 visits are all writes: the
    # budget still holds them, raising exactly past max_nodes
    with pytest.raises(ResourceLimitError, match="1-node budget"):
        integral(constant_tree(Z), 50, max_nodes=1)
    with pytest.raises(ResourceLimitError):
        integral(constant_tree(Z), 50, max_nodes=49)
    res = integral(constant_tree(Z), 50, max_nodes=50)
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


def path_visits(t, k):
    # reference count: the visits of a fold without memo, one per write
    # on the way to precision k and one per read, which descends one
    # branch of a MirrorRead and both of any other
    if k == 0:
        return 0
    node = t.root
    if isinstance(node, WriteNode):
        return 1 + path_visits(node.next, k - 1)
    bn, _, bp = node.branches
    if type(node) is MirrorRead:
        return 1 + path_visits(bn, k)
    return 1 + path_visits(bn, k) + path_visits(bp, k)


@st.composite
def quads(draw):
    # u x^2 + v x + w on the 1/8 grid with |u| + |v| + |w| <= 1; half of
    # them even (v = 0), whose reads mirror their N and P branches
    u = draw(st.integers(-8, 8))
    left = 8 - abs(u)
    v = draw(st.just(0) | st.integers(-left, left))
    left -= abs(v)
    w = draw(st.integers(-left, left))
    return Quad(Rat(u, 8), Rat(v, 8), Rat(w, 8))


@settings(max_examples=40, deadline=None)
@given(quads(), st.integers(0, 12))
def test_fold_matches_plain_rule_on_quads(q, k):
    t = to_tree(q)
    res = integral(t, k)
    assert res.value == plain_integral(t, k)
    assert res.error_bound == Rat(2, 2**k)
    if q.u:
        # reads of a proper quadratic never meet at one precision
        assert res.nodes_visited == path_visits(t, k)
    else:
        # u = 0 is a linear map, whose states repeat as lin's do
        assert res.nodes_visited <= path_visits(t, k)


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
        # a fresh tree: no read meets another, so every path is visited
        res = integral(make(), k)
        assert res.value == plain_integral(t, k)
        assert res.nodes_visited == path_visits(t, k)
        # one tree across the loop: its family memo holds the smaller k's
        assert integral(t, k)[:2] == res[:2]


def test_mirror_shortcut_visits():
    # the shortcut fires at every read of an even state, as it always has
    res = integral(logistic_tree(2), 14)
    assert res.value == Rat(89478149, 134217728)
    assert res.nodes_visited == 97_671


def test_mirror_shortcut_through_unary_composition():
    # logistic(3/2) reads its even root with a MirrorRead, and f o g keeps
    # it, so the fold takes one branch of it: 146,827 visits when compose
    # emitted a plain ReadNode for every read
    t = to_tree(Comp(Lin(Rat(1, 2), Rat(1, 2)), Logistic(Rat(3, 2))))
    res = integral(t, 14)
    assert type(t.root) is MirrorRead
    assert res.value == Rat(536870311, 536870912)
    assert res.nodes_visited == 73_414


@st.composite
def lins(draw):
    # u x + v on the 1/16 grid with |u| + |v| <= 1
    u = draw(st.integers(-16, 16))
    left = 16 - abs(u)
    return Lin(Rat(u, 16), Rat(draw(st.integers(-left, left)), 16))


@settings(max_examples=40, deadline=None)
@given(lins(), st.integers(0, 12))
def test_one_shot_fold_on_lin(f, k):
    # lin's states repeat, and the fold descends a read met again at the
    # same precision only once
    t = to_tree(f)
    res = integral(t, k)
    assert res.value == plain_integral(t, k)
    assert res.error_bound == Rat(2, 2**k)
    assert res.nodes_visited <= path_visits(t, k)


def test_one_shot_fold_is_linear_on_finite_state_lin():
    # a fold without memo takes 3,145,725 visits on lin(1/2,0) at k = 20
    def half():
        return lin_tree([Rat(1, 2)], 0)

    visits = integral(half(), 20).nodes_visited
    assert visits == 153  # 8 k - 7: linear in k
    # a read met again counts against the budget
    assert integral(half(), 20, max_nodes=visits).value == 0
    with pytest.raises(ResourceLimitError):
        integral(half(), 20, max_nodes=visits - 1)
    assert integral(lin_tree([Rat(3, 4)], Rat(1, 8)), 400).value == Rat(1, 4)


def test_one_shot_fold_retains_nothing():
    t = logistic_tree(Rat(3, 2))
    u = logistic_tree(Rat(3, 2))
    want = (plain_integral(u, 12), Rat(2, 2**12), path_visits(u, 12))
    assert integral(t, 12) == want
    assert expansion_count(t) == 0


def test_quad_fold_keeps_only_the_call_result():
    # a proper quadratic's reads never meet again, so its family keeps the
    # call's result alone, and a repeat call is that one lookup
    t = logistic_tree(Rat(3, 2))
    res = integral(t, 12)
    folds = type(t).folds
    assert [len(d) for d in folds] == [0] * 12 + [1]
    assert t.state in folds[12]
    again = integral(t, 12)
    assert again[:2] == res[:2]
    assert again.nodes_visited == 1


def test_tree_from_modulus_fold_keeps_no_read():
    # read successors (2m +- 1, p + 1, j, t) keep N/P paths apart, so no
    # read meets another and only the call's result is kept
    ev = lipschitz_evaluator(Quad(Rat(9, 20), 0, 0))
    t = tree_from_modulus(ev)
    res = integral(t, 10)
    u = tree_from_modulus(ev)
    assert res.value == plain_integral(u, 10)
    assert res.nodes_visited == path_visits(u, 10)
    assert [len(d) for d in type(t).folds] == [0] * 10 + [1]


def comp(f, g):
    return to_tree(Comp(f, g))


QUAD = Quad(Rat(1, 2), Rat(1, 4), 0)

# (make, k, whether every family the tree derives from can recur)
POLICY_CASES = {
    "lin o quad": (lambda: comp(Lin(Rat(1, 2), Rat(1, 2)), QUAD), 12, False),
    "quad o lin": (lambda: comp(QUAD, Lin(Rat(1, 2), Rat(1, 4))), 12, False),
    "quad o quad": (lambda: comp(Quad(Rat(1, 2), 0, Rat(-1, 4)), QUAD), 11, False),
    "lin o logistic": (lambda: comp(Lin(Rat(1, 2), Rat(1, 2)), Logistic(2)), 12, False),
    "pow logistic": (lambda: to_tree(Pow(Logistic(Rat(19, 10)), 3)), 8, False),
    "fed logistic": (lambda: feed_digit(logistic_tree(Rat(3, 2)), 1, N), 12, False),
    "lin o lin": (lambda: comp(Lin(Rat(1, 2), 0), Lin(Rat(3, 4), Rat(1, 8))), 20, True),
    "pow lin": (lambda: to_tree(Pow(Lin(Rat(1, 2), Rat(1, 4)), 3)), 16, True),
    "nary lin": (
        lambda: compose(
            lin_tree([Rat(1, 2), Rat(1, 2)], 0),
            (lin_tree([Rat(1, 3)], Rat(1, 5)), lin_tree([Rat(-2, 5)], Rat(1, 7))),
        ),
        14,
        True,
    ),
    "fed lin": (lambda: feed_digit(lin_tree([Rat(3, 4)], Rat(1, 8)), 1, P), 20, True),
}


@pytest.mark.parametrize("case", sorted(POLICY_CASES))
def test_composition_inherits_fold_policy(case):
    # a composition recurs only if all its parts do; where one cannot, its
    # reads never meet again, so keeping them would change nothing
    make, k, recurs = POLICY_CASES[case]
    t = make()
    forced = make()
    type(forced).recurs = True
    assert type(t).recurs is recurs
    assert integral(t, k) == integral(forced, k)
    kept = sum(map(len, type(t).folds))
    if recurs:
        assert kept == sum(map(len, type(forced).folds)) > 1
    else:
        assert kept == 1


@st.composite
def integrands(draw):
    # quads, lins and unary compositions of the two
    atom = quads() | lins()
    return draw(atom | st.builds(Comp, atom, atom))


@settings(max_examples=30, deadline=None)
@given(integrands(), st.lists(st.integers(0, 10), min_size=1, max_size=6))
def test_family_memo_keeps_every_call_exact(f, ks):
    # calls in a drawn order on one tree share its family's memo: each
    # gives the plain rule's value and a fresh tree's result, in no more
    # visits, and a repeat at the same k visits no more than the first
    t = to_tree(f)
    for k in ks:
        res = integral(t, k)
        fresh = integral(to_tree(f), k)
        assert res.value == plain_integral(t, k)
        assert res[:2] == fresh[:2]
        assert res.nodes_visited <= fresh.nodes_visited
        assert integral(t, k).nodes_visited <= res.nodes_visited


@pytest.mark.parametrize(
    "make, k",
    [
        (lambda: logistic_tree(Rat(3, 2)), 12),
        (lambda: lin_tree([Rat(1, 2)], 0), 20),
        (
            lambda: to_tree(Comp(Lin(Rat(1, 2), Rat(1, 2)), Logistic(Rat(3, 2)))),
            10,
        ),
    ],
)
def test_budget_stop_leaves_a_sound_memo(make, k):
    # a call stopped by the budget mid-fold keeps only entries whose
    # subfolds returned, so the next call, without a budget, is exact;
    # logistic's states cannot recur, so it keeps no read and no entry
    want = integral(make(), k)
    for limit in (1, want.nodes_visited // 3, want.nodes_visited - 1):
        t = make()
        with pytest.raises(ResourceLimitError):
            integral(t, k, max_nodes=limit)
        if not type(t).recurs:
            assert not any(type(t).folds)
        elif limit > 1:
            assert any(type(t).folds)
        res = integral(t, k)
        assert res[:2] == want[:2]
        assert res.nodes_visited <= want.nodes_visited
