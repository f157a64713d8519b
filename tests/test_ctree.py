import gc
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdreal.ctree import (
    CTree,
    ExpansionStats,
    ReadNode,
    WriteNode,
    apply,
    as_stream,
    check_productive,
    collector_paused,
    compose,
    constant_tree,
    digits_at,
    eval_at,
    expansion_count,
    family,
    feed_digit,
    modulus,
    render_ascii,
    render_dot,
)
from sdreal.digitsys import (
    DigitalSystem,
    ReadStep,
    build_tree,
    lin_tree,
    logistic_tree,
    quad_tree,
)
from sdreal.errors import DomainError
from sdreal.exprdsl import parse, to_tree
from sdreal.integrate import integral
from sdreal.oracle import Lin, Logistic, Quad, eval_exact
from sdreal.rationals import Rat
from sdreal.sdstream import (
    DIGITS,
    N,
    P,
    Z,
    cauchy_to_stream,
    const_seq,
    constant,
    digits_str,
    from_digits,
)

from conftest import GRID, same_nodes, within


def fig1_tree():
    # f(x) = (2/3)(1 - x^2) - 1 rewritten as -2/3 x^2 + 0 x - 1/3
    return quad_tree(Rat(-2, 3), 0, Rat(-1, 3))


def identity_tree():
    return lin_tree([Rat(1)], 0)


def read_forever_tree():
    return build_tree(DigitalSystem(1, lambda s: ReadStep(1, (s, s, s))), 0)


def test_apply_constant():
    out = apply(constant_tree(Z), (cycle_input(),))
    assert out.take(5) == [Z] * 5


def cycle_input():
    return from_digits([P, N, P])


def test_apply_fig1_zero_input():
    out = apply(fig1_tree(), (constant(Z),))
    assert digits_str(out.take(6)) == "NZPZPZ"


def test_apply_fig1_half_input():
    out = apply(fig1_tree(), (from_digits([P]),))
    assert digits_str(out.take(4)) == "NZZZ"


def test_apply_arity_mismatch():
    with pytest.raises(DomainError):
        apply(fig1_tree(), ())


def test_eval_at_paper_value():
    assert eval_at(lin_tree([Rat(1, 4)], Rat(1, 5)), Rat(1, 3), 10) == Rat(
        145, 512
    )


def test_eval_at_constant_zero():
    assert eval_at(constant_tree(Z), Rat(1, 3), 12) == 0


def test_eval_at_logistic():
    got = eval_at(logistic_tree(2), Rat(7, 10), 20)
    assert within(got, Rat(1, 50), 20)


def test_eval_at_domain_error():
    with pytest.raises(DomainError):
        eval_at(constant_tree(Z), Rat(3, 2), 4)


def test_feed_digit_constant():
    fed = feed_digit(constant_tree(P), 1, N)
    assert as_stream_digits(fed, 6) == [P] * 6


def as_stream_digits(t, n):
    return apply(t, (constant(Z),) * t.arity).take(n)


def test_feed_digit_read_root_consumes():
    t = read_forever_tree()
    fed = feed_digit(t, 1, P)
    # the P branch of the root read is the whole self-looping tree again
    assert not check_productive(fed, 1, 50)


def test_feed_digit_identity():
    fed = feed_digit(identity_tree(), 1, P)
    got = eval_at(fed, Rat(0), 10)
    assert within(got, Rat(1, 2), 10)  # (0 + 1)/2


def test_feed_digit_vs_oracle():
    f = Quad(Rat(1, 2), Rat(1, 4), Rat(0))
    t = quad_tree(f.u, f.v, f.w)
    for d in (N, Z, P):
        fed = feed_digit(t, 1, d)
        for q in GRID:
            want = eval_exact(f, (q + int(d)) / 2)
            assert within(eval_at(fed, q, 20), want, 20)


def test_feed_digit_index_error():
    with pytest.raises(DomainError):
        feed_digit(identity_tree(), 2, Z)


def test_compose_identity_laws():
    f = logistic_tree(Rat(3, 2))
    fid = compose(f, (identity_tree(),))
    idf = compose(identity_tree(), (f,))
    expr = Logistic(Rat(3, 2))
    for q in (Rat(0), Rat(1, 2), Rat(-1, 2), Rat(1, 3)):
        want = eval_exact(expr, q)
        assert within(eval_at(fid, q, 16), want, 16)
        assert within(eval_at(idf, q, 16), want, 16)


def test_compose_logistic_twice():
    t = compose(logistic_tree(2), (logistic_tree(2),))
    got = eval_at(t, Rat(7, 10), 20)
    # f2(f2(7/10)) = f2(1/50) = 1249/1250 by the exact oracle
    assert within(got, Rat(1249, 1250), 20)


def test_compose_arity_mismatch():
    with pytest.raises(DomainError):
        compose(lin_tree([Rat(1, 4), Rat(1, 4)], 0), (identity_tree(),))


def test_compose_semantic_associativity():
    f = Logistic(Rat(1, 2))
    g = Lin(Rat(1, 2), Rat(1, 4))
    h = Quad(Rat(1, 2), 0, 0)
    tf, tg, th = logistic_tree(f.a), lin_tree([g.u], g.v), quad_tree(h.u, h.v, h.w)
    left = compose(compose(tf, (tg,)), (th,))
    right = compose(tf, (compose(tg, (th,)),))
    for q in GRID:
        a = eval_at(left, q, 20)
        b = eval_at(right, q, 20)
        want = eval_exact(f, eval_exact(g, eval_exact(h, q)))
        assert within(a, want, 20)
        assert within(b, want, 20)


def test_compose_binary_outer():
    # exercises the read-of-read path with feed_digit on the other input
    f = lin_tree([Rat(1, 2), Rat(1, 4)], 0)
    g1 = lin_tree([Rat(1, 2)], Rat(1, 4))
    g2 = quad_tree(Rat(1, 2), 0, 0)
    t = compose(f, (g1, g2))
    assert t.arity == 1
    eg1 = Lin(Rat(1, 2), Rat(1, 4))
    eg2 = Quad(Rat(1, 2), 0, 0)
    for q in GRID:
        want = eval_exact(eg1, q) / 2 + eval_exact(eg2, q) / 4
        assert within(eval_at(t, q, 20), want, 20)


class Thunk(CTree):
    # a tree whose state is a closure computing its node
    __slots__ = ()

    def _expand(self):
        return self.state()


def compose_unshared(f, gs):
    # reference rule without sharing: a fresh CTree per visit to a state,
    # so the result unfolds as a tree; compose must equal it node for node
    gs = tuple(gs)
    m = gs[0].arity
    stats = ExpansionStats(parents=(f.stats,) + tuple(g.stats for g in gs))
    thunks = family(Thunk, m, stats)

    def comp(fpos, cur):
        return thunks(lambda: expand(fpos, cur))

    def expand(fpos, cur):
        node = fpos.root if isinstance(fpos, CTree) else fpos
        while True:
            if isinstance(node, WriteNode):
                return WriteNode(node.digit, comp(node.next, cur))
            i = node.index - 1
            gnode = cur[i].root
            if isinstance(gnode, WriteNode):
                nxt = node.branches[int(gnode.digit) + 1]
                cur = cur[:i] + (gnode.next,) + cur[i + 1 :]
                node = nxt.root
            else:
                j = gnode.index

                def mk(e, node=node, cur=cur, i=i, gnode=gnode, j=j):
                    new = tuple(
                        gnode.branch(e) if k == i else feed_digit(g, j, e)
                        for k, g in enumerate(cur)
                    )
                    return comp(node, new)

                return ReadNode(j, tuple(mk(e) for e in DIGITS))

    return comp(f, gs)


@st.composite
def l1_ball(draw, n):
    """n multiples of 1/8 whose absolute values sum to at most 1."""
    left, out = 8, []
    for _ in range(n):
        k = draw(st.integers(-left, left))
        left -= abs(k)
        out.append(Rat(k, 8))
    return out


def lin_unary():
    return l1_ball(2).map(lambda c: lin_tree(c[:1], c[1]))


def quad_unary():
    # |u| + |v| + |w| <= 1 keeps u x^2 + v x + w inside [-1,1]
    return l1_ball(3).map(lambda c: quad_tree(*c))


def logistic_unary():
    return st.integers(0, 16).map(lambda i: logistic_tree(Rat(i, 8)))


unary_trees = st.one_of(lin_unary(), quad_unary(), logistic_unary())


@settings(max_examples=30, deadline=None)
@given(unary_trees, unary_trees, unary_trees)
def test_compose_matches_unshared_rule(f, g, h):
    shared = compose(f, (g,))
    assert same_nodes(shared, compose_unshared(f, (g,)), 9)
    nested = compose(shared, (h,))
    reference = compose_unshared(compose_unshared(f, (g,)), (h,))
    assert same_nodes(nested, reference, 9)


binary_lins = l1_ball(3).map(lambda c: lin_tree(c[:2], c[2]))


@settings(max_examples=30, deadline=None)
@given(
    binary_lins,
    st.tuples(unary_trees, unary_trees) | st.tuples(binary_lins, binary_lins),
)
def test_compose_binary_outer_matches_unshared_rule(f, gs):
    assert same_nodes(compose(f, gs), compose_unshared(f, gs), 8)


def test_compose_shares_states():
    # modulus sweeps every branch, so states met along several paths show
    # up as repeated work; 50,036 expansions when each visit got a tree
    t = compose(logistic_tree(Rat(19133, 10007)), (lin_tree([Rat(1, 2)], 0),))
    assert modulus(t, 8) == 10
    assert expansion_count(t) <= 12_000


def test_expansion_count_nary_compose(monkeypatch):
    # the feed_digit trees compose makes for a binary outer tree count too
    expansions = [0]
    plain = CTree.root

    def counted(self):
        if not self.expanded:
            expansions[0] += 1
        return plain.fget(self)

    monkeypatch.setattr(CTree, "root", property(counted))
    f = lin_tree([Rat(1, 2), Rat(1, 2)], 0)
    gs = (lin_tree([Rat(1, 3)], Rat(1, 5)), lin_tree([Rat(-2, 5)], Rat(1, 7)))
    t = compose(f, gs)
    eval_at(t, Rat(7, 10), 30)
    assert expansion_count(t) == expansions[0] > 0


def test_apply_binary():
    t = lin_tree([Rat(1, 2), Rat(1, 4)], 0)
    x, y = Rat(1, 3), Rat(-2, 3)
    ins = tuple(cauchy_to_stream(const_seq(q)) for q in (x, y))
    from sdreal.sdstream import sigma_approx

    got = sigma_approx(apply(t, ins), 20)
    assert within(got, x / 2 + y / 4, 20)


def test_modulus_constant():
    for k in range(5):
        assert modulus(constant_tree(Z), k) == 0


def test_modulus_examples():
    assert modulus(lin_tree([Rat(1, 2)], 0), 1) == 1
    assert modulus(lin_tree([Rat(1, 4)], Rat(1, 5)), 1) == 0
    with pytest.raises(DomainError):
        modulus(lin_tree([Rat(1, 2)], 0), -1)


def test_modulus_soundness_sampled():
    t = fig1_tree()
    for k in (1, 2, 4):
        m = modulus(t, k)
        prefix = [Z] * m
        outs = set()
        for d in (N, Z, P):
            s = from_digits(prefix + [d])
            outs.add(tuple(apply(t, (s,)).take(k)))
        assert len(outs) == 1


def test_check_productive():
    assert check_productive(constant_tree(Z), 10, 0)
    assert not check_productive(read_forever_tree(), 1, 100)
    assert check_productive(fig1_tree(), 8, 8)


@pytest.mark.parametrize("k_writes, max_reads", [(-1, 8), (8, -1)])
def test_check_productive_rejects_negative_bounds(k_writes, max_reads):
    with pytest.raises(DomainError, match="k_writes, max_reads >= 0"):
        check_productive(fig1_tree(), k_writes, max_reads)


def test_render_ascii():
    text = render_ascii(constant_tree(Z), 3)
    assert text.splitlines() == ["Z", "  Z", "    Z"]
    assert render_ascii(fig1_tree(), 1) == "N\n"
    assert render_ascii(fig1_tree(), 0) == ""


def test_render_fig1_shape():
    t = fig1_tree()
    lines = render_ascii(t, 2).splitlines()
    assert lines[0] == "N"
    assert lines[1].strip() == "x"  # one read node under the root write
    dot = render_dot(t, 2)
    assert dot.startswith("digraph")
    assert '[label="N"]' in dot


def test_render_depth_cap():
    with pytest.raises(DomainError):
        render_ascii(constant_tree(Z), 33)


def test_expansion_counts():
    t = lin_tree([Rat(1, 4)], Rat(1, 5))
    assert expansion_count(t) == 0
    eval_at(t, Rat(1, 3), 10)
    first = expansion_count(t)
    assert first >= 10
    eval_at(t, Rat(1, 3), 10)
    assert expansion_count(t) == first


def test_arity0_coherence():
    t = constant_tree(P, arity=0)
    assert as_stream(t).take(5) == [P] * 5
    assert apply(t, ()).take(5) == [P] * 5


def test_concurrent_expansion_idempotent():
    results = []

    def worker(tree):
        results.append(tuple(eval_at(tree, Rat(1, 3), 24) for _ in range(3)))

    t = logistic_tree(Rat(3, 2))
    threads = [threading.Thread(target=worker, args=(t,)) for _ in range(4)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert len(set(results)) == 1


@pytest.fixture
def collector_on():
    # the pause tests need the collector running; leave it as found
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    if not was_enabled:
        gc.disable()


def collections_during(fn, *args):
    """How many collections start while fn(*args) runs."""
    starts = []

    def on_gc(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.collect()
    gc.callbacks.append(on_gc)
    try:
        fn(*args)
    finally:
        gc.callbacks.remove(on_gc)
    return len(starts)


def test_eval_at_pauses_collector(collector_on):
    # 133 collections when the memo caches were rescanned mid-evaluation
    t = to_tree(parse("pow(logistic(2),40)"))
    assert collections_during(eval_at, t, Rat(7, 10), 60) <= 1


def test_modulus_pauses_collector(collector_on):
    # 69 collections without the pause
    t = compose(logistic_tree(Rat(19, 10)), (lin_tree([Rat(1, 2)], 0),))
    assert collections_during(modulus, t, 8) <= 1


def raises_when_expanded():
    def step(s):
        if s == 3:
            raise DomainError("state 3 has no step")
        return ReadStep(1, (s + 1,) * 3)

    return build_tree(DigitalSystem(1, step), 0)


def test_collector_restored_after_return_and_errors(collector_on):
    assert within(eval_at(logistic_tree(2), Rat(7, 10), 20), Rat(1, 50), 20)
    assert gc.isenabled()
    with pytest.raises(DomainError):
        eval_at(raises_when_expanded(), Rat(1, 3), 8)
    assert gc.isenabled()
    with pytest.raises(RecursionError):
        eval_at(to_tree(parse("pow(logistic(2),600)")), Rat(7, 10), 8)
    assert gc.isenabled()


def test_disabled_collector_stays_disabled(collector_on):
    gc.disable()
    t = logistic_tree(Rat(3, 2))
    eval_at(t, Rat(1, 3), 20)
    digits_at(t, Rat(1, 3), 20)
    modulus(t, 4)
    check_productive(t, 4, 8)
    integral(t, 6)
    with pytest.raises(DomainError):
        eval_at(raises_when_expanded(), Rat(1, 3), 8)
    with collector_paused():
        with collector_paused():
            pass
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_nested_pause_restores_on_exit(collector_on):
    with collector_paused():
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_digits_at():
    t = quad_tree(Rat(-2, 3), 0, Rat(-1, 3))
    assert digits_str(digits_at(t, Rat(0), 6)) == "NZPZPZ"
    with pytest.raises(DomainError):
        digits_at(t, Rat(3, 2), 4)
    with pytest.raises(DomainError):
        digits_at(lin_tree([Rat(1, 4), Rat(1, 4)], 0), Rat(0), 4)
