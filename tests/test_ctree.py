import gc
import hashlib
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdreal.ctree import (
    RENDER_MAX_NODES,
    CTree,
    DigitalSystem,
    ExpansionStats,
    ReadNode,
    WriteNode,
    apply,
    as_stream,
    build_tree,
    check_productive,
    collector_paused,
    compose,
    constant_tree,
    digits_at,
    eval_at,
    expansion_count,
    feed_digit,
    modulus,
    render_ascii,
    render_dot,
)
from sdreal.digitsys import (
    lin_tree,
    logistic_tree,
    quad_tree,
)
from sdreal.errors import DomainError, ResourceLimitError
from sdreal.exprdsl import parse, to_tree
from sdreal.integrate import integral
from oracle import Lin, Logistic, Quad, eval_exact
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
    return build_tree(DigitalSystem(1, lambda s: ReadNode(1, (s, s, s))), 0)


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


class Thunk:
    # a tree whose node a closure computes on first demand; it has no
    # memo, so the reference rules below make one per visit to a state
    __slots__ = ("_node", "_make", "arity", "stats")

    def __init__(self, make, arity, stats):
        self._node = None
        self._make = make
        self.arity = arity
        self.stats = stats

    @property
    def root(self):
        if self._node is None:
            self._node = self._make()
            self.stats.count += 1
        return self._node


def feed_unshared(t, i, d):
    # reference rule for feed_digit: one fed digit per tree and no memo;
    # where t reads input i, the node is the one the digit selects
    stats = ExpansionStats((t.stats,))

    def expand(sub):
        node = sub.root
        if isinstance(node, WriteNode):
            return WriteNode(node.digit, fed(node.next))
        if node.index == i:
            return node.branches[int(d) + 1].root
        return ReadNode(node.index, tuple(fed(b) for b in node.branches))

    def fed(sub):
        return Thunk(lambda: expand(sub), t.arity, stats)

    return fed(t)


def compose_unshared(f, gs):
    # reference rule without sharing: a fresh Thunk per visit to a state,
    # so the result unfolds as a tree; compose must equal it node for node.
    # fpos is a tree or, after an f-read, the read node itself
    gs = tuple(gs)
    m = gs[0].arity
    stats = ExpansionStats(parents=(f.stats,) + tuple(g.stats for g in gs))

    def comp(fpos, cur):
        return Thunk(lambda: expand(fpos, cur), m, stats)

    def expand(fpos, cur):
        node = fpos if isinstance(fpos, (WriteNode, ReadNode)) else fpos.root
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
                        gnode.branches[int(e) + 1] if k == i
                        else feed_unshared(g, j, e)
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
ternary_lins = l1_ball(4).map(lambda c: lin_tree(c[:3], c[3]))


@settings(max_examples=40, deadline=None)
@given(
    st.tuples(
        binary_lins,
        st.tuples(unary_trees, unary_trees)
        | st.tuples(binary_lins, binary_lins),
    )
    # three inner trees: a read queues its digit on two siblings
    | st.tuples(
        ternary_lins,
        st.tuples(unary_trees, unary_trees, unary_trees)
        | st.tuples(binary_lins, binary_lins, binary_lins),
    )
)
def test_compose_binary_outer_matches_unshared_rule(case):
    f, gs = case
    assert same_nodes(compose(f, gs), compose_unshared(f, gs), 8)


@settings(max_examples=30, deadline=None)
@given(
    unary_trees.map(lambda t: (t, 1)) | binary_lins.map(lambda t: (t, 2)),
    st.lists(st.sampled_from(DIGITS), min_size=1, max_size=3),
)
def test_feed_digit_matches_unshared_rule(tree_arity, digits):
    # a tree fed several digits reads them in the order they were fed
    t, arity = tree_arity
    fed, reference = t, t
    for n, d in enumerate(digits):
        i = 1 + n % arity
        fed, reference = feed_digit(fed, i, d), feed_unshared(reference, i, d)
        assert same_nodes(fed, reference, 7)


def test_compose_shares_states():
    # modulus sweeps every branch, so states met along several paths show
    # up as repeated work; 50,036 expansions when each visit got a tree
    t = compose(logistic_tree(Rat(19133, 10007)), (lin_tree([Rat(1, 2)], 0),))
    assert modulus(t, 8) == 10
    assert expansion_count(t) <= 12_000


def nary_example():
    f = lin_tree([Rat(1, 2), Rat(1, 2)], 0)
    gs = (logistic_tree(Rat(19, 10)), lin_tree([Rat(-2, 5)], Rat(1, 7)))
    return compose(f, gs)


def test_compose_nary_shares_fed_states():
    # 87,236 expansions when every fed subtree was a fresh, unmemoized tree
    t = nary_example()
    assert modulus(t, 6) == 10
    assert expansion_count(t) <= 25_000


def integral_answer(t):
    res = integral(t, 12)
    return res.value, res.nodes_visited


# exact work through the public API: sharing in the unfold, in compose and
# in fed states shows up here as a changed count, in either direction
WORK_PINS = {
    "eval_pow_logistic_100": (
        lambda: to_tree(parse("pow(logistic(2),100)")),
        lambda t: eval_at(t, Rat(7, 10), 100),
        Rat(1008550774065780194036545699607, 2**100),
        67_934,
    ),
    "digits_3_layer_chain": (
        lambda: to_tree(
            parse("lin(1/2,1/2) o (quad(1/2,1/4,0) o logistic(19/10))")
        ),
        lambda t: digits_str(digits_at(t, Rat(-7, 10), 60)),
        "PZZZZZZNZZZPZZPZZNZZPZPPZZZZZPZZNZPZZZZNZZZNZZZPZZZNZZZPPZZN",
        493,
    ),
    "modulus_compose": (
        lambda: compose(
            logistic_tree(Rat(19, 10)), (lin_tree([Rat(1, 2)], 0),)
        ),
        lambda t: modulus(t, 8),
        10,
        7_900,
    ),
    "modulus_nary_compose": (
        nary_example,
        lambda t: modulus(t, 6),
        10,
        16_683,
    ),
    "integral_logistic": (
        lambda: logistic_tree(Rat(3, 2)),
        integral_answer,
        (Rat(-1, 131072), 18_277),
        13_751,
    ),
}


@pytest.mark.parametrize("case", sorted(WORK_PINS))
def test_work_pinned(case):
    build, run, answer, expansions = WORK_PINS[case]
    t = build()
    assert run(t) == answer
    assert expansion_count(t) == expansions


def test_expansion_count_nary_compose(monkeypatch):
    # a binary outer tree's composition keeps the digits fed to an inner
    # tree in its own state, so every expansion goes through CTree.root,
    # the one unfold, and the counter wrapped around it sees them all
    expansions = [0]

    def counted(plain):
        def root(self):
            if not self.expanded:
                expansions[0] += 1
            return plain.fget(self)

        return property(root)

    monkeypatch.setattr(CTree, "root", counted(CTree.root))
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


@pytest.mark.parametrize(
    "sweep",
    [modulus, lambda t, k: check_productive(t, k, 4)],
    ids=["modulus", "check_productive"],
)
def test_sweep_past_recursion_limit_is_refused(sweep):
    # each write nests a stack frame, so k = 10^6 can never finish: refused
    # before the k + 1 per-level memos are allocated or a node expanded
    t = lin_tree([Rat(1, 2)], 0)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError, match="recursion limit"):
            sweep(t, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert not t.expanded


@pytest.mark.parametrize(
    "sweep, value",
    [(modulus, 400), (lambda t, k: check_productive(t, k, 3), True)],
    ids=["modulus", "check_productive"],
)
def test_sweep_nests_a_frame_per_node(sweep, value, collector_on):
    # a write and a read per output digit: two frames a digit fit k = 400
    # in the default recursion limit; k = 900 does not, and is a resource
    # limit, not a bare RecursionError
    assert sweep(lin_tree([Rat(1, 2)], 0), 400) == value
    with pytest.raises(ResourceLimitError, match="recursion limit"):
        sweep(lin_tree([Rat(1, 2)], 0), 900)
    assert gc.isenabled()


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


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the depth-6 ASCII rendering and of the sorted lines of the
# depth-6 DOT rendering, recorded when each renderer had its own walk
RENDERED_AT_DEPTH_6 = {
    "quad(-2/3,0,-1/3)": (
        "38c6f0eb4d062f28ba161369a9266a47628f07375c027a53c963fccc1b09eed5",
        "865f59938726bbfd963b33eee75c2788512c9660b51fd0408b64ad1322324e1b",
    ),
    "pow(logistic(2),3)": (
        "a0acb629a555f45fa795d964bdf517b13cfb2c2e67a8cb3ac20b768192b8e077",
        "12f39de5aa1e5c2321bc5cce8acea5abbb4985b2fee2087ef7b74b6bbd2ceb6e",
    ),
    "lin(1/2,0) o logistic(3/2)": (
        "e87109094823166f3cc80154bc4aa17d10ae8a1688be09fa4aded48ddef12b70",
        "576e8d495f78614ef1e8f42fd8b0fc9a8eaf67eefb7b1ab3e1ba8b497d6fba52",
    ),
}


@pytest.mark.parametrize("expr", sorted(RENDERED_AT_DEPTH_6))
def test_render_output_pinned(expr):
    ascii_hash, dot_hash = RENDERED_AT_DEPTH_6[expr]
    assert sha256(render_ascii(to_tree(parse(expr)), 6)) == ascii_hash
    dot = render_dot(to_tree(parse(expr)), 6)
    assert sha256("\n".join(sorted(dot.splitlines()))) == dot_hash


@pytest.mark.parametrize("render", [render_ascii, render_dot])
def test_render_node_limit(render):
    # output grows as 3^depth: depth 20 of this tree has millions of nodes
    t = to_tree(parse("pow(logistic(2),3)"))
    with pytest.raises(ResourceLimitError, match="100000 nodes"):
        render(t, 20)
    assert expansion_count(t) <= RENDER_MAX_NODES


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
    (gc.enable if was_enabled else gc.disable)()


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
        return ReadNode(1, (s + 1,) * 3)

    return build_tree(DigitalSystem(1, step), 0)


def test_collector_restored_after_return_and_errors(collector_on):
    assert within(eval_at(logistic_tree(2), Rat(7, 10), 20), Rat(1, 50), 20)
    assert gc.isenabled()
    with pytest.raises(DomainError):
        eval_at(raises_when_expanded(), Rat(1, 3), 8)
    assert gc.isenabled()
    with pytest.raises(ResourceLimitError):
        eval_at(to_tree(parse("pow(logistic(2),600)")), Rat(7, 10), 8)
    assert gc.isenabled()


def _deep():
    return to_tree(parse("pow(logistic(2),600)"))


@pytest.mark.parametrize(
    "walk",
    [
        lambda: eval_at(_deep(), Rat(7, 10), 8),
        lambda: digits_at(_deep(), Rat(7, 10), 8),
        lambda: integral(_deep(), 8),
        lambda: render_ascii(_deep(), 3),
        lambda: render_dot(_deep(), 3),
        # no composition: the integration fold nests a frame per read
        lambda: integral(lin_tree([Rat(1, 2)], 0), 2000),
    ],
    ids=["eval_at", "digits_at", "integral", "render_ascii", "render_dot",
         "integral_reads"],
)
def test_walk_past_recursion_limit_is_a_resource_limit(walk, collector_on):
    # 600 composed layers nest two frames each: every walk that outgrows
    # the stack ends in the library's own error, collector switched back on
    with pytest.raises(ResourceLimitError, match="recursion limit"):
        walk()
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
