"""Continuity trees: memoized non-wellfounded trees denoting uniformly
continuous maps [-1,1]^n -> [-1,1].

A tree node either writes a digit (one child) or reads one digit of input
i (three children, one per digit).  Running the tree against input streams
yields the output stream; along every path infinitely many writes must
occur (productivity), which `check_productive` verifies in bounded form.

Trees are values: the node behind a CTree is computed on first demand and
cached, and builders share subtrees freely, so what unfolds at runtime is
a DAG.  That cache is the memoization the whole package leans on —
repeating an evaluation expands nothing new.  Composition shares too:
each (f-position, inner trees) state owns one tree object, so paths that
meet in a state expand it once.

Trees and families.  Every tree is one state of a family: a slotless
CTree subclass made by `family`, whose class attributes (arity, stats and,
when states are shared, memo) all its trees share.  A tree stores only its
cached node and its state, and `_expand` — computing the node from the
state — is the one hook a family defines.  `digitsys.build_tree` is the
public way to define a tree; CTree itself is not constructed directly.
"""

import gc
from contextlib import contextmanager

from .errors import DomainError
from .sdstream import (
    DIGITS,
    DigitStream,
    SignedDigit,
    cauchy_to_stream,
    const_seq,
    sigma_approx,
)


class WriteNode:
    __slots__ = ("digit", "next")

    def __init__(self, digit, next):
        self.digit = digit
        self.next = next


class ReadNode:
    __slots__ = ("index", "branches")

    def __init__(self, index, branches):
        self.index = index
        self.branches = branches  # (N-branch, Z-branch, P-branch)

    def branch(self, d):
        return self.branches[int(d) + 1]


class MirrorRead(ReadNode):
    """A read whose N and P branches are mirror images: the P branch
    realizes x -> g(-x) where the N branch realizes g, so both have the
    same integral.  Builders that can tell return it for such reads."""

    __slots__ = ()


class ExpansionStats:
    """Counts node expansions for one tree's cache, transitively.

    A derived tree (compose, feed_digit, ...) records the trees it was
    built from; `total` sums over that DAG without double counting, so it
    reflects every expansion an evaluation of the derived tree can cause.
    """

    __slots__ = ("count", "parents")

    def __init__(self, parents=()):
        self.count = 0
        self.parents = tuple(parents)

    def total(self):
        seen = set()
        todo = [self]
        acc = 0
        while todo:
            s = todo.pop()
            if id(s) in seen:
                continue
            seen.add(id(s))
            acc += s.count
            todo.extend(s.parents)
        return acc


class CTree:
    """n-ary continuity tree: one state of a family, with deferred, cached
    root expansion.  Subclasses made by `family` supply arity, stats and
    `_expand`, the node of `self.state`."""

    __slots__ = ("_node", "state")
    memo = None

    def __init__(self, state):
        self._node = None
        self.state = state

    @classmethod
    def _at(cls, state):
        """The family's one tree for `state`; without a memo, a fresh one."""
        memo = cls.memo
        if memo is None:
            return cls(state)
        t = memo.get(state)
        if t is None:
            t = memo[state] = cls(state)
        return t

    @property
    def root(self):
        node = self._node
        if node is None:
            node = self._node = self._expand()
            self.stats.count += 1
        return node

    @property
    def expanded(self):
        return self._node is not None


def family(base, arity, stats, **attrs):
    """A new family of `base` trees: a slotless subclass holding arity,
    stats and `attrs` (such as memo) as class attributes, so each tree
    stores only its node and state."""
    attrs.update(__slots__=(), arity=arity, stats=stats)
    return type(base.__name__, (base,), attrs)


@contextmanager
def collector_paused():
    """Disable the (process-wide) cyclic garbage collector for the block;
    on any exit, re-enable it only if it was enabled on entry.  Expanded
    nodes stay cached: collecting mid-expansion rescans them, frees nothing."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def expansion_count(t):
    """Total node expansions attributable to this tree so far."""
    return t.stats.total()


class _Constant(CTree):
    __slots__ = ()

    def _expand(self):
        return WriteNode(self.state, self)


def constant_tree(digit, arity=1):
    """The one-node cyclic tree writing `digit` forever."""
    return family(_Constant, arity, ExpansionStats())(SignedDigit(digit))


def apply(t, inputs):
    """Run the tree as a stream transformer.

    Writes emit digits; reads pop one digit from the indexed input and
    select the branch.  The inputs tuple length must equal the arity.
    """
    inputs = tuple(inputs)
    if len(inputs) != t.arity:
        raise DomainError(f"expected {t.arity} inputs, got {len(inputs)}")

    def step(tree, ins):
        node = tree.root
        while isinstance(node, ReadNode):
            i = node.index - 1
            s = ins[i]
            branch = node.branches[int(s.head) + 1]
            ins = ins[:i] + (s.tail,) + ins[i + 1 :]
            node = branch.root
        nxt, rest = node.next, ins
        return DigitStream(node.digit, lambda: step(nxt, rest))

    return step(t, inputs)


def as_stream(t):
    """A 0-ary tree read off as the digit stream it is."""
    return apply(t, ())


def _at_point(t, q):
    seq = const_seq(q)
    if t.arity != 1:
        raise DomainError("evaluation at a point needs a unary tree")
    return apply(t, (cauchy_to_stream(seq),))


def eval_at(t, q, n):
    """Approximate the realized unary function at rational q to 2^-n."""
    with collector_paused():
        return sigma_approx(_at_point(t, q), n)


def digits_at(t, q, count):
    """The first `count` output digits of unary t at rational q."""
    with collector_paused():
        return _at_point(t, q).take(count)


def feed_digit(t, i, d):
    """Pre-compose input i with x -> (x+d)/2: the tree that behaves as if
    digit d had already been read from input i.

    Writes commute out; a read on input i consumes the digit and feeding
    stops on that path; reads on other inputs commute branch-wise.
    """
    if not 1 <= i <= t.arity:
        raise DomainError(f"input index {i} out of range 1..{t.arity}")
    fed = family(_Fed, t.arity, ExpansionStats(parents=(t.stats,)))
    return fed((t, i, SignedDigit(d)))


class _Fed(CTree):
    """The state (sub, i, d): tree sub with digit d fed to input i.  A
    family's expansions count in its stats, which compose shares with its
    own family so that its stats cover the fed trees."""

    __slots__ = ()

    def _expand(self):
        cls = self.__class__
        sub, i, d = self.state
        node = sub.root
        if isinstance(node, WriteNode):
            return WriteNode(node.digit, cls((node.next, i, d)))
        if node.index == i:
            return node.branch(d).root
        return ReadNode(node.index, tuple(cls((b, i, d)) for b in node.branches))


class _CompTree(CTree):
    """One state (fpos, cur) of a composition: fpos is the tree at the
    current position in f, cur the tuple of current inner trees.

    Each composition is a family (see compose) whose memo, keyed on object
    identity, maps each state reached so far to its one tree object, so
    paths that meet in a state share its expansion; `fed` is the family of
    the inner trees it feeds digits to.
    """

    __slots__ = ()

    def _expand(self):
        cls = self.__class__
        fpos, cur = self.state
        while True:
            node = fpos.root
            if isinstance(node, WriteNode):
                return WriteNode(node.digit, cls._at((node.next, cur)))
            i = node.index - 1
            gnode = cur[i].root
            if isinstance(gnode, WriteNode):
                fpos = node.branches[int(gnode.digit) + 1]
                cur = cur[:i] + (gnode.next,) + cur[i + 1 :]
                continue
            j = gnode.index
            branches = []
            for e in DIGITS:
                new = tuple(
                    gnode.branch(e) if k == i else cls.fed((g, j, e))
                    for k, g in enumerate(cur)
                )
                branches.append(cls._at((fpos, new)))
            return ReadNode(j, tuple(branches))


def compose(f, gs):
    """The tree realizing f(g_1,...,g_n); all g_i share one arity m.

    Coiteration over (position in f, current gs): f-writes are emitted;
    an f-read of input i inspects g_i — a g_i-write resolves the read
    immediately, a g_i-read is emitted, with every other g_k pre-composed
    with the digit just consumed (feed_digit).  Each state owns exactly
    one tree object, so the composed tree unfolds as a DAG and a state
    reached along several paths is expanded once.
    """
    gs = tuple(gs)
    if len(gs) != f.arity:
        raise DomainError(f"need {f.arity} inner trees, got {len(gs)}")
    if not gs:
        raise DomainError("composition with zero inner trees is not defined")
    m = gs[0].arity
    if any(g.arity != m for g in gs):
        raise DomainError("inner trees must share one arity")

    stats = ExpansionStats(parents=(f.stats,) + tuple(g.stats for g in gs))
    fed = family(_Fed, m, stats)
    return family(_CompTree, m, stats, memo={}, fed=fed)._at((f, gs))


def modulus(t, k):
    """Max number of reads on any path before the k-th write.

    Inputs agreeing on that many digits give outputs agreeing on k digits.
    Memoized per (node, remaining writes) to keep shared subtrees cheap.
    """
    if t.arity != 1 or k < 0:
        raise DomainError("modulus is defined for unary trees and k >= 0")
    # per-k dicts keyed by id: int keys, unlike tuples, are not gc-tracked
    memo = [{} for _ in range(k + 1)]

    def go(node, k):
        if k == 0:
            return 0
        seen = memo[k]
        got = seen.get(id(node))
        if got is not None:
            return got
        if isinstance(node, WriteNode):
            res = go(node.next.root, k - 1)
        else:
            res = 1 + max(go(b.root, k) for b in node.branches)
        seen[id(node)] = res
        return res

    with collector_paused():
        return go(t.root, k)


def check_productive(t, k_writes, max_reads):
    """Bounded productivity check: along every path each of the first
    `k_writes` writes arrives within `max_reads` consecutive reads.
    Returns False (never diverges) when the bound is exceeded."""
    if k_writes < 0 or max_reads < 0:
        raise DomainError("check_productive needs k_writes, max_reads >= 0")
    # per-writes_left dicts keyed by ints, which the collector does not track
    memo = [{} for _ in range(k_writes + 1)]
    stride = max_reads + 1

    def go(node, writes_left, reads_left):
        if writes_left == 0:
            return True
        seen = memo[writes_left]
        key = id(node) * stride + reads_left
        got = seen.get(key)
        if got is not None:
            return got
        if isinstance(node, WriteNode):
            res = go(node.next.root, writes_left - 1, max_reads)
        elif reads_left == 0:
            res = False
        else:
            res = all(
                go(b.root, writes_left, reads_left - 1) for b in node.branches
            )
        seen[key] = res
        return res

    with collector_paused():
        return go(t.root, k_writes, max_reads)


def _read_label(node, arity):
    return f"x{node.index}" if arity > 1 else ""


def render_ascii(t, depth):
    """Indented ASCII rendering of the first `depth` node levels.

    Write nodes show their digit; read nodes show ``x<i>`` (bare ``x``
    for unary trees); branches appear in N, Z, P order, two characters
    of indent per level."""
    if depth > 32:
        raise DomainError("render depth capped at 32")
    lines = []

    def go(tree, level):
        if level >= depth:
            return
        node = tree.root
        pad = "  " * level
        if isinstance(node, WriteNode):
            lines.append(pad + node.digit.name)
            go(node.next, level + 1)
        else:
            label = _read_label(node, t.arity) or "x"
            lines.append(pad + label)
            for b in node.branches:
                go(b, level + 1)

    go(t, 0)
    return "\n".join(lines) + ("\n" if lines else "")


def render_dot(t, depth):
    """DOT rendering of the first `depth` levels: write nodes are circles
    labelled N/Z/P, read nodes circles labelled ``x<i>`` (unlabelled for
    unary trees), edges in N, Z, P order."""
    if depth > 32:
        raise DomainError("render depth capped at 32")
    lines = ["digraph ctree {", "  node [shape=circle];"]
    counter = [0]

    def fresh():
        counter[0] += 1
        return f"n{counter[0]}"

    def go(tree, level):
        name = fresh()
        node = tree.root
        if isinstance(node, WriteNode):
            lines.append(f'  {name} [label="{node.digit.name}"];')
            if level + 1 < depth:
                child = go(node.next, level + 1)
                lines.append(f"  {name} -> {child};")
        else:
            label = _read_label(node, t.arity)
            lines.append(f'  {name} [label="{label}"];')
            if level + 1 < depth:
                for b in node.branches:
                    child = go(b, level + 1)
                    lines.append(f"  {name} -> {child};")
        return name

    if depth > 0:
        go(t, 0)
    lines.append("}")
    return "\n".join(lines) + "\n"
