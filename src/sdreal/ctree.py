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
each (f-position, pending input digits, inner trees) state owns one tree
object, so paths that meet in a state expand it once.

Trees and families.  Every tree is one state of a digital system: a step
maps a state to a write or read node whose children are successor states.
`build_tree` gives each system its family, a slotless CTree subclass whose
class attributes (arity, step, memo, stats) all its trees share, so a tree
stores only its state and cached node.  `CTree.root` is the one unfold: it
calls the step once and looks each successor state up in the family's memo.
`lin_tree`, `quad_tree`, `tree_from_modulus`, `compose`, `feed_digit` and
`constant_tree` are all such systems.
"""

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from sys import getrecursionlimit
from typing import Callable

from .errors import DomainError, ResourceLimitError
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


@dataclass(frozen=True)
class DigitalSystem:
    """step(state) returns a fresh node naming successor states in place
    of subtrees: WriteNode(digit, state) or ReadNode(index, (s_N, s_Z,
    s_P)).  The unfold swaps those states for trees in that very node, so
    the node keeps its class (a MirrorRead stays one)."""

    arity: int
    step: Callable


class CTree:
    """n-ary continuity tree: one state of a digital system, its node
    expanded on first demand and cached.  The family class `build_tree`
    makes holds arity, step, memo and stats.  `root` calls the step itself,
    so a walk through n composed layers nests two frames per layer."""

    __slots__ = ("_node", "state")

    def __init__(self, state):
        self._node = None
        self.state = state

    @property
    def root(self):
        node = self._node
        if node is None:
            cls = self.__class__
            memo = cls.memo
            node = cls.step(self.state)
            if type(node) is WriteNode:
                s = node.next
                node.next = memo.get(s) or memo.setdefault(s, cls(s))
            else:
                n, z, p = node.branches
                node.branches = (
                    memo.get(n) or memo.setdefault(n, cls(n)),
                    memo.get(z) or memo.setdefault(z, cls(z)),
                    memo.get(p) or memo.setdefault(p, cls(p)),
                )
            self._node = node
            cls.stats.count += 1
        return node

    @property
    def expanded(self):
        return self._node is not None


def build_tree(system, start, parents=()):
    """Unfold a digital system from `start` into a lazy tree.

    States key a memo, so they must be hashable: each distinct state owns
    exactly one tree object, cached after its first expansion.  `parents`
    are the stats of the trees the system's states hold, so that
    `expansion_count` includes their expansions too.
    """
    cls = type("CTree", (CTree,), dict(
        __slots__=(), arity=system.arity, step=system.step, memo={},
        stats=ExpansionStats(parents),
    ))
    return cls.memo.setdefault(start, cls(start))


@contextmanager
def collector_paused():
    """The guard around every tree walk.  Disable the (process-wide) cyclic
    garbage collector for the block; on any exit, re-enable it only if it
    was enabled on entry.  Expanded nodes stay cached: collecting
    mid-expansion rescans them, frees nothing.  Walks nest frames per node
    or composed layer, so a walk that outgrows the stack, a RecursionError
    in the block, is a resource limit."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    except RecursionError:
        raise ResourceLimitError(
            "a tree walk exceeded the recursion limit "
            f"({getrecursionlimit()} frames)"
        ) from None
    finally:
        if was_enabled:
            gc.enable()


def expansion_count(t):
    """Total node expansions attributable to this tree so far."""
    return t.stats.total()


def constant_tree(digit, arity=1):
    """The one-node cyclic tree writing `digit` forever."""
    system = DigitalSystem(arity, lambda d: WriteNode(d, d))
    return build_tree(system, SignedDigit(digit))


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


def _advance(g, queues):
    """g moved past the reads its queued input digits answer, as (g, node,
    queues) with node = g.root a write or a read of an input whose queue
    is empty.  queues[j] holds the digits fed to input j+1, first first."""
    node = g.root
    while type(node) is not WriteNode and queues[node.index - 1]:
        j = node.index - 1
        g = node.branches[queues[j][0] + 1]
        queues = queues[:j] + (queues[j][1:],) + queues[j + 1 :]
        node = g.root
    return g, node, queues


def feed_digit(t, i, d):
    """Pre-compose input i with x -> (x+d)/2: the tree that behaves as if
    digit d had already been read from input i.  A digital system over
    (g, queues), g with its unread fed digits, as in `compose`.
    """
    if not 1 <= i <= t.arity:
        raise DomainError(f"input index {i} out of range 1..{t.arity}")

    def step(state):
        g, node, queues = _advance(*state)
        if type(node) is WriteNode:
            return WriteNode(node.digit, (node.next, queues))
        # this input's queue is empty, so a unary g is fed no more and its
        # MirrorRead stays one
        succ = tuple((b, queues) for b in node.branches)
        return type(node)(node.index, succ)

    queues = ((),) * (i - 1) + ((SignedDigit(d),),) + ((),) * (t.arity - i)
    return build_tree(DigitalSystem(t.arity, step), (t, queues), (t.stats,))


def compose(f, gs):
    """The tree realizing f(g_1,...,g_n); all g_i share one arity m.

    A digital system over the flat states (fpos, pending, g_1, ..., g_n):
    the tree at the current position in f, the digits fed to the inner
    trees and not yet read (None until a digit is fed, then pending[k] is
    g_k's queues, see `_advance`), and the inner trees, each a node of an
    unfed tree.  f-writes are emitted; an f-read of input i moves g_i past
    its pending reads: a g_i-write resolves the read, a g_i-read of input
    j is emitted, and each successor takes g_i's branch and queues its
    digit on input j of every other g_k.  States hash by tree identity and
    queue contents, so a state reached along several paths expands once.
    """
    gs = tuple(gs)
    if len(gs) != f.arity:
        raise DomainError(f"need {f.arity} inner trees, got {len(gs)}")
    if not gs:
        raise DomainError("composition with zero inner trees is not defined")
    m = gs[0].arity
    if any(g.arity != m for g in gs):
        raise DomainError("inner trees must share one arity")
    siblings = len(gs) > 1
    unfed = (((),) * m,) * len(gs)

    def fed(pending, i, j, e):  # e queued on input j+1 of every g_k but g_i
        return tuple(
            qs if k == i else qs[:j] + (qs[j] + (e,),) + qs[j + 1 :]
            for k, qs in enumerate(pending or unfed)
        )

    def step(state):
        fpos, pending, *cur = state
        while True:
            node = fpos.root
            if type(node) is WriteNode:
                return WriteNode(node.digit, (node.next, pending, *cur))
            i = node.index - 1
            if pending is None:
                gnode = cur[i].root
            else:
                cur[i], gnode, qs = _advance(cur[i], pending[i])
                pending = pending[:i] + (qs,) + pending[i + 1 :]
            if type(gnode) is WriteNode:
                fpos = node.branches[gnode.digit + 1]
                cur[i] = gnode.next
                continue
            j = gnode.index
            if siblings:
                pn, pz, pp = (fed(pending, i, j - 1, e) for e in DIGITS)
            else:
                pn = pz = pp = pending
            n, z, p = gnode.branches
            cur[i] = n
            sn = (fpos, pn, *cur)
            cur[i] = z
            sz = (fpos, pz, *cur)
            cur[i] = p
            return ReadNode(j, (sn, sz, (fpos, pp, *cur)))

    parents = (f.stats,) + tuple(g.stats for g in gs)
    return build_tree(DigitalSystem(m, step), (f, None, *gs), parents)


def check_depth(depth, what):
    """Refuse, before any work, a walk that nests `depth` stack frames
    past the recursion limit: it could never finish."""
    limit = getrecursionlimit()
    if depth > limit:
        raise ResourceLimitError(
            f"{what} {depth} exceeds the recursion limit ({limit} frames)"
        )


def modulus(t, k):
    """Max number of reads on any path before the k-th write.

    Inputs agreeing on that many digits give outputs agreeing on k digits.
    Memoized per (node, remaining writes) to keep shared subtrees cheap.
    """
    if t.arity != 1 or k < 0:
        raise DomainError("modulus is defined for unary trees and k >= 0")
    check_depth(k, "modulus depth")  # a frame per write swept
    # per-k dicts keyed by id: int keys, unlike tuples, are not gc-tracked
    memo = [{} for _ in range(k + 1)]

    def go(node, k):
        if k == 0:
            return 0
        seen = memo[k]
        got = seen.get(id(node))
        if got is not None:
            return got
        if type(node) is WriteNode:
            res = go(node.next.root, k - 1)
        else:
            n, z, p = node.branches
            res = 1 + max(go(n.root, k), go(z.root, k), go(p.root, k))
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
    check_depth(k_writes, "productivity depth")  # a frame per write
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
        if type(node) is WriteNode:
            res = go(node.next.root, writes_left - 1, max_reads)
        elif reads_left == 0:
            res = False
        else:
            n, z, p = node.branches
            res = (
                go(n.root, writes_left, reads_left - 1)
                and go(z.root, writes_left, reads_left - 1)
                and go(p.root, writes_left, reads_left - 1)
            )
        seen[key] = res
        return res

    with collector_paused():
        return go(t.root, k_writes, max_reads)


RENDER_MAX_NODES = 100_000


def _walk(t, depth):
    """Pre-order (level, number, parent number, node) over the first `depth`
    levels of t, branches in N, Z, P order; nodes are numbered 1, 2, ...
    as visited, and the root's parent number is 0.  Output grows as
    3^depth, so visiting more than RENDER_MAX_NODES nodes is a resource
    limit."""
    if depth > 32:
        raise DomainError("render depth capped at 32")
    stack = [(0, 0, t)] if depth > 0 else []
    count = 0
    while stack:
        level, parent, tree = stack.pop()
        count += 1
        if count > RENDER_MAX_NODES:
            raise ResourceLimitError(
                f"rendering exceeds {RENDER_MAX_NODES} nodes"
            )
        node = tree.root
        yield level, count, parent, node
        if level + 1 < depth:
            kids = (node.next,) if type(node) is WriteNode else node.branches
            stack.extend((level + 1, count, k) for k in reversed(kids))


def _label(node, arity):
    """A write's digit; a read's ``x<i>``, empty for unary trees."""
    if isinstance(node, WriteNode):
        return node.digit.name
    return f"x{node.index}" if arity > 1 else ""


def render_ascii(t, depth):
    """Indented ASCII rendering of the first `depth` node levels.

    Write nodes show their digit; read nodes show ``x<i>`` (bare ``x``
    for unary trees); branches appear in N, Z, P order, two characters
    of indent per level."""
    with collector_paused():
        lines = [
            "  " * level + (_label(node, t.arity) or "x")
            for level, _, _, node in _walk(t, depth)
        ]
    return "\n".join(lines) + ("\n" if lines else "")


def render_dot(t, depth):
    """DOT rendering of the first `depth` levels: write nodes are circles
    labelled N/Z/P, read nodes circles labelled ``x<i>`` (unlabelled for
    unary trees), edges in N, Z, P order."""
    lines = ["digraph ctree {", "  node [shape=circle];"]
    with collector_paused():
        for _, n, parent, node in _walk(t, depth):
            lines.append(f'  n{n} [label="{_label(node, t.arity)}"];')
            if parent:
                lines.append(f"  n{parent} -> n{n};")
    lines.append("}")
    return "\n".join(lines) + "\n"
