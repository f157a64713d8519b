"""Certified definite integration of unary trees over [-1,1].

The recursion mirrors the two identities the integral satisfies: a write
of d contributes d plus half the integral of the continuation, and a read
splits [-1,1] at 0, averaging the N and P branches.  The Z branch is
*never* descended — the split is binary, into the images of x -> (x-1)/2
and x -> (x+1)/2, not a trisection.  Precision k costs an error of at
most 2^(1-k); k = 0 returns 0 with bound 2.

Both entries carry dyadic values as (numerator, 2-exponent) integer pairs
and walk write chains iteratively, under ctree.collector_paused.
`integral` folds the tree itself: every node it expands stays alive in its
family's memo, so a repeat call expands nothing.  `integral_once` folds
the outermost system's states through its step and builds no tree for
them, so it retains nothing once it returns; a read it reaches at a
(state, precision) pair already folded is counted and not descended,
which makes finite-state folds linear.  The two fold bodies are the one
duplication: sharing a per-visit call would slow the cached fold.
"""

from collections import namedtuple

from .ctree import MirrorRead, WriteNode, collector_paused
from .errors import DomainError, ResourceLimitError
from .rationals import Rat


# value: the exact rational; error_bound: 2^(1-k)
IntegralResult = namedtuple("IntegralResult", "value error_bound nodes_visited")


def _over_budget(limit):
    return ResourceLimitError(f"integration exceeded the {limit}-node budget")


def _integrate(fold, t, k, max_nodes):
    """Check the arguments, run fold(t, k, limit) -> (num, p, budget left)
    with the collector paused, and check the budget once more, so that a
    write-only path counts against it too."""
    if t.arity != 1:
        raise DomainError("integral is defined for unary trees")
    if k < 0:
        raise DomainError("precision must be >= 0")
    limit = max_nodes if max_nodes is not None else 1 << 62
    num, p, budget = 0, 0, limit
    if k:
        with collector_paused():
            num, p, budget = fold(t, k, limit)
    if budget < 0:
        raise _over_budget(limit)
    return IntegralResult(Rat(num, 1 << p), Rat(2, 2**k), limit - budget)


def _tree_fold(t, k, limit):
    budget = limit

    def fold(tree, k):
        # returns (num, p) with value = num / 2^p; a chain of digits
        # d_0..d_{m-1} over residual r contributes sum d_i 2^-i + r 2^-m
        nonlocal budget
        acc = 0
        m = 0
        # skip the property call when cached: nodes are never falsy
        node = tree._node or tree.root
        while type(node) is WriteNode:
            acc = acc + acc + node.digit
            m += 1
            k -= 1
            if k == 0:
                budget -= m
                return acc + acc, m
            tree = node.next
            node = tree._node or tree.root
        budget -= m + 1
        if budget < 0:
            raise _over_budget(limit)
        bn, _, bp = node.branches
        if type(node) is MirrorRead:
            # x -> g(-x) has the same integral, digit for digit, so the
            # mirrored branch pair folds once
            num, p = fold(bn, k)
        else:
            nn, pn = fold(bn, k)
            np_, pp = fold(bp, k)
            if pn > pp:
                p = pn + 1
                num = nn + (np_ << (pn - pp))
            else:
                p = pp + 1
                num = (nn << (pp - pn)) + np_
        if m:
            return (acc << (p + 1)) + num, p + m
        return num, p

    return (*fold(t, k), budget)


def _state_fold(t, k, limit):
    # _tree_fold on states: the step's nodes name successor states, and
    # reads memoize their (num, p) per remaining precision, as modulus does
    step = type(t).step
    memo = [{} for _ in range(k + 1)]
    budget = limit

    def fold(state, k):
        nonlocal budget
        acc = 0
        m = 0
        node = step(state)
        while type(node) is WriteNode:
            acc = acc + acc + node.digit
            m += 1
            k -= 1
            if k == 0:
                budget -= m
                return acc + acc, m
            state = node.next
            node = step(state)
        budget -= m + 1
        if budget < 0:
            raise _over_budget(limit)
        seen = memo[k]
        got = seen.get(state)
        if got is None:
            bn, _, bp = node.branches
            if type(node) is MirrorRead:
                got = fold(bn, k)
            else:
                nn, pn = fold(bn, k)
                np_, pp = fold(bp, k)
                if pn > pp:
                    got = nn + (np_ << (pn - pp)), pn + 1
                else:
                    got = (nn << (pp - pn)) + np_, pp + 1
            seen[state] = got
        if m:
            num, p = got
            return (acc << (p + 1)) + num, p + m
        return got

    return (*fold(t.state, k), budget)


def integral(t, k, max_nodes=None):
    """Approximate the integral of the realized function over [-1,1] to
    within 2^(1-k).

    `max_nodes` caps the nodes the fold visits, writes included: reads
    check it as they go, write-only paths once the fold returns.  The
    tree keeps every node the fold expands, so a repeat call is cheap.
    """
    return _integrate(_tree_fold, t, k, max_nodes)


def integral_once(t, k, max_nodes=None):
    """`integral` for a one-shot call: the same value and bound, with
    nothing of t's own family expanded or retained (inner trees of a
    composition still cache what its step reads of them).  A read whose
    (state, precision) pair was already folded in this call counts one
    visit against `max_nodes` and is not descended again, so
    `nodes_visited` is at most `integral`'s, and equal to it where no two
    reads meet (in practice, on quadratics with a nonzero x^2 term).
    """
    return _integrate(_state_fold, t, k, max_nodes)
