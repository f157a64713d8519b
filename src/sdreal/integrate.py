"""Certified definite integration of unary trees over [-1,1].

The recursion mirrors the two identities the integral satisfies: a write
of d contributes d plus half the integral of the continuation, and a read
splits [-1,1] at 0, averaging the N and P branches.  The Z branch is
*never* descended — the split is binary, into the images of x -> (x-1)/2
and x -> (x+1)/2, not a trisection.  Precision k costs an error of at
most 2^(1-k); k = 0 returns 0 with bound 2.

The fold carries dyadic values as (numerator, 2-exponent) integer pairs
and walks write chains iteratively.  Every node it expands stays alive in
its family's memo, in class-memo-node cycles, so it runs under
ctree.collector_paused: a collection would rescan them all and free nothing.
"""

from dataclasses import dataclass

from .ctree import WriteNode, collector_paused
from .errors import DomainError, ResourceLimitError
from .rationals import Rat


@dataclass(frozen=True)
class IntegralResult:
    value: object  # exact rational
    error_bound: object  # 2^(1-k)
    nodes_visited: int


def integral(t, k, max_nodes=None):
    """Approximate the integral of the realized function over [-1,1] to
    within 2^(1-k).

    `max_nodes` caps the fold on adversarial (read-heavy) trees; hitting
    it raises ResourceLimitError rather than returning a wrong value.
    """
    if t.arity != 1:
        raise DomainError("integral is defined for unary trees")
    if k < 0:
        raise DomainError("precision must be >= 0")
    limit = max_nodes if max_nodes is not None else 1 << 62
    budget = limit

    def fold(tree, k):
        # returns (num, p) with value = num / 2^p; a chain of digits
        # d_0..d_{m-1} over residual r contributes sum d_i 2^-i + r 2^-m
        nonlocal budget
        acc = 0
        m = 0
        node = tree._node
        if node is None:
            # inlined CTree.root, the hot expansion path
            thunk = tree._thunk
            node = thunk() if thunk is not None else tree._expand()
            tree._node = node
            tree._thunk = None
            tree.stats.count += 1
        while type(node) is WriteNode:
            acc = acc + acc + node.digit
            m += 1
            k -= 1
            if k == 0:
                budget -= m
                return acc + acc, m
            tree = node.next
            node = tree._node
            if node is None:
                thunk = tree._thunk
                node = thunk() if thunk is not None else tree._expand()
                tree._node = node
                tree._thunk = None
                tree.stats.count += 1
        budget -= m + 1
        if budget < 0:
            raise ResourceLimitError(
                f"integration exceeded the {max_nodes}-node budget"
            )
        bn, _, bp = node.branches
        # mirror shortcut: x -> f(-x) has the same integral, digit for
        # digit, so a branch pair related by x-reflection folds once
        sn = getattr(bn, "state", None)
        sp = getattr(bp, "state", None) if sn is not None else None
        if (
            sp is not None
            and sp[0] == sn[0]
            and sp[1] == -sn[1]
            and sp[2] == sn[2]
            and sp[3] == sn[3]
        ):
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

    num, p = 0, 0
    if k:
        with collector_paused():
            num, p = fold(t, k)
    return IntegralResult(Rat(num, 1 << p), Rat(2, 2**k), limit - budget)
