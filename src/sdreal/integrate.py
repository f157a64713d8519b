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

from .ctree import MirrorRead, WriteNode, collector_paused
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

    `max_nodes` caps the nodes the fold visits, writes included: reads
    check it as they go, write-only paths once the fold returns.
    """
    if t.arity != 1:
        raise DomainError("integral is defined for unary trees")
    if k < 0:
        raise DomainError("precision must be >= 0")
    limit = max_nodes if max_nodes is not None else 1 << 62
    budget = limit

    def exceeded():
        return ResourceLimitError(
            f"integration exceeded the {max_nodes}-node budget"
        )

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
            raise exceeded()
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

    num, p = 0, 0
    if k:
        with collector_paused():
            num, p = fold(t, k)
    if budget < 0:
        raise exceeded()
    return IntegralResult(Rat(num, 1 << p), Rat(2, 2**k), limit - budget)
