"""Certified definite integration of unary trees over [-1,1].

The recursion mirrors the two identities the integral satisfies: a write
of d contributes d plus half the integral of the continuation, and a read
splits [-1,1] at 0, averaging the N and P branches.  The Z branch is
*never* descended — the split is binary, into the images of x -> (x-1)/2
and x -> (x+1)/2, not a trisection.  Precision k costs an error of at
most 2^(1-k); k = 0 returns 0 with bound 2.

The fold carries dyadic values as (numerator, 2-exponent) integer pairs
and walks write chains iteratively, under ctree.collector_paused.  It
folds the states of t's digital system through its step and builds no
tree for them.  Values are memoized at their (state, remaining
precision) pair in the family's `folds`, one dict per precision: each
call's result, so a repeat call is one lookup, and, in a family whose
states can recur (`recurs`), each read's, so a read met again, in one
call or a later one, is not descended and finite-state folds are linear.
A family whose states cannot recur, such as a quadratic with an x^2
term or a composition with such a part, keeps only the results: its
reads would never be met again.
"""

from collections import namedtuple

from .ctree import MirrorRead, WriteNode, collector_paused
from .errors import DomainError, ResourceLimitError
from .rationals import Rat


# value: the exact rational; error_bound: 2^(1-k)
IntegralResult = namedtuple("IntegralResult", "value error_bound nodes_visited")


def _over_budget(limit):
    return ResourceLimitError(f"integration exceeded the {limit}-node budget")


def integral(t, k, max_nodes=None):
    """Approximate the integral of the realized function over [-1,1] to
    within 2^(1-k).

    The fold expands and retains nothing of t's own family (inner trees of
    a composition still cache what its step reads of them).  It keeps the
    call's value, and in a family whose states can recur each read's, in
    the family's `folds` memo, which lives as long as the family: a root
    or read whose (state, precision) pair the family has already folded,
    in this call or an earlier one, counts one visit and is not descended.
    An entry is written only once its value is complete, and the call's
    own only once the call succeeds, so a call stopped early leaves only
    sound entries.

    `nodes_visited` counts this call's visits, writes included, and
    `max_nodes` caps them: reads check it as they go, write-only paths
    once the fold returns.  So a repeat call at the same k visits one
    node.
    """
    if t.arity != 1:
        raise DomainError("integral is defined for unary trees")
    if k < 0:
        raise DomainError("precision must be >= 0")
    if k == 0:
        return IntegralResult(Rat(0), Rat(2), 0)
    limit = max_nodes if max_nodes is not None else 1 << 62
    budget = limit
    family = type(t)
    step = family.step
    folds = family.folds
    folds.extend({} for _ in range(len(folds), k + 1))
    recurs = family.recurs

    def fold(state, k):
        # returns (num, p) with value = num / 2^p; a chain of digits
        # d_0..d_{m-1} over residual r contributes sum d_i 2^-i + r 2^-m
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
        got = folds[k].get(state) if recurs else None
        if got is None:
            bn, _, bp = node.branches
            if type(node) is MirrorRead:
                # x -> g(-x) has the same integral, digit for digit, so
                # the mirrored branch pair folds once
                got = fold(bn, k)
            else:
                nn, pn = fold(bn, k)
                np_, pp = fold(bp, k)
                if pn > pp:
                    got = nn + (np_ << (pn - pp)), pn + 1
                else:
                    got = (nn << (pp - pn)) + np_, pp + 1
            if recurs:
                folds[k][state] = got
        if m:
            num, p = got
            return (acc << (p + 1)) + num, p + m
        return got

    seen = folds[k]
    got = seen.get(t.state)
    if got is None:
        with collector_paused():
            got = fold(t.state, k)
    else:
        budget -= 1  # the root, met again
    if budget < 0:
        raise _over_budget(limit)
    seen[t.state] = got
    num, p = got
    return IntegralResult(Rat(num, 1 << p), Rat(2, 2**k), limit - budget)
