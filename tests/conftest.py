import gc

import pytest

from sdreal.ctree import ReadNode, WriteNode
from sdreal.rationals import Rat
from sdreal.sdstream import N, P, Z, SignedDigit

# rationals exercised by most semantic-agreement checks
GRID = [
    Rat(-1),
    Rat(-2, 3),
    Rat(-1, 2),
    Rat(-1, 4),
    Rat(0),
    Rat(1, 4),
    Rat(1, 3),
    Rat(1, 2),
    Rat(1),
]


@pytest.fixture(scope="session")
def grid():
    return GRID


def within(a, b, n):
    """|a - b| <= 2^-n for exact rationals."""
    return abs(a - b) * 2**n <= 1


def digits_from_str(text):
    """Digits from N/Z/P text, the inverse of sdstream.digits_str."""
    return [SignedDigit[c] for c in text]


def quarter_rule(q):
    """Reference rule: select_digit as it compared Fractions with 1/4
    before its integer test, kept verbatim."""
    quarter = Rat(1, 4)
    if q > quarter:
        return P
    if abs(q) <= quarter:
        return Z
    return N


def same_nodes(a, b, depth):
    """a and b agree on every node of their first `depth` levels."""
    if depth == 0:
        return True
    x, y = a.root, b.root
    if isinstance(x, WriteNode):
        return (
            isinstance(y, WriteNode)
            and x.digit == y.digit
            and same_nodes(x.next, y.next, depth - 1)
        )
    return (
        isinstance(y, ReadNode)
        and x.index == y.index
        and all(
            same_nodes(p, q, depth - 1) for p, q in zip(x.branches, y.branches)
        )
    )


@pytest.fixture(autouse=True)
def collector_state_kept():
    # a test that leaves the collector switched changes every later test
    enabled = gc.isenabled()
    yield
    assert gc.isenabled() == enabled, "the test switched the collector"
