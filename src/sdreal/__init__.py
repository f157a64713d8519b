"""Exact real arithmetic on [-1,1].

Reals are signed-digit streams; uniformly continuous functions are
memoized continuity trees.  See the module docstrings of `sdstream`,
`ctree`, `digitsys`, `integrate` and `exprdsl` for the layout.
"""

from .ctree import (
    CTree,
    ReadNode,
    WriteNode,
    apply,
    build_tree,
    check_productive,
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
from .digitsys import (
    ModulusEvaluator,
    iterate_tree,
    lin_tree,
    logistic_tree,
    quad_tree,
    tree_from_modulus,
)
from .errors import DomainError, ParseError, ResourceLimitError
from .exprdsl import Comp, Lin, Logistic, Pow, Quad, parse, to_tree
from .integrate import IntegralResult, integral
from .rationals import Rat, parse_rat, rat_str
from .sdstream import (
    DigitStream,
    SignedDigit,
    cauchy_to_stream,
    const_seq,
    digits_str,
    select_digit,
    sigma_approx,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
