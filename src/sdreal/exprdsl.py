"""Expression DSL: text -> function expression -> continuity tree.

Grammar (whitespace-insensitive between tokens)::

    func := atom { "o" atom }            left-associative, f o g = f.g
    atom := "lin(" rat "," rat ")"
          | "quad(" rat "," rat "," rat ")"
          | "logistic(" rat ")"
          | "pow(" func "," nat ")"
          | "(" func ")"
    rat  := rationals.RAT_LITERAL        e.g. 1/3, - 1 / 3, -.25, 1.5
    nat  := digits

The AST is namedtuple records, unchecked; a record is a tuple, so it
iterates, unpacks and equals a plain tuple of the same fields.  Decimal
literals convert exactly (1.5 is 3/2).  Syntax errors carry 1-based
character offsets; range errors surface from `to_tree`, through the tree
builders' one check each.
Parentheses and pow( nest at most MAX_NESTING deep: the parser recurses
once per level.
"""

import re
from collections import namedtuple

from .ctree import compose
from .digitsys import iterate_tree, lin_tree, logistic_tree, quad_tree
from .errors import DomainError, ParseError
from .rationals import RAT_LITERAL, parse_rat


Lin = namedtuple("Lin", "u v")
Quad = namedtuple("Quad", "u v w")
Logistic = namedtuple("Logistic", "a")
Comp = namedtuple("Comp", "outer inner")
Pow = namedtuple("Pow", "base n")


_TOKEN = re.compile(
    rf"\s*(?P<num>{RAT_LITERAL})"
    r"|\s*(?P<name>[A-Za-z_]+)"
    r"|\s*(?P<sym>[(),])"
    r"|\s*(?P<bad>\S)"
)

MAX_NESTING = 100


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            break
        if m.group("bad") is not None:
            raise ParseError(f"unexpected character {m.group('bad')!r}", m.start("bad") + 1)
        for kind in ("num", "name", "sym"):
            text = m.group(kind)
            if text is not None:
                tokens.append((kind, text, m.start(kind)))
        pos = m.end()
    tokens.append(("eof", "", len(src)))
    return tokens


class _Parser:
    def __init__(self, src):
        self.src = src
        self.tokens = _tokenize(src)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, what):
        kind, text, pos = self.peek()
        found = "end of input" if kind == "eof" else repr(text)
        raise ParseError(f"expected {what}, found {found}", pos + 1)

    def expect(self, sym):
        kind, text, _ = self.peek()
        if kind == "sym" and text == sym:
            return self.next()
        self.fail(f"'{sym}'")

    def parse_func(self):
        expr = self.parse_atom()
        while True:
            kind, text, _ = self.peek()
            if kind == "name" and text == "o":
                self.next()
                expr = Comp(expr, self.parse_atom())
            else:
                return expr

    def parse_nested(self, pos):
        if self.depth == MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", pos + 1)
        self.depth += 1
        inner = self.parse_func()
        self.depth -= 1
        return inner

    def parse_atom(self):
        kind, text, pos = self.peek()
        if kind == "sym" and text == "(":
            self.next()
            inner = self.parse_nested(pos)
            self.expect(")")
            return inner
        if kind == "name":
            self.next()
            if text == "lin":
                args = self.parse_rats(2)
                return Lin(*args)
            if text == "quad":
                args = self.parse_rats(3)
                return Quad(*args)
            if text == "logistic":
                args = self.parse_rats(1)
                return Logistic(*args)
            if text == "pow":
                self.expect("(")
                base = self.parse_nested(pos)
                self.expect(",")
                n = self.parse_nat()
                self.expect(")")
                return Pow(base, n)
            raise ParseError(f"unknown function {text!r}", pos + 1)
        self.fail("a function")

    def parse_rats(self, count):
        self.expect("(")
        args = [self.parse_rat()]
        for _ in range(count - 1):
            self.expect(",")
            args.append(self.parse_rat())
        self.expect(")")
        return args

    def parse_rat(self):
        kind, text, pos = self.peek()
        if kind != "num":
            self.fail("a number")
        self.next()
        try:
            return parse_rat(text)
        except DomainError as e:
            raise ParseError(str(e), pos + 1) from None

    def parse_nat(self):
        kind, text, _ = self.peek()
        if kind != "num" or not text.isdigit():
            self.fail("a natural number")
        return int(self.parse_rat())


def parse(src):
    """Parse DSL source into a function expression."""
    p = _Parser(src)
    expr = p.parse_func()
    kind, text, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", pos + 1)
    return expr


def to_tree(e):
    """Compile a function expression to a unary continuity tree."""
    if isinstance(e, Lin):
        return lin_tree([e.u], e.v)
    if isinstance(e, Quad):
        return quad_tree(e.u, e.v, e.w)
    if isinstance(e, Logistic):
        return logistic_tree(e.a)
    if isinstance(e, Comp):
        return compose(to_tree(e.outer), (to_tree(e.inner),))
    if isinstance(e, Pow):
        return iterate_tree(to_tree(e.base), e.n)
    raise TypeError(f"not a function expression: {e!r}")
