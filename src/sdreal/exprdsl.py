"""Expression DSL: text -> function expression -> continuity tree.

Grammar (whitespace-insensitive between tokens)::

    func := atom { "o" atom }            left-associative, f o g = f.g
    atom := "lin(" rat "," rat ")"
          | "quad(" rat "," rat "," rat ")"
          | "logistic(" rat ")"
          | "pow(" func "," nat ")"
          | "(" func ")"
    rat  := ["-"|"+"] digits ["/" digits]    -- or a decimal literal

Decimal literals convert exactly (1.5 is 3/2).  Syntax errors carry 1-based byte
offsets; range errors ("does not map I to I") surface from construction.
Parentheses and pow( nest at most MAX_NESTING deep: the parser recurses
once per level.
"""

import re

from .ctree import compose
from .digitsys import iterate_tree, lin_tree, logistic_tree, quad_tree
from .errors import ParseError
from .oracle import Comp, Lin, Logistic, Pow, Quad
from .rationals import Rat, rat_str

_TOKEN = re.compile(
    r"\s*(?P<num>\d+\.\d+|\d+|\.\d+)"
    r"|\s*(?P<name>[A-Za-z_]+)"
    r"|\s*(?P<sym>[(),/+-])"
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
                args = self.parse_args(self.parse_rat, 2)
                return Lin(*args)
            if text == "quad":
                args = self.parse_args(self.parse_rat, 3)
                return Quad(*args)
            if text == "logistic":
                args = self.parse_args(self.parse_rat, 1)
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

    def parse_args(self, sub, count):
        self.expect("(")
        args = [sub()]
        for _ in range(count - 1):
            self.expect(",")
            args.append(sub())
        self.expect(")")
        return args

    def parse_rat(self):
        sign = 1
        kind, text, _ = self.peek()
        if kind == "sym" and text in "+-":
            self.next()
            if text == "-":
                sign = -1
            kind, text, _ = self.peek()
        if kind != "num":
            self.fail("a number")
        self.next()
        value = Rat(text)  # exact for decimal literals too
        if "." not in text:
            nk, nt, _ = self.peek()
            if nk == "sym" and nt == "/":
                self.next()
                dk, dt, dpos = self.peek()
                if dk != "num" or "." in dt or int(dt) == 0:
                    raise ParseError("expected a positive integer denominator", dpos + 1)
                self.next()
                value = value / int(dt)
        return sign * value

    def parse_nat(self):
        kind, text, pos = self.peek()
        if kind != "num" or "." in text:
            self.fail("a natural number")
        self.next()
        return int(text)


def parse(src):
    """Parse DSL source into a function expression."""
    p = _Parser(src)
    expr = p.parse_func()
    kind, text, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {text!r}", pos + 1)
    return expr


def unparse(e):
    """Render a function expression back to DSL text; re-parses equal."""
    if isinstance(e, Lin):
        return f"lin({rat_str(e.u)}, {rat_str(e.v)})"
    if isinstance(e, Quad):
        return f"quad({rat_str(e.u)}, {rat_str(e.v)}, {rat_str(e.w)})"
    if isinstance(e, Logistic):
        return f"logistic({rat_str(e.a)})"
    if isinstance(e, Pow):
        return f"pow({unparse(e.base)}, {e.n})"
    if isinstance(e, Comp):
        inner = unparse(e.inner)
        if isinstance(e.inner, Comp):
            inner = f"({inner})"
        return f"{unparse(e.outer)} o {inner}"
    raise TypeError(f"not a function expression: {e!r}")


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
