import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdreal.ctree import eval_at
from sdreal.errors import DomainError, ParseError
from sdreal.exprdsl import parse, to_tree
from oracle import Comp, Lin, Logistic, Pow, Quad, eval_exact
from sdreal.rationals import Rat, rat_str

from conftest import GRID, within


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


def same(a, b):
    """Equal fields and the same record type at every level: a record is a
    tuple, so == alone takes Lin(1, 0) for Comp(1, 0) or (1, 0)."""
    if isinstance(a, tuple):
        return type(a) is type(b) and all(map(same, a, b))
    return a == b


def test_records_are_tuples():
    # == compares fields only, as tuples do; `same` also compares types
    e = Lin(Rat(1, 2), Rat(0))
    u, v = e
    assert e == (u, v) == Comp(u, v) and not same(e, Comp(u, v))
    assert Comp(e, e) == Comp(e, Comp(u, v))
    assert not same(Comp(e, e), Comp(e, Comp(u, v)))


def test_parse_lin():
    assert same(parse("lin(1/4, 1/5)"), Lin(Rat(1, 4), Rat(1, 5)))
    assert same(parse("lin( -1/4,1/5 )"), Lin(Rat(-1, 4), Rat(1, 5)))


def test_parse_pow_logistic():
    assert same(parse("pow(logistic(2), 100)"), Pow(Logistic(2), 100))


def test_parse_decimals_exactly():
    assert same(parse("logistic(1.5)"), Logistic(Rat(3, 2)))
    assert same(parse("lin(0.7, 0.25)"), Lin(Rat(7, 10), Rat(1, 4)))


def test_parse_composition_left_assoc():
    e = parse("lin(1/2,0) o logistic(1) o quad(1/2,0,0)")
    assert same(
        e, Comp(Comp(Lin(Rat(1, 2), 0), Logistic(1)), Quad(Rat(1, 2), 0, 0))
    )


def test_parse_parens():
    e = parse("lin(1/2,0) o (logistic(1) o quad(1/2,0,0))")
    assert same(
        e, Comp(Lin(Rat(1, 2), 0), Comp(Logistic(1), Quad(Rat(1, 2), 0, 0)))
    )


def test_syntax_error_position():
    with pytest.raises(ParseError) as err:
        parse("lin(1/2,")
    assert err.value.position == 9


def test_error_cases():
    with pytest.raises(ParseError):
        parse("frob(1)")
    with pytest.raises(ParseError):
        parse("lin(1/0, 0)")
    with pytest.raises(ParseError):
        parse("lin(1/4, 1/5) extra")
    with pytest.raises(DomainError):
        to_tree(parse("lin(1/2, 2/3)"))


def test_roundtrip_fixed():
    sources = [
        "lin(1/4, 1/5)",
        "pow(logistic(2), 100)",
        "quad(-2/3, 0, -1/3)",
        "logistic(3/2) o lin(1/2, 0)",
        "lin(1/2, 0) o (logistic(1) o quad(1/2, 0, 0))",
        "pow(logistic(1) o lin(1/3, 0), 3)",
    ]
    for src in sources:
        e = parse(src)
        assert same(parse(unparse(e)), e)


small_rat = st.fractions(min_value=-1, max_value=1, max_denominator=12)


@st.composite
def exprs(draw, depth=2):
    choices = ["lin", "logistic"]
    if depth > 0:
        choices += ["comp", "pow"]
    kind = draw(st.sampled_from(choices))
    if kind == "lin":
        u = draw(small_rat)
        vmax = 1 - abs(u)
        v = draw(
            st.fractions(
                min_value=-vmax, max_value=vmax, max_denominator=12
            )
        )
        return Lin(Rat(u.numerator, u.denominator), Rat(v.numerator, v.denominator))
    if kind == "logistic":
        a = draw(st.fractions(min_value=0, max_value=2, max_denominator=12))
        return Logistic(Rat(a.numerator, a.denominator))
    if kind == "comp":
        return Comp(draw(exprs(depth=depth - 1)), draw(exprs(depth=depth - 1)))
    return Pow(draw(exprs(depth=depth - 1)), draw(st.integers(1, 3)))


@given(exprs())
@settings(max_examples=60, deadline=None)
def test_roundtrip_random(e):
    assert same(parse(unparse(e)), e)


def test_to_tree_dispatch():
    t = to_tree(parse("logistic(2)"))
    q = to_tree(parse("quad(-2,0,1)"))
    for x in (Rat(0), Rat(7, 10)):
        assert eval_at(t, x, 16) == eval_at(q, x, 16)
    assert eval_at(to_tree(parse("lin(1/4,1/5)")), Rat(1, 3), 10) == Rat(
        145, 512
    )


def test_to_tree_pow_one():
    e = parse("pow(lin(1/3,0), 1)")
    t = to_tree(e)
    base = to_tree(parse("lin(1/3,0)"))
    for x in (Rat(1, 2), Rat(-1)):
        assert eval_at(t, x, 16) == eval_at(base, x, 16)


def test_semantic_agreement():
    sources = [
        "lin(1/4, 1/5)",
        "quad(-2/3, 0, -1/3)",
        "logistic(3/2) o lin(1/2, 0)",
        "pow(logistic(2), 3)",
        "quad(1/2, 0, 1/2) o logistic(1) o lin(-1/3, 1/4)",
    ]
    for src in sources:
        e = parse(src)
        t = to_tree(e)
        for q in GRID:
            for n in (8, 20, 32):
                assert within(eval_at(t, q, n), eval_exact(e, q), n)
