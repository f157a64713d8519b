"""Generated checks of the CLI's exit-code contract and of the one
number-literal rule the DSL and ``--at`` share."""

import gc
import io
import sys
from contextlib import redirect_stderr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdreal import cli
from sdreal.exprdsl import parse
from sdreal.rationals import parse_rat

LIMIT = sys.get_int_max_str_digits()
space = st.sampled_from(["", " ", "\t"])


@st.composite
def in_shape(draw):
    """A literal in one of RAT_LITERAL's shapes, its value in [-1, 1]."""
    q = draw(st.integers(1, 9))
    p = draw(st.integers(0, q))
    body = draw(st.sampled_from(
        [f"{p // q}", f"{p}{draw(space)}/{draw(space)}{q}", f".{p}", f"0.{q}"]
    ))
    sign = draw(st.sampled_from(["", "-", "+"]))
    return f"{draw(space)}{sign}{draw(space)}{body}{draw(space)}"


def near_misses(long_runs=True):
    misses = ["1e3", "1_000", "1.", "1/0", "1/", "/2", "1 2", "1//2", "- ", ""]
    misses.append("\u0661")  # a Unicode decimal digit that is not ASCII
    if long_runs:
        # digit runs at the int-conversion limit and one past it
        misses += ["1" * LIMIT, "0." + "1" * LIMIT, "1" * (LIMIT + 1)]
    return st.sampled_from(misses)


def literals(long_runs=True):
    """In shape seven times in eight, else a near miss."""
    return st.sampled_from([in_shape()] * 7 + [near_misses(long_runs)]).flatmap(
        lambda strategy: strategy
    )


@st.composite
def expressions(draw, depth, cheap):
    """DSL text: atoms, parentheses, `pow` and `o` chains, coefficients
    in or out of range.  Unless `cheap`, also literals at the
    int-conversion limit and trees deeper than the stack: 1200 layers
    nest 2400 frames, past both Python's default recursion limit (1000)
    and the one hypothesis raises it to for a test (about 2000)."""
    lit = literals(long_runs=not cheap)
    atoms = ("lin",) if cheap else ("lin", "quad", "logistic")
    kind = draw(st.sampled_from(atoms + (("o", "pow", "()") if depth else ())))
    arity = {"lin": 2, "quad": 3, "logistic": 1}.get(kind)
    if arity:
        return f"{kind}({','.join(draw(lit) for _ in range(arity))})"
    sub = expressions(depth - 1, cheap)
    if kind == "()":
        return f"({draw(sub)})"
    if kind == "pow":
        deep = [] if cheap else ["1200", "2100"]
        n = draw(st.sampled_from(["0", "1", "3", *deep]) | lit)
        return f"pow({draw(sub)},{n})"
    if cheap or draw(st.booleans()):
        return f"{draw(sub)} o {draw(sub)}"
    # to_tree recurses once per `o`: 2100 outgrow the stack
    return " o ".join(["lin(1/2,0)"] * 2100)


# (option, maximum, heavy): a heavy option at its maximum costs work per
# unit of it, so its runs draw cheap expressions (see `invocations`)
OPTIONS = {
    "eval": [("--prec", 10000, True), ("--decimal", 10000, False)],
    "digits": [("--count", 10000, True)],
    "integrate": [
        ("--prec", 10000, False),
        ("--decimal", 10000, False),
        ("--max-nodes", 50_000_000, False),
    ],
    "tree": [("--depth", 32, True)],
    "bench": [("--prec", 10000, True), ("--repeat", 10000, True)],
}


@st.composite
def invocations(draw, command):
    """argv for one subcommand: one of its options (or none) at its
    maximum, the rest at 1.  With a heavy option at its maximum, the
    expression is a cheap one: shallow, of `lin` atoms and short literals,
    whose trees cost little per digit and per node."""
    options = OPTIONS.get(command)
    if options is None:
        return [command]
    top = draw(st.sampled_from([None, *range(len(options))]))
    heavy = top is not None and options[top][2]
    argv = [command, draw(expressions(1 if heavy else 2, heavy))]
    if command in ("eval", "digits", "bench"):
        argv.append(f"--at={draw(literals(long_runs=not heavy))}")
    for i, (flag, maximum, _) in enumerate(options):
        argv += [flag, str(maximum if i == top else 1)]
    if command == "tree" and draw(st.booleans()):
        argv.append("--dot")
    return argv


@pytest.mark.parametrize("command", [*OPTIONS, "float-demo"])
@given(data=st.data())
@settings(max_examples=25, derandomize=True, deadline=None)
def test_every_exit_is_an_answer_or_a_documented_error(command, data):
    argv = data.draw(invocations(command))
    enabled = gc.isenabled()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stderr(err):
        code = cli.main(argv, out=out)
    assert code in (0, 2, 3)
    assert code == 0 or out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
    assert gc.isenabled() == enabled


def _outcome(fn, text):
    try:
        return fn(text)
    except ValueError:  # DomainError and ParseError alike
        return "refused"


@given(in_shape() | near_misses())
@settings(max_examples=300, derandomize=True, deadline=None)
def test_dsl_and_at_read_literals_alike(literal):
    in_dsl = _outcome(lambda text: parse(f"lin({text},0)").u, literal)
    assert in_dsl == _outcome(parse_rat, literal)
