import gc
import io
import os
import subprocess
import sys

import pytest

from sdreal import cli
from sdreal.cli import float_iterate, main
from sdreal.exprdsl import MAX_NESTING
from sdreal.rationals import Rat, parse_rat
from sdreal.sdstream import from_digits, sigma_approx

from conftest import digits_from_str, within


def run(*argv):
    buf = io.StringIO()
    code = main(list(argv), out=buf)
    return code, buf.getvalue()


def test_eval_paper_value():
    code, out = run("eval", "lin(1/4,1/5)", "--at", "1/3", "--prec", "10")
    assert code == 0
    assert out == "145/512\n"


def test_eval_decimal_annotated():
    code, out = run(
        "eval", "lin(1/4,1/5)", "--at", "1/3", "--prec", "10", "--decimal", "4"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "145/512"
    assert lines[1] == "0.2832 (+-2^-10)"


def test_eval_decimal_past_int_str_limit():
    # Python turns at most 4300 digits into one string by default
    code, out = run(
        "eval", "lin(1/4,1/5)", "--at", "1/3", "--prec", "10",
        "--decimal", "5000",
    )
    assert code == 0
    # 145/512 is 283203125/10^9 exactly
    assert out == "145/512\n0." + "283203125".ljust(5000, "0") + " (+-2^-10)\n"


def test_integrate_decimal_past_int_str_limit():
    code, out = run(
        "integrate", "logistic(3/2)", "--prec", "10", "--decimal", "9000"
    )
    assert code == 0
    # -115/2^21 is -(115 * 5^21)/10^21 exactly
    digits = f"{115 * 5**21:021d}".ljust(9000, "0")
    assert out == f"-115/2097152 (error bound 1/512)\n-0.{digits} (+-2^-9)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "lin(1/4,1/5)", "--at", "1/3", "--prec", "10"),
        ("integrate", "logistic(3/2)", "--prec", "10"),
    ],
)
def test_failed_rendering_prints_nothing(argv, monkeypatch, capsys):
    # the whole output is built before any of it is printed
    def refuse(q, digits):
        raise ValueError("cannot render")

    monkeypatch.setattr(cli, "decimal_str", refuse)
    code, out = run(*argv, "--decimal", "4")
    assert code == 2 and out == ""
    assert capsys.readouterr().err == "error: cannot render\n"


@pytest.mark.parametrize("where", ["--at", "expression"])
def test_long_literal_is_refused_in_own_words(where, capsys):
    limit = sys.get_int_max_str_digits()
    literal = "0." + "1" * (limit + 700)
    expr, at = "lin(1/2,0)", literal
    if where == "expression":
        expr, at = f"lin({literal},0)", "1/3"
    code, out = run("eval", expr, "--at", at, "--prec", "10")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert f"a run of {limit + 700} digits exceeds the limit of {limit}" in err
    assert "sys." not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "lin(1/2,0)", "--at", "1/0", "--prec", "3"),
        ("digits", "lin(1/2,0)", "--at", "1/0", "--count", "3"),
        ("bench", "lin(1/2,0)", "--at", "-1/0", "--prec", "3"),
    ],
    ids=["eval", "digits", "bench"],
)
def test_zero_denominator_is_refused_in_own_words(argv, capsys):
    code, out = run(*argv)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: {argv[3]} has a zero denominator\n"


@pytest.mark.parametrize(
    "literal", ["1e-400", "1e3", "1_000", "1.", "\u0660", "1/\u0662"]
)
@pytest.mark.parametrize("command", ["eval", "digits", "bench"])
def test_at_takes_only_documented_shapes(command, literal, capsys):
    # an exponent would have Fraction build 10^exponent before any check,
    # and Fraction reads any Unicode decimal digit, the shape only ASCII
    flag = "--count" if command == "digits" else "--prec"
    code, out = run(command, "lin(1/2,0)", "--at", literal, flag, "4")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == f"error: {literal!r} is not p/q, an integer or a decimal\n"


def test_expression_takes_only_ascii_digits(capsys):
    code, out = run("eval", "lin(\u0661/\u0662,0)", "--at", "0", "--prec", "3")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err == "error: unexpected character '\u0661' (at position 5)\n"


def test_digits():
    code, out = run("digits", "quad(-2/3,0,-1/3)", "--at", "0", "--count", "6")
    assert code == 0
    assert out == "NZPZPZ\n"


def test_integrate():
    code, out = run("integrate", "logistic(3/2)", "--prec", "8")
    assert code == 0
    assert "error bound 1/128" in out


@pytest.mark.parametrize(
    "expr, prec, want",
    [
        # finite-state integrands: the tree fold ran out of its
        # 50,000,000-visit budget on the first after about 9 s
        ("lin(1/2,0)", "30", "0 (error bound 1/536870912)\n"),
        ("lin(3/4,1/8)", "400", f"1/4 (error bound 1/{2**399})\n"),
    ],
)
def test_integrate_finite_state_lin(expr, prec, want):
    assert run("integrate", expr, "--prec", prec) == (0, want)


def test_eval_max_precision():
    # 10000 is the largest --prec the CLI accepts; input conversion must
    # neither recurse per digit nor grow quadratically
    code, out = run("eval", "lin(1/2,0)", "--at", "7/10", "--prec", "10000")
    assert code == 0
    assert within(parse_rat(out.strip()), Rat(7, 20), 10000)


def test_digits_max_count():
    code, out = run(
        "digits", "quad(-2/3,0,-1/3)", "--at", "1/3", "--count", "10000"
    )
    assert code == 0
    digits = digits_from_str(out.strip())
    assert len(digits) == 10000
    # -2/3 * (1/3)^2 - 1/3 = -11/27
    assert within(sigma_approx(from_digits(digits), 10000), Rat(-11, 27), 10000)


def test_negative_at_as_separate_argument():
    # logistic(3/2) at -1/3 is 3/2 * 8/9 - 1 = 1/3
    code, out = run("eval", "logistic(3/2)", "--at", "-1/3", "--prec", "20")
    assert code == 0
    assert within(parse_rat(out.strip()), Rat(1, 3), 20)
    assert run("eval", "logistic(3/2)", "--at=-1/3", "--prec", "20") == (0, out)
    code, out = run("digits", "logistic(3/2)", "--at", "-1/3", "--count", "20")
    assert code == 0
    digits = digits_from_str(out.strip())
    assert within(sigma_approx(from_digits(digits), 20), Rat(1, 3), 20)
    code, out = run("bench", "logistic(3/2)", "--at", "-1/3", "--prec", "20")
    assert code == 0
    assert out.count("-> 349525/1048576") == 2


def test_tree_ascii_and_dot():
    code, out = run("tree", "quad(-2/3,0,-1/3)", "--depth", "2")
    assert code == 0
    assert out.splitlines()[0] == "N"
    code, out = run("tree", "quad(-2/3,0,-1/3)", "--depth", "2", "--dot")
    assert code == 0
    assert out.startswith("digraph")
    assert out.rstrip().endswith("}")


def test_bench_memoized_second_run():
    code, out = run(
        "bench",
        "pow(logistic(2),8)",
        "--at", "7/10",
        "--prec", "24",
        "--repeat", "2",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 2
    assert "0 new expansions" in lines[1]


def test_deterministic_output():
    args = ("eval", "pow(logistic(2),5)", "--at", "1/3", "--prec", "30")
    assert run(*args) == run(*args)


def test_parse_error_exit_code():
    code, _ = run("eval", "lin(1/2,", "--at", "0", "--prec", "4")
    assert code == 2


@pytest.mark.parametrize(
    "expression, refused",
    [
        ("lin(1/2,2/3)", "lin(1/2,2/3)"),
        ("quad(2,0,0)", "quad(2,0,0)"),
        ("logistic(5/2)", "logistic(5/2)"),
        ("pow(lin(1/2,0),0)", "iteration count 0"),
        ("lin(1/2,0) o quad(2,0,0)", "quad(2,0,0)"),
    ],
    ids=["lin", "quad", "logistic", "pow", "composed"],
)
def test_domain_error_exit_code(expression, refused, capsys):
    # the one check of each rule is the tree builder's, and its message
    # names the refused coefficients
    code, out = run("eval", expression, "--at", "0", "--prec", "4")
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert refused in err and "Traceback" not in err


def test_bad_flag_exit_code():
    code, _ = run("eval", "lin(1/4,1/5)", "--at", "0", "--prec", "0")
    assert code == 2


def test_resource_limit_exit_code():
    code, _ = run(
        "integrate", "logistic(2)", "--prec", "16", "--max-nodes", "10"
    )
    assert code == 3


def test_max_nodes_caps_write_only_paths():
    # lin(0,0) only writes: 100 visits pass a budget of 100, not of 3
    argv = ("integrate", "lin(0,0)", "--prec", "100", "--max-nodes")
    assert run(*argv, "3") == (3, "")
    assert run(*argv, "100") == (0, f"0 (error bound 1/{2**99})\n")


@pytest.mark.parametrize("flag", [("--max-nodes", "0"), ("--max-nodes=-1",)])
def test_max_nodes_must_be_positive(flag, capsys):
    code, out = run("integrate", "lin(0,0)", "--prec", "4", *flag)
    assert code == 2 and out == ""
    assert "must be in 1..50000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ("tree", "pow(logistic(2),3)", "--depth", "20"),
            "rendering exceeds 100000 nodes",
        ),
        (
            ("eval", "pow(lin(0,0),1000000)", "--at", "0", "--prec", "4"),
            "composition depth 1000000 exceeds the recursion limit",
        ),
    ],
)
def test_unbounded_output_is_a_resource_limit(argv, message, capsys):
    code, out = run(*argv)
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err.startswith(f"resource limit: {message}")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "pow(logistic(2),600)", "--at", "7/10", "--prec", "10"),
        ("integrate", "pow(logistic(2),600)", "--prec", "8"),
        ("tree", "pow(logistic(2),600)", "--depth", "3"),
        # no composition at all: the integration fold nests a frame per read
        ("integrate", "lin(1/2,0)", "--prec", "2000"),
    ],
)
def test_deep_composition_is_a_resource_limit(argv, capsys):
    # each composed layer costs stack frames: 600 of them exceed the
    # default recursion limit, which must end in exit 3, not a traceback
    code, out = run(*argv)
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err.startswith(
        "resource limit: a tree walk exceeded the recursion limit"
    )
    assert "Traceback" not in err
    assert gc.isenabled()


def test_out_of_memory_is_a_resource_limit(monkeypatch, capsys):
    def exhaust(expr):
        raise MemoryError

    monkeypatch.setattr(cli, "to_tree", exhaust)
    code, out = run("eval", "lin(1/2,0)", "--at", "1/3", "--prec", "10")
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err == "resource limit: out of memory\n"


def test_composed_layer_costs_two_frames():
    # 400 layers fit the default recursion limit at two stack frames a
    # layer, the tree's root and the composition's step, not at three
    code, out = run("eval", "pow(lin(1/2,0),400)", "--at", "7/10", "--prec", "10")
    assert code == 0 and out == "0\n"


@pytest.mark.parametrize("opener", ["(", "pow("])
def test_deep_nesting_is_a_parse_error(opener, capsys):
    # the parser recurses per nesting level, so it stops at a fixed depth
    # with its own message, not the composition-depth resource limit
    closer = ")" if opener == "(" else ",1)"
    at = ("--at", "1/3", "--prec", "10")
    expr = opener * 2000 + "lin(1/2,0)" + closer * 2000
    code, out = run("eval", expr, *at)
    err = capsys.readouterr().err
    assert code == 2 and out == ""
    offset = MAX_NESTING * len(opener) + 1
    assert err == (
        f"error: nesting deeper than {MAX_NESTING} levels "
        f"(at position {offset})\n"
    )
    n = MAX_NESTING
    code, out = run("eval", opener * n + "lin(1/2,0)" + closer * n, *at)
    assert code == 0 and out == "85/512\n"


def test_float_demo():
    code, out = run("float-demo")
    assert code == 0
    assert "-0.1571454279758806" in out
    assert "1008550774065780194036545699607" in out
    assert "unverified" in out


def test_float_iterate_value():
    assert repr(float_iterate()) == "-0.1571454279758806"


def test_startup_imports_no_dataclasses_inspect_or_typing():
    # -S keeps site's .pth hooks, which may import typing themselves, out
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import sys, sdreal.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": os.path.abspath(src)},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"
