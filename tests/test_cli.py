import gc
import io

import pytest

from sdreal.cli import float_iterate, main
from sdreal.exprdsl import MAX_NESTING
from sdreal.rationals import Rat, parse_rat
from sdreal.sdstream import digits_from_str, from_digits, sigma_approx

from conftest import within


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


def test_digits():
    code, out = run("digits", "quad(-2/3,0,-1/3)", "--at", "0", "--count", "6")
    assert code == 0
    assert out == "NZPZPZ\n"


def test_integrate():
    code, out = run("integrate", "logistic(3/2)", "--prec", "8")
    assert code == 0
    assert "error bound 1/128" in out


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


def test_domain_error_exit_code():
    code, _ = run("eval", "lin(1/2,2/3)", "--at", "0", "--prec", "4")
    assert code == 2


def test_bad_flag_exit_code():
    code, _ = run("eval", "lin(1/4,1/5)", "--at", "0", "--prec", "0")
    assert code == 2


def test_resource_limit_exit_code():
    code, _ = run(
        "integrate", "logistic(2)", "--prec", "16", "--max-nodes", "10"
    )
    assert code == 3


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
        ("eval", "--at", "7/10", "--prec", "10"),
        ("integrate", "--prec", "8"),
        ("tree", "--depth", "3"),
    ],
)
def test_deep_composition_is_a_resource_limit(argv, capsys):
    # each composed layer costs stack frames: 600 of them exceed the
    # default recursion limit, which must end in exit 3, not a traceback
    code, out = run(argv[0], "pow(logistic(2),600)", *argv[1:])
    err = capsys.readouterr().err
    assert code == 3 and out == ""
    assert err.startswith("resource limit: composition depth")
    assert "Traceback" not in err
    assert gc.isenabled()


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
