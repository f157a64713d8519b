"""Tests of the benchmark itself: every check rejects an answer one unit
off in its last place, and short runs of every workload finish correct.

    python3 -m pytest bench -q
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402
from sdreal import ctree, digitsys, sdstream  # noqa: E402


def outward(answer, exact, ulp):
    """`answer` moved by one ulp away from the exact value."""
    y = Fraction(answer)
    return checks.rat_text(y + ulp if y >= exact else y - ulp)


def encode_digits(value, count):
    """Signed-digit text of length `count` for a multiple of 2^-count."""
    n = value * 2**count
    assert n.denominator == 1 and abs(n) < 2**count
    n = int(n)
    bits = bin(abs(n))[2:].zfill(count)
    sign = "P" if n > 0 else "N"
    return "".join(sign if b == "1" else "Z" for b in bits)


@pytest.mark.parametrize("a,x,n,prec", [
    (Fraction(2), Fraction(7, 10), 12, 40),
    (Fraction(19937, 10007), Fraction(-3, 11), 30, 100),
])
def test_iterate_check(a, x, n, prec):
    tree = digitsys.iterate_tree(digitsys.logistic_tree(a), n)
    answer = checks.rat_text(ctree.eval_at(tree, x, prec))
    assert checks.check_iterate(answer, a, x, n, prec)
    lo, hi = checks.logistic_iterate_interval(a, x, n, prec + 2 * n + 40)
    assert not checks.check_iterate(
        outward(answer, (lo + hi) / 2, Fraction(1, 2**prec)), a, x, n, prec)


def test_iterate_check_fails_on_a_wide_enclosure():
    a, x, n, prec = Fraction(2), Fraction(7, 10), 40, 30
    lo, hi = checks.logistic_iterate_interval(a, x, n, 40)
    assert hi - lo >= Fraction(1, 2 ** (prec + 8))
    tree = digitsys.iterate_tree(digitsys.logistic_tree(a), n)
    answer = checks.rat_text(ctree.eval_at(tree, x, prec))
    assert checks.check_iterate(answer, a, x, n, prec)
    assert not checks.check_iterate(answer, a, x, n, prec, bits=40)


@pytest.mark.parametrize("spec,x,prec", [
    (("lin", Fraction(3, 7), Fraction(-2, 9)), Fraction(5, 13), 300),
    (("comp", ("lin", Fraction(-2, 5), Fraction(1, 5)),
      ("comp", ("quad", Fraction(1, 3), Fraction(-1, 7), Fraction(1, 6)),
       ("logistic", Fraction(17, 10)))), Fraction(7, 10), 60),
])
def test_value_check(spec, x, prec):
    tree = workloads.build(spec, [])
    answer = checks.rat_text(ctree.eval_at(tree, x, prec))
    assert checks.check_value(answer, spec, x, prec)
    exact = checks.exact_value(spec, x)
    assert not checks.check_value(
        outward(answer, exact, Fraction(1, 2**prec)), spec, x, prec)


def test_digits_check():
    spec = ("quad", Fraction(-2, 5), Fraction(1, 7), Fraction(1, 6))
    x, count = Fraction(7, 10), 200
    tree = workloads.build(spec, [])
    stream = sdstream.cauchy_to_stream(sdstream.const_seq(x))
    answer = sdstream.digits_str(ctree.apply(tree, (stream,)).take(count))
    assert checks.check_digits(answer, spec, x, count)
    value, exact = checks.digits_value(answer), checks.exact_value(spec, x)
    ulp = Fraction(1, 2**count)
    moved = encode_digits(value + ulp if value >= exact else value - ulp, count)
    assert not checks.check_digits(moved, spec, x, count)
    assert not checks.check_digits(answer[:-1], spec, x, count)


def test_integral_check():
    op = workloads.IntegrateOp(Fraction(1537, 1000), 9)
    answer = op.warm(op.compile())
    assert checks.check_integral(answer, op.a, op.k)
    value, rest = answer.split(" ", 1)
    exact = Fraction(4, 3) * op.a - 2
    moved = outward(value, exact, Fraction(1, 2 ** (op.k - 1)))
    assert not checks.check_integral(f"{moved} {rest}", op.a, op.k)
    looser = f"{value} (error bound 1/{2 ** (op.k - 2)})"
    assert not checks.check_integral(looser, op.a, op.k)


@pytest.mark.parametrize("which", range(4))
def test_modulus_check(which):
    ops, _ = workloads.make("modulus_composed", 3, short=True)
    op = ops[which]
    tree = op.compile()
    m = int(op.warm(tree))
    assert checks.check_modulus(str(m), tree, lambda x: checks.exact_value(op.spec, x),
                                op.k, op.prefixes, workloads.run_digits)
    for wrong in (m - 1, m + 1):
        assert not op.check(str(wrong), tree)


def test_modulus_check_rejects_a_wrong_function():
    ops, _ = workloads.make("modulus_composed", 3, short=True)
    op = ops[0]
    tree = op.compile()
    m = op.warm(tree)
    assert op.check(m, tree)
    other = lambda x: checks.exact_value(op.spec, x) + Fraction(1, 2 ** (op.k - 1))
    assert not checks.check_modulus(m, tree, other, op.k, op.prefixes,
                                    workloads.run_digits)


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_run(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                     "--trace", trace, "--short")
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    detail = json.loads((ROOT / ".bench_results" /
                         f"result-{workload}-seed5-trace{trace}.json").read_text())
    colds = len(detail["cold"])
    ops, warm_passes = workloads.make(workload, 5, short=True)
    warm_ops = sum(op.warm_able for op in ops)
    assert line["attempted"] == colds * (len(ops) + warm_passes * warm_ops)
    # the one failing operation: `eval "logistic(3/2)" --at -1/3 --prec 20`
    assert line["failed"] == (colds if workload == "eval_digits" else 0)
    metrics = line["metrics"]
    if trace == "0":
        assert set(metrics) == {"setup_s", "cold_s", "warm_s", "peak_rss_mb"}
        assert all(m["value"] > 0 for m in metrics.values())
        return
    values = {k: m["value"] for k, m in metrics.items()}
    if workload != "eval_digits":
        assert values["sdstream.input_digits"] == 0
    if workload == "integrate_logistic":
        assert values["ctree.compose.expansions"] == 0
        assert values["integrate.fold_visits"] > 0
    else:
        assert values["ctree.compose.expansions"] > 0
    again = run_bench("--workload", workload, "--seed", "5", "--seconds", "0.1",
                      "--trace", "1", "--short")
    repeat = json.loads(again.stdout.strip().splitlines()[-1])["metrics"]
    for name, m in metrics.items():
        if m["unit"] == "count" and name != "gc.collections":
            assert repeat[name]["value"] == m["value"], name


def test_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_bench("--workload", "eval_digits", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
