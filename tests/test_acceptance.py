"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import gc
import random
import time
from collections import Counter

import pytest

from sdreal.cli import float_iterate
from sdreal.ctree import (
    apply,
    compose,
    eval_at,
    expansion_count,
    feed_digit,
    modulus,
    WriteNode,
)
from sdreal.digitsys import (
    iterate_tree,
    lin_tree,
    logistic_tree,
    quad_tree,
    tree_from_modulus,
)
from sdreal.exprdsl import parse, to_tree
from oracle import (
    Comp,
    Lin,
    Logistic,
    Pow,
    Quad,
    eval_exact,
    lipschitz_evaluator,
)
from sdreal.rationals import Rat
from sdreal.sdstream import DIGITS, N, P, Z, constant, from_digits

from conftest import GRID, within

T100_RESULT = Rat(1008550774065780194036545699607, 2**100)


def report(num, ok, detail=""):
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module", autouse=True)
def _no_gc():
    # timing-sensitive criteria below allocate millions of long-lived
    # tree nodes; generational collection scans would dominate the clock
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()
        gc.collect()


@pytest.fixture(scope="module")
def t100():
    return to_tree(parse("pow(logistic(2), 100)"))


def test_criterion_1_lin_paper_value():
    t = to_tree(parse("lin(1/4, 1/5)"))
    start = time.perf_counter()
    value = eval_at(t, Rat(1, 3), 10)
    elapsed = time.perf_counter() - start
    ok = value == Rat(145, 512) and elapsed < 0.010
    report(1, ok, f"value {value}, {elapsed*1000:.2f} ms")


def test_criterion_2_t100_bit_exact(t100):
    start = time.perf_counter()
    value = eval_at(t100, Rat(7, 10), 100)
    elapsed = time.perf_counter() - start
    ok = value == T100_RESULT and elapsed <= 60
    report(2, ok, f"bit-exact, {elapsed:.2f} s")


def test_criterion_3_fig1_behaviors():
    t = quad_tree(Rat(-2, 3), 0, Rat(-1, 3))
    node = t.root
    root_ok = isinstance(node, WriteNode) and node.digit is N
    zeros = apply(t, (constant(Z),)).take(6)
    half = apply(t, (from_digits([P]),)).take(4)
    ok = root_ok and zeros == [N, Z, P, Z, P, Z] and half == [N, Z, Z, Z]
    report(3, ok)


def test_criterion_4_integration_bound():
    from sdreal.integrate import integral

    start = time.perf_counter()
    ok = True
    for a in (Rat(0), Rat(1, 2), Rat(1), Rat(3, 2), Rat(2)):
        t = logistic_tree(a)
        exact = 4 * a / 3 - 2
        for k in range(1, 17):
            res = integral(t, k)
            if abs(res.value - exact) > Rat(2, 2**k):
                ok = False
    # the paper's own call shape
    paper_call = integral(logistic_tree(Rat(3, 2)), 10)
    ok = ok and abs(paper_call.value) <= Rat(2, 2**10)
    elapsed = time.perf_counter() - start
    report(4, ok and elapsed < 5, f"{elapsed:.2f} s")


def _random_rat(rng, lo, hi, den=16):
    lo_n = int(lo * den)
    hi_n = int(hi * den)
    return Rat(rng.randint(lo_n, hi_n), den)


def _random_expr(rng, depth):
    kinds = ["lin", "quad", "logistic"]
    if depth > 0:
        kinds += ["comp", "pow"]
    kind = rng.choice(kinds)
    if kind == "comp":
        return Comp(_random_expr(rng, depth - 1), _random_expr(rng, depth - 1))
    if kind == "pow":
        return Pow(_random_expr(rng, depth - 1), rng.randint(1, 6))
    while True:
        try:
            if kind == "lin":
                u = _random_rat(rng, -1, 1)
                e = Lin(u, _random_rat(rng, -(1 - abs(u)), 1 - abs(u)))
            elif kind == "logistic":
                e = Logistic(_random_rat(rng, 0, 2))
            else:
                e = Quad(
                    _random_rat(rng, -1, 1),
                    _random_rat(rng, -1, 1),
                    _random_rat(rng, -1, 1),
                )
            to_tree(e)  # the builders refuse a map that leaves [-1,1]
            return e
        except Exception:
            kind = rng.choice(["lin", "quad", "logistic"])


def _layers(e):
    # count of degree-<=2 layers the expression stacks; exact rational
    # evaluation doubles digit size per layer, so keep this bounded
    if isinstance(e, Comp):
        return _layers(e.outer) + _layers(e.inner)
    if isinstance(e, Pow):
        return e.n * _layers(e.base)
    return 1


def test_criterion_5_oracle_equivalence():
    rng = random.Random(20090417)
    failures = 0
    for _ in range(200):
        e = _random_expr(rng, depth=3)
        while _layers(e) > 24:
            e = _random_expr(rng, depth=3)
        t = to_tree(e)
        for q in GRID:
            if not within(eval_at(t, q, 24), eval_exact(e, q), 24):
                failures += 1
    report(5, failures == 0, f"{failures} disagreements over 200 exprs")


def test_criterion_6_feed_and_compose():
    ok = True
    pairs = [
        (Lin(Rat(1, 2), Rat(1, 4)), lin_tree([Rat(1, 2)], Rat(1, 4))),
        (Quad(Rat(-2, 3), 0, Rat(-1, 3)), quad_tree(Rat(-2, 3), 0, Rat(-1, 3))),
        (Logistic(Rat(3, 2)), logistic_tree(Rat(3, 2))),
    ]
    for e, t in pairs:
        for d in DIGITS:
            fed = feed_digit(t, 1, d)
            for q in GRID:
                want = eval_exact(e, (q + int(d)) / 2)
                if not within(eval_at(fed, q, 24), want, 24):
                    ok = False
    for (ef, tf) in pairs:
        for (eg, tg) in pairs:
            comp = compose(tf, (tg,))
            for q in GRID:
                want = eval_exact(ef, eval_exact(eg, q))
                if not within(eval_at(comp, q, 24), want, 24):
                    ok = False
    ident = lin_tree([Rat(1)], 0)
    for e, t in pairs:
        for q in GRID:
            want = eval_exact(e, q)
            if not within(eval_at(compose(t, (ident,)), q, 24), want, 24):
                ok = False
            if not within(eval_at(compose(ident, (t,)), q, 24), want, 24):
                ok = False
    report(6, ok)


def _sample_trees():
    # (tree, precisions); k = 12 on the composed trees costs seconds more
    deep = (1, 4, 8, 12)
    shallow = (1, 4, 8, 10)
    trees = []
    for i in range(1, 9):
        trees.append((lin_tree([Rat(i, 8)], Rat(8 - i, 16)), deep))
        trees.append((lin_tree([Rat(-i, 8)], 0), deep))
    for i in range(8):
        a = Rat(i + 1, 4)
        trees.append((logistic_tree(a), deep))
    for i in range(1, 9):
        trees.append((quad_tree(Rat(i, 8), Rat(0), Rat(1 - Rat(i, 8))), deep))
        trees.append((quad_tree(Rat(-i, 16), Rat(i, 16), 0), deep))
    for i in range(1, 11):
        trees.append(
            (compose(logistic_tree(Rat(i, 5)), (lin_tree([Rat(1, 2)], 0),)),
             shallow)
        )
    return trees[:50]


def test_criterion_7_modulus_soundness():
    ok = True
    trees = _sample_trees()
    patterns = {0: [Z], 1: [P, N], 2: [N, Z, P]}
    for idx, (t, ks) in enumerate(trees):
        for k in ks:
            m = modulus(t, k)
            prefix = (patterns[idx % 3] * (m + 1))[:m]
            outs = set()
            for d in DIGITS:
                s = from_digits(prefix + [d])
                outs.add(tuple(apply(t, (s,)).take(k)))
            if len(outs) != 1:
                ok = False
    groups = Counter(ks for _, ks in trees)
    report(7, ok, ", ".join(
        f"{n} trees at k in {{{','.join(map(str, ks))}}}"
        for ks, n in groups.items()
    ))


def test_criterion_8_tree_from_modulus():
    ok = True
    for e in (
        Lin(Rat(1, 2), 0),
        Quad(Rat(1, 2), 0, 0),
        Quad(Rat(-2, 3), 0, Rat(-1, 3)),
    ):
        t = tree_from_modulus(lipschitz_evaluator(e))
        for q in GRID:
            if not within(eval_at(t, q, 16), eval_exact(e, q), 16):
                ok = False
    report(8, ok)


def test_criterion_9_memoization():
    # fresh tree: the timing contrast needs a cold first run
    t100 = iterate_tree(logistic_tree(2), 100)
    start = time.perf_counter()
    first = eval_at(t100, Rat(7, 10), 100)
    first_time = time.perf_counter() - start
    count = expansion_count(t100)
    start = time.perf_counter()
    second = eval_at(t100, Rat(7, 10), 100)
    second_time = time.perf_counter() - start
    ok = (
        first == second
        and expansion_count(t100) == count
        and second_time <= 0.05 * first_time
    )
    report(
        9,
        ok,
        f"second run {second_time*1000:.1f} ms vs {first_time*1000:.1f} ms, "
        f"0 new expansions",
    )


def test_criterion_10_float_divergence():
    value = float_iterate()
    ok = repr(value) == "-0.1571454279758806"
    report(10, ok, repr(value))
