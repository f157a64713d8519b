"""The benchmark's workloads: seeded inputs and the operations run on them.

Each operation has a cold form, which compiles its tree from text and
answers it the way a user does, and a warm form, which answers the same
question on a tree compiled once and already expanded.  Both return the
answer as the text the CLI prints, so cold and warm answers compare as
strings and the checks in `checks.py` read them as a user would.  Each
operation also says how a traced run splits it into calls into layers:
`build` makes its tree from the builders while keeping the leaves,
`answer` is the call into `layer`, and `render` the call that prints.
"""

import io
import random
from contextlib import redirect_stderr
from fractions import Fraction

from sdreal import cli, ctree, digitsys, exprdsl, integrate, rationals, sdstream

import checks

WORKLOADS = ("eval_digits", "integrate_logistic", "modulus_composed")


def seeded(rng, lo, hi, den):
    """A rational j/den in [lo, hi].  `den` is prime, so every seed gives
    the same denominator; the trees' state counts depend on it, and so
    vary little between seeds."""
    lo, hi = Fraction(lo), Fraction(hi)
    first = -((-lo.numerator * den) // lo.denominator)
    last = (hi.numerator * den) // hi.denominator
    return Fraction(rng.randint(first, last), den)


def signed(rng, lo, hi, den):
    x = seeded(rng, lo, hi, den)
    return x if rng.random() < 0.5 else -x


def build(spec, leaves):
    """The tree `exprdsl.to_tree` compiles for `spec`, built from the
    builders directly; each leaf is appended to `leaves` as
    (builder family, tree) so that its expansions can be counted."""
    kind = spec[0]
    if kind == "lin":
        t = digitsys.lin_tree([spec[1]], spec[2])
        leaves.append(("build_tree", t))
    elif kind == "quad":
        t = digitsys.quad_tree(*spec[1:])
        leaves.append(("quad", t))
    elif kind == "logistic":
        t = digitsys.logistic_tree(spec[1])
        leaves.append(("quad", t))
    elif kind == "comp":
        t = ctree.compose(build(spec[1], leaves), (build(spec[2], leaves),))
    else:
        t = digitsys.iterate_tree(build(spec[1], leaves), spec[2])
    return t


def expansions_by_builder(tree, leaves):
    """Expansions of a built tree, split into the leaf builders' own and
    the remainder, which `compose` made."""
    counts = {"quad": 0, "build_tree": 0}
    for family, leaf in leaves:
        counts[family] += ctree.expansion_count(leaf)
    counts["compose"] = ctree.expansion_count(tree) - sum(counts.values())
    return counts


def run_cli(argv):
    """`sdreal <argv>` in-process: (exit code, stdout text)."""
    out = io.StringIO()
    with redirect_stderr(io.StringIO()):
        code = cli.main(argv, out=out)
    return code, out.getvalue()


class Op:
    """One operation.  Subclasses define the cold and warm forms, how the
    traced run splits them into layer calls, and the check."""

    warm_able = True
    evaluator = None
    render_layer = "rationals.render"

    def cold(self):
        """`sdreal <argv>` in-process: (exit code, printed answer)."""
        code, out = run_cli(self.argv)
        return code, out.strip()

    def compile(self):
        return exprdsl.to_tree(exprdsl.parse(self.text))

    def build(self, leaves):
        return build(self.spec, leaves)

    def warm(self, tree):
        return self.render(self.answer(tree))


class EvalOp(Op):
    """`sdreal eval EXPR --at=X --prec N`."""

    layer = "ctree.apply"

    def __init__(self, spec, x, prec, at_split=False):
        self.spec, self.x, self.prec = spec, Fraction(x), prec
        self.text = checks.spec_text(spec)
        at = checks.rat_text(self.x)
        # at_split: typed as `--at X`, which argparse refuses for X < 0
        self.argv = ["eval", self.text] + (
            ["--at", at] if at_split else [f"--at={at}"]
        ) + ["--prec", str(prec)]
        self.warm_able = not at_split

    def answer(self, tree, stream=None):
        if stream is None:
            return ctree.eval_at(tree, self.x, self.prec)
        return sdstream.sigma_approx(ctree.apply(tree, (stream,)), self.prec)

    def render(self, value):
        return rationals.rat_str(value)

    def input_stream(self):
        return sdstream.cauchy_to_stream(sdstream.const_seq(self.x))

    def check(self, answer, tree):
        if self.spec[0] == "pow" and self.spec[1][0] == "logistic":
            return checks.check_iterate(
                answer, self.spec[1][1], self.x, self.spec[2], self.prec
            )
        return checks.check_value(answer, self.spec, self.x, self.prec)


class DigitsOp(EvalOp):
    """`sdreal digits EXPR --at=X --count K`."""

    render_layer = "sdstream.digits_str"

    def __init__(self, spec, x, count):
        super().__init__(spec, x, count)
        self.argv = ["digits", self.text, f"--at={checks.rat_text(self.x)}",
                     "--count", str(count)]

    def answer(self, tree, stream=None):
        if stream is None:
            stream = self.input_stream()
        return ctree.apply(tree, (stream,)).take(self.prec)

    def render(self, value):
        return sdstream.digits_str(value)

    def check(self, answer, tree):
        return checks.check_digits(answer, self.spec, self.x, self.prec)


class IntegrateOp(Op):
    """`sdreal integrate "logistic(a)" --prec K`."""

    layer = "integrate.fold"

    def __init__(self, a, k):
        self.spec, self.a, self.k = ("logistic", Fraction(a)), Fraction(a), k
        self.text = checks.spec_text(self.spec)
        self.argv = ["integrate", self.text, "--prec", str(k)]

    def answer(self, tree):
        return integrate.integral(tree, self.k)

    def render(self, res):
        return (f"{rationals.rat_str(res.value)} "
                f"(error bound {rationals.rat_str(res.error_bound)})")

    def check(self, answer, tree):
        return checks.check_integral(answer, self.a, self.k)


class ModulusOp(Op):
    """`ctree.modulus(tree, k)`; the tree comes from expression text or,
    when `evaluator` is given, from `digitsys.tree_from_modulus`."""

    layer = "ctree.modulus"
    render_layer = "str"

    def __init__(self, spec, k, prefixes, evaluator=None):
        self.spec, self.k, self.prefixes = spec, k, prefixes
        self.evaluator = evaluator
        self.text = checks.spec_text(spec)

    def compile(self):
        if self.evaluator is not None:
            return digitsys.tree_from_modulus(self.evaluator)
        return super().compile()

    def build(self, leaves):
        if self.evaluator is None:
            return build(self.spec, leaves)
        t = digitsys.tree_from_modulus(self.evaluator)
        leaves.append(("build_tree", t))
        return t

    def cold(self):
        return 0, self.render(self.answer(self.compile()))

    def answer(self, tree):
        return ctree.modulus(tree, self.k)

    def render(self, m):
        return str(m)

    def check(self, answer, tree):
        return checks.check_modulus(
            answer, tree, lambda x: checks.exact_value(self.spec, x),
            self.k, self.prefixes, run_digits,
        )


def run_digits(tree, digits, k):
    """First k output digits of a unary tree on `digits` then zeros."""
    s = sdstream.from_digits([sdstream.SignedDigit(d) for d in digits])
    return [int(d) for d in ctree.apply(tree, (s,)).take(k)]


def quad_evaluator(c):
    """A ModulusEvaluator for x -> c x^2 (Lipschitz constant 2|c|), as a
    user would supply it: exact values and the modulus eps / (2|c|)."""
    lip = 2 * abs(c)
    return digitsys.ModulusEvaluator(
        approx=lambda p, delta: c * p * p, modulus=lambda eps: eps / lip
    )


def make(name, seed, short=False):
    """(operations, warm passes per round) of workload `name` for `seed`.

    The operations and their number depend only on `name` and `short`;
    the seed picks their coefficients and points from fixed narrow
    strata, so that every seed asks for about the same work.
    """
    rng = random.Random(f"{name}:{seed}")
    if name == "eval_digits":
        # iterates of logistic(a), a near 2: about one input digit per
        # output digit per iterate, so the work depends little on the seed
        n_iter = (12, 10, 8) if short else (100, 80, 60)
        ops = [
            EvalOp(("pow", ("logistic", seeded(rng, "1.99", 2, 10007)), n),
                   signed(rng, "0.05", "0.95", 10009), 100)
            for n in n_iter
        ]
        comp = ("comp", ("lin", signed(rng, "0.3", "0.5", 101),
                         signed(rng, "0.1", "0.3", 103)),
                ("comp", ("quad", signed(rng, "0.3", "0.5", 107),
                          signed(rng, "0.1", "0.2", 109),
                          signed(rng, "0.1", "0.2", 113)),
                 ("logistic", seeded(rng, "1.5", 2, 127))))
        ops.append(EvalOp(comp, signed(rng, "0.05", "0.95", 10009), 200))
        big = 300 if short else 3000
        ops.append(DigitsOp(
            ("quad", signed(rng, "0.3", "0.5", 131), signed(rng, "0.1", "0.2", 137),
             signed(rng, "0.1", "0.2", 139)),
            signed(rng, "0.05", "0.95", 10009), big))
        ops.append(EvalOp(
            ("lin", signed(rng, "0.3", "0.5", 149), signed(rng, "0.1", "0.3", 151)),
            signed(rng, "0.05", "0.95", 10009), 4 * big // 3))
        # the form a user types; argparse reads -1/3 as an option
        ops.append(EvalOp(("logistic", Fraction(3, 2)), Fraction(-1, 3), 20,
                          at_split=True))
        return ops, 5
    if name == "integrate_logistic":
        strata = (("0.45", "0.55", 16), ("1.2", "1.3", 15),
                  ("1.5", "1.6", 15), ("1.85", "1.95", 15))
        return [
            IntegrateOp(seeded(rng, lo, hi, 10007), k - 7 if short else k)
            for lo, hi, k in strata
        ], 3
    if name == "modulus_composed":
        half = ("lin", Fraction(1, 2), Fraction(0))
        k_comp, k_pow, k_tfm = (5, 2, 6) if short else (8, 4, 10)
        ops = []
        for _ in range(2):
            a = seeded(rng, "1.85", "1.95", 10007)
            ops.append(ModulusOp(("comp", ("logistic", a), half), k_comp,
                                 prefixes(rng)))
        ops.append(ModulusOp(("pow", ("logistic", Fraction(2)), 3), k_pow,
                             prefixes(rng)))
        c = signed(rng, "0.45", "0.5", 10007)
        ops.append(ModulusOp(("quad", c, Fraction(0), Fraction(0)), k_tfm,
                             prefixes(rng), evaluator=quad_evaluator(c)))
        return ops, 5
    raise ValueError(f"unknown workload {name!r}")


def prefixes(rng, count=6, length=64):
    """Seeded input-digit prefixes for the modulus check."""
    return [[rng.choice((-1, 0, 1)) for _ in range(length)] for _ in range(count)]
