"""Correctness checks computed apart from the program, with Fraction only.

Every function here takes the program's answer as text (as the CLI or the
renderers print it) and recomputes what it must be from the function's
definition.  Nothing in `sdreal` is trusted: `sdreal.oracle` is not used,
and the modulus check walks the program's tree only to test it.
"""

from fractions import Fraction

# Function specs mirror the expression language:
#   ("lin", u, v)  ("quad", u, v, w)  ("logistic", a)
#   ("comp", outer, inner)  ("pow", base, n)


def spec_text(spec):
    """The spec as expression-language text, coefficients as exact p/q."""
    kind = spec[0]
    if kind == "comp":
        inner = spec_text(spec[2])
        if spec[2][0] == "comp":
            inner = f"({inner})"
        return f"{spec_text(spec[1])} o {inner}"
    if kind == "pow":
        return f"pow({spec_text(spec[1])}, {spec[2]})"
    return f"{kind}({', '.join(rat_text(c) for c in spec[1:])})"


def rat_text(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def exact_value(spec, x):
    """f(x) as an exact Fraction."""
    kind = spec[0]
    if kind == "lin":
        return spec[1] * x + spec[2]
    if kind == "quad":
        return spec[1] * x * x + spec[2] * x + spec[3]
    if kind == "logistic":
        return spec[1] * (1 - x * x) - 1
    if kind == "comp":
        return exact_value(spec[1], exact_value(spec[2], x))
    if kind == "pow":
        for _ in range(spec[2]):
            x = exact_value(spec[1], x)
        return x
    raise ValueError(f"unknown spec {spec!r}")


def logistic_iterate_interval(a, x, n, bits):
    """Outward-rounded enclosure [lo, hi] of the n-th iterate of
    x -> a(1 - x^2) - 1, in fixed point with `bits` fractional bits."""
    a = Fraction(a)
    p, q = a.numerator, a.denominator
    one = 1 << bits
    x = Fraction(x)
    lo = (x.numerator << bits) // x.denominator
    hi = -((-x.numerator << bits) // x.denominator)
    for _ in range(n):
        if lo >= 0:
            sq_lo, sq_hi = lo * lo, hi * hi
        elif hi <= 0:
            sq_lo, sq_hi = hi * hi, lo * lo
        else:
            sq_lo, sq_hi = 0, max(lo * lo, hi * hi)
        sq_lo >>= bits  # floor
        sq_hi = -((-sq_hi) >> bits)  # ceiling
        # a >= 0, so a(1 - x^2) is decreasing in x^2
        lo = (p * (one - sq_hi)) // q - one
        hi = -((-p * (one - sq_lo)) // q) - one
    return Fraction(lo, one), Fraction(hi, one)


def check_iterate(answer, a, x, n, prec, bits=None):
    """eval of pow(logistic(a), n) at x to 2^-prec.

    The enclosure, computed with `bits` fractional bits (by default
    enough for the map's expansion by at most 4 per step), must be
    narrower than 2^-(prec+8), else the check fails; it passes when the
    whole enclosure lies within 2^-prec of the answer."""
    y = Fraction(answer)
    if bits is None:
        bits = prec + 2 * n + 40
    lo, hi = logistic_iterate_interval(a, x, n, bits)
    if hi - lo >= Fraction(1, 2 ** (prec + 8)):
        return False
    tol = Fraction(1, 2**prec)
    return y - tol <= lo and hi <= y + tol


def check_value(answer, spec, x, prec):
    """eval of a map or a composition: within 2^-prec of the exact f(x)."""
    return abs(Fraction(answer) - exact_value(spec, x)) <= Fraction(1, 2**prec)


def digits_value(text):
    """The value sum d_i 2^-(i+1) of N/Z/P digit text."""
    acc = 0
    for c in text:
        acc = 2 * acc + {"N": -1, "Z": 0, "P": 1}[c]
    return Fraction(acc, 2 ** len(text))


def check_digits(answer, spec, x, count):
    """The first `count` output digits sum to within 2^-count of f(x)."""
    if len(answer) != count or set(answer) - set("NZP"):
        return False
    return abs(digits_value(answer) - exact_value(spec, x)) <= Fraction(1, 2**count)


def check_integral(answer, a, k):
    """`value (error bound b)` for the integral of logistic(a) over
    [-1, 1]: b is 2^(1-k) and value is within b of 4a/3 - 2."""
    value, sep, rest = answer.partition(" (error bound ")
    if not sep or not rest.endswith(")"):
        return False
    bound = Fraction(1, 2 ** (k - 1))
    if Fraction(rest[:-1]) != bound:
        return False
    return abs(Fraction(value) - (Fraction(4, 3) * a - 2)) <= bound


def max_reads(tree, k):
    """The largest number of reads on any path before the k-th write,
    recomputed by walking the tree's nodes."""
    memo = {}

    def go(node, k):
        if k == 0:
            return 0
        key = (id(node), k)
        if key not in memo:
            if hasattr(node, "branches"):
                memo[key] = 1 + max(go(b.root, k) for b in node.branches)
            else:
                memo[key] = go(node.next.root, k - 1)
        return memo[key]

    return go(tree.root, k)


def check_modulus(answer, tree, f, k, prefixes, run):
    """modulus m of `tree` at k.

    m must equal the deepest read count before the k-th write; and on
    each given m-digit prefix, all three next digits (then zeros) must
    give the same first k output digits, within 2^-k of f at that exact
    input.  `run(tree, digits, k)` returns the first k output digits of
    the tree on the input digits followed by zeros; `f` is exact.
    """
    m = int(answer)
    if m != max_reads(tree, k):
        return False
    tol = Fraction(1, 2**k)
    for prefix in prefixes:
        prefix = prefix[:m]
        outs = set()
        for d in (-1, 0, 1):
            digits = list(prefix) + [d]
            out = run(tree, digits, k)
            x = sum(Fraction(e, 2 ** (i + 1)) for i, e in enumerate(digits))
            y = sum(Fraction(e, 2 ** (i + 1)) for i, e in enumerate(out))
            if abs(y - f(x)) > tol:
                return False
            outs.add(tuple(out))
        if len(outs) != 1:
            return False
    return True
