"""Exact rational reference semantics of function expressions: the
ground truth the engine's trees are tested against.

Evaluation, integration and Lipschitz moduli are computed exactly on the
expanded polynomial.  Expansion caps the degree at 64 — beyond that the
engine is the only route, which is the point of the engine.  Nothing here
checks that an expression maps [-1,1] into itself: `exprdsl.to_tree`
does, through the tree builders.
"""

from sdreal.digitsys import ModulusEvaluator
from sdreal.errors import DomainError
from sdreal.exprdsl import Comp, Lin, Logistic, Pow, Quad
from sdreal.rationals import Rat

POLY_DEGREE_CAP = 64


def eval_exact(e, x):
    """Exact rational value of the expression at rational x in [-1,1]."""
    x = Rat(x)
    if abs(x) > 1:
        raise DomainError(f"{x} lies outside [-1,1]")
    return _eval(e, x)


def _eval(e, x):
    if isinstance(e, Lin):
        return e.u * x + e.v
    if isinstance(e, Quad):
        return e.u * x * x + e.v * x + e.w
    if isinstance(e, Logistic):
        return e.a * (1 - x * x) - 1
    if isinstance(e, Comp):
        return _eval(e.outer, _eval(e.inner, x))
    if isinstance(e, Pow):
        for _ in range(e.n):
            x = _eval(e.base, x)
        return x
    raise TypeError(f"not a function expression: {e!r}")


def _poly_mul(a, b):
    out = [Rat(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return out


def _poly_compose(outer, inner):
    # Horner on the outer coefficients with polynomial argument
    acc = [outer[-1]]
    for c in reversed(outer[:-1]):
        acc = _poly_mul(acc, inner)
        acc[0] += c
    return acc


def _check_degree(coeffs):
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) - 1 > POLY_DEGREE_CAP:
        raise DomainError(
            f"polynomial expansion exceeds degree {POLY_DEGREE_CAP}"
        )
    return coeffs


def poly_coeffs(e):
    """Coefficients [c_0, c_1, ...] of the expanded polynomial; degree
    capped at 64 (raises DomainError beyond)."""
    if isinstance(e, Lin):
        return _check_degree([e.v, e.u])
    if isinstance(e, Quad):
        return _check_degree([e.w, e.v, e.u])
    if isinstance(e, Logistic):
        return _check_degree([e.a - 1, Rat(0), -e.a])
    if isinstance(e, Comp):
        return _check_degree(
            _poly_compose(poly_coeffs(e.outer), poly_coeffs(e.inner))
        )
    if isinstance(e, Pow):
        acc = poly_coeffs(e.base)
        base = acc
        for _ in range(e.n - 1):
            acc = _check_degree(_poly_compose(acc, base))
        return acc
    raise TypeError(f"not a function expression: {e!r}")


def integral_exact(e):
    """Exact integral over [-1,1] of the expanded polynomial."""
    total = Rat(0)
    for i, c in enumerate(poly_coeffs(e)):
        if i % 2 == 0:
            total += Rat(2 * c, i + 1)
    return total


def lipschitz_bound(e):
    """Exact L >= sup |f'| on [-1,1], from the derivative coefficients."""
    return sum(
        (i * abs(c) for i, c in enumerate(poly_coeffs(e)) if i > 0),
        Rat(0),
    )


def modulus_exact(e, eps):
    """delta such that |x-y| <= delta implies |f(x)-f(y)| <= eps.

    delta = eps/L for the Lipschitz bound L; constants get delta = eps.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    L = lipschitz_bound(e)
    return eps if L == 0 else eps / L


def lipschitz_evaluator(e):
    """Honest ModulusEvaluator for the expression, for tree_from_modulus."""
    L = lipschitz_bound(e)
    return ModulusEvaluator(
        approx=lambda p, delta: eval_exact(e, p),
        modulus=lambda eps: eps if L == 0 else eps / L,
    )
