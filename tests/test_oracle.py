import pytest

from sdreal.errors import DomainError
from sdreal.exprdsl import to_tree
from oracle import (
    Comp,
    Lin,
    Logistic,
    Pow,
    Quad,
    eval_exact,
    integral_exact,
    lipschitz_bound,
    modulus_exact,
    poly_coeffs,
)
from sdreal.rationals import Rat

from conftest import GRID


def test_eval_examples():
    assert eval_exact(Logistic(2), Rat(7, 10)) == Rat(1, 50)
    assert eval_exact(Lin(Rat(1, 4), Rat(1, 5)), Rat(1, 3)) == Rat(17, 60)
    assert eval_exact(Pow(Logistic(2), 1), Rat(1, 3)) == eval_exact(
        Logistic(2), Rat(1, 3)
    )


def test_eval_domain_error():
    with pytest.raises(DomainError):
        eval_exact(Logistic(1), Rat(3, 2))


def test_construction_range_checks():
    with pytest.raises(DomainError):
        to_tree(Lin(Rat(1, 2), Rat(2, 3)))
    with pytest.raises(DomainError):
        to_tree(Quad(Rat(2), 0, 0))
    with pytest.raises(DomainError):
        to_tree(Logistic(Rat(5, 2)))
    with pytest.raises(DomainError):
        to_tree(Pow(Logistic(1), 0))


def test_comp_evaluates_exactly():
    e = Comp(Logistic(2), Lin(Rat(1, 2), 0))
    for q in GRID:
        inner = eval_exact(Lin(Rat(1, 2), 0), q)
        assert eval_exact(e, q) == eval_exact(Logistic(2), inner)


def test_integral_examples():
    assert integral_exact(Logistic(Rat(3, 2))) == 0
    assert integral_exact(Lin(Rat(1, 4), Rat(1, 5))) == Rat(2, 5)
    for u in (Rat(1), Rat(-1, 3), Rat(1, 2)):
        assert integral_exact(Lin(u, Rat(0))) == 0


def test_expansion_matches_pointwise_eval():
    e = Comp(Quad(Rat(1, 2), Rat(1, 4), 0), Logistic(Rat(3, 4)))
    coeffs = poly_coeffs(e)
    for i in range(17):
        q = Rat(i - 8, 8)
        direct = eval_exact(e, q)
        horner = Rat(0)
        for c in reversed(coeffs):
            horner = horner * q + c
        assert direct == horner


def test_degree_cap():
    with pytest.raises(DomainError):
        poly_coeffs(Pow(Logistic(2), 7))  # degree 2^7 = 128 > 64
    assert len(poly_coeffs(Pow(Logistic(2), 6))) == 65


def test_modulus_examples():
    eps = Rat(1, 8)
    assert modulus_exact(Lin(Rat(1, 2), 0), eps) == 2 * eps
    assert modulus_exact(Lin(Rat(0), Rat(1, 3)), eps) == eps
    assert modulus_exact(Logistic(2), eps) == eps / 4


def test_modulus_requires_positive_eps():
    with pytest.raises(DomainError):
        modulus_exact(Logistic(1), Rat(0))


def test_lipschitz_bound_dominates_slope():
    e = Comp(Logistic(Rat(3, 2)), Quad(Rat(1, 2), Rat(1, 4), 0))
    L = lipschitz_bound(e)
    pts = [Rat(i - 8, 8) for i in range(17)]
    for x in pts:
        for y in pts:
            if x != y:
                assert abs(eval_exact(e, x) - eval_exact(e, y)) <= L * abs(
                    x - y
                )


def test_modulus_soundness_on_grid_pairs():
    e = Quad(Rat(1, 2), Rat(1, 4), Rat(1, 8))
    eps = Rat(1, 16)
    delta = modulus_exact(e, eps)
    pts = [Rat(i - 16, 16) for i in range(33)]
    for x in pts:
        for y in pts:
            if abs(x - y) <= delta:
                assert abs(eval_exact(e, x) - eval_exact(e, y)) <= eps
