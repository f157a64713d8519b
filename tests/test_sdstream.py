from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sdreal.errors import DomainError
from sdreal.rationals import Rat, rat_str
from sdreal.sdstream import (
    DIGITS,
    N,
    P,
    Z,
    DigitStream,
    SignedDigit,
    cauchy_to_stream,
    const_seq,
    constant,
    cycle,
    digits_from_str,
    digits_str,
    digits_value,
    from_digits,
    select_digit,
    sigma_approx,
)

from conftest import quarter_rule, within

rationals_in_I = st.fractions(min_value=-1, max_value=1, max_denominator=512)


def test_three_digits():
    assert [int(d) for d in DIGITS] == [-1, 0, 1]
    assert digits_str([P, Z, N]) == "PZN"
    assert digits_from_str("PZN") == [P, Z, N]


def test_sigma_empty_prefix():
    assert sigma_approx(constant(P), 0) == 0


def test_sigma_alternating():
    # (1 + (0 + (1 + 0/2)/2)/2)/2 unfolded by hand
    assert sigma_approx(cycle([P, Z]), 4) == Rat(5, 8)


def test_sigma_alternating_approaches_two_thirds():
    s = cycle([P, Z])
    third = Rat(2, 3)
    for n in range(65):
        assert within(sigma_approx(s, n), third, n)


def test_sigma_denominator_divides_power_of_two():
    s = cauchy_to_stream(const_seq(Rat(7, 10)))
    for n in range(1, 40):
        assert 2**n % sigma_approx(s, n).denominator == 0


@given(st.lists(st.sampled_from(DIGITS), max_size=300))
def test_digits_value_matches_horner_sum(digits):
    acc = 0
    for d in digits:
        acc = 2 * acc + int(d)
    assert digits_value(digits) == Rat(acc, 2 ** len(digits))


def counted_stream(forced):
    """P, P, ... with each forced tail recorded in `forced`."""

    def tail():
        forced.append(1)
        return counted_stream(forced)

    return DigitStream(P, tail)


@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_take_and_sigma_force_no_tail_past_the_last_digit(n):
    # reading n digits forces n - 1 tails: a forced tail computes the
    # next digit, and a tree walk behind it would expand nodes for it
    for read in (DigitStream.take, sigma_approx):
        forced = []
        read(counted_stream(forced), n)
        assert len(forced) == max(n - 1, 0)
    assert counted_stream([]).take(n) == [P] * n
    assert sigma_approx(counted_stream([]), n) == 1 - Rat(1, 2**n)


def test_select_digit():
    assert select_digit(Rat(0)) is Z
    assert select_digit(Rat(2, 3)) is P
    assert select_digit(Rat(-1, 4)) is Z
    assert select_digit(Rat(1, 4)) is Z
    assert select_digit(Rat(-26, 100)) is N
    assert select_digit(Rat(26, 100)) is P


def test_const_seq_bounds():
    assert const_seq(Rat(1, 3))(17) == Rat(1, 3)
    assert const_seq(Rat(1))(0) == 1
    with pytest.raises(DomainError):
        const_seq(Rat(3, 2))


def test_cauchy_to_stream_zero():
    s = cauchy_to_stream(const_seq(Rat(0)))
    assert s.take(10) == [Z] * 10


def test_cauchy_to_stream_two_thirds():
    s = cauchy_to_stream(const_seq(Rat(2, 3)))
    # hand simulation of the step rule: 2/3 -> P, 1/3 -> P, -1/3 -> N, ...
    assert digits_str(s.take(7)) == "PPNPNPN"
    for n in range(33):
        assert within(sigma_approx(s, n), Rat(2, 3), n)


def test_cauchy_to_stream_seven_tenths():
    s = cauchy_to_stream(const_seq(Rat(7, 10)))
    assert s.head is P
    for n in range(65):
        assert within(sigma_approx(s, n), Rat(7, 10), n)


def test_digit_soundness_instrumented():
    # track the exact residual alongside the emitted digits: it must stay
    # inside [-1,1] at every stage
    for q in (Rat(7, 10), Rat(-13, 17), Rat(1), Rat(-1), Rat(99, 100)):
        s = cauchy_to_stream(const_seq(q))
        residual = q
        for _ in range(64):
            assert abs(residual) <= 1
            residual = 2 * residual - int(s.head)
            s = s.tail


def test_persistence_interleaved():
    s = cauchy_to_stream(const_seq(Rat(5, 7)))
    a, b = s, s
    seen_a, seen_b = [], []
    for i in range(40):
        if i % 3 != 2:
            seen_a.append(a.head)
            a = a.tail
        else:
            seen_b.append(b.head)
            b = b.tail
    replay = s.take(len(seen_a))
    assert seen_a == replay
    assert seen_b == s.take(len(seen_b))


def test_from_digits_prefix():
    s = from_digits([P, N])
    assert s.take(4) == [P, N, Z, Z]


@given(rationals_in_I, st.integers(0, 24), st.integers(0, 24))
@settings(max_examples=150, deadline=None)
def test_prefix_monotonicity(q, n, m):
    if n > m:
        n, m = m, n
    s = cauchy_to_stream(const_seq(q))
    gap = abs(sigma_approx(s, n) - sigma_approx(s, m))
    assert gap <= Rat(1, 2**n) - Rat(1, 2**m)


@given(rationals_in_I, st.integers(0, 64))
@settings(max_examples=150, deadline=None)
def test_round_trip(q, n):
    s = cauchy_to_stream(const_seq(q))
    assert within(sigma_approx(s, n), q, n)


def closure_chain_stream(f):
    """Reference rule: the step rule cauchy_to_stream replaced, kept
    verbatim.  Digit k is select_digit(g_k(2)) where g_k is a chain of k
    nested closures g_{k+1}(n) = 2*g_k(n+1) - e_k."""

    def step(g):
        d = select_digit(g(2))
        e = int(d)

        def shifted(n, g=g, e=e):
            return 2 * g(n + 1) - e

        return DigitStream(d, lambda: step(shifted))

    return step(f)


def alternating_seq(q):
    """A non-constant fast Cauchy sequence for q: q + (-1)^n 2^-(n+2)."""
    return lambda n: q + Rat((-1) ** n, 2 ** (n + 2))


# the reference rule costs O(n^2) rational operations for n digits, so
# few examples keep this test at a few seconds
@given(rationals_in_I)
@settings(max_examples=15, deadline=None)
def test_cauchy_to_stream_matches_closure_chain_rule(q):
    for seq in (const_seq, alternating_seq):
        got = cauchy_to_stream(seq(q)).take(200)
        assert got == closure_chain_stream(seq(q)).take(200)


def shifted_reference_stream(f, count):
    """Reference rule: the first `count` digits by the Fraction step
    cauchy_to_stream used before its integer test, kept verbatim, with
    t <- 2t + d."""
    out, t = [], 0
    for k in range(count):
        d = quarter_rule(2**k * f(k + 2) - t)
        out.append(d)
        t = 2 * t + int(d)
    return out


def tie_seq(q):
    """A fast Cauchy sequence for q, q + (-1)^n 2^-n, whose shifted
    residual at digit k is 2^k q - t_k -+ 1/4: once a dyadic q is used up,
    every digit is a tie at +-1/4."""
    return lambda n: q + Rat((-1) ** n, 2**n)


dyadics_in_I = st.integers(0, 12).flatmap(
    lambda m: st.integers(-(2**m), 2**m).map(lambda j: Fraction(j, 2**m))
)


@given(dyadics_in_I)
@example(Rat(0))
@example(Rat(1, 4))
@example(Rat(-1, 4))
@example(Rat(-5, 8))
@settings(max_examples=40, deadline=None)
def test_integer_digits_match_fraction_rule(q):
    for seq in (const_seq, alternating_seq, tie_seq):
        got = cauchy_to_stream(seq(q)).take(300)
        assert got == shifted_reference_stream(seq(q), 300)


@pytest.mark.parametrize("q", [-1, 0, 1])
def test_integer_digits_of_an_int_sequence(q):
    def f(n):
        return q

    got = cauchy_to_stream(f).take(300)
    assert got == shifted_reference_stream(f, 300)
    assert all(type(d) is SignedDigit for d in got)


def test_digit_stream_converts_int_heads():
    s = constant(Z)
    assert DigitStream(1, s).head is P
    assert DigitStream(P, s).head is P
    with pytest.raises(ValueError):
        DigitStream(2, s)
    assert digits_str(from_digits([1, 0, -1]).take(4)) == "PZNZ"


def test_rat_str():
    assert rat_str(Rat(2, 4)) == "1/2"
    assert rat_str(Rat(-3)) == "-3"
    assert rat_str(Rat(0)) == "0"
