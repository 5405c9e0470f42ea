import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq.scalars import BETA, ONE, ZERO, BetaScalar
from referees import at_b, binom_general

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=8)
polys = st.lists(fracs, max_size=4).map(tuple)
scalars = polys.map(BetaScalar)


# the coefficients the library builds are mostly single monomials c*b^k
nonzero = fracs.filter(bool)
monomials = st.builds(BetaScalar.beta_power, st.integers(0, 5), nonzero)
mixed = st.one_of(scalars, monomials)


def assert_normal_form(x):
    # what the public constructor would make of the same tuple
    y = BetaScalar(x.num)
    assert x == y and x.num == y.num and hash(x) == hash(y)
    assert all(type(c) is Fraction for c in x.num)
    assert not x.num or x.num[-1] != 0


def test_normal_form():
    # trailing zero coefficients are trimmed, so equality is structural
    s = BetaScalar((1, 0, Fraction(0)))
    assert s == ONE and s.num == (Fraction(1),)
    assert BetaScalar((0, 0)).num == ()
    assert (BETA - BETA).num == ()


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_division_by_a_constant():
    assert BetaScalar(3) / 2 == BetaScalar(Fraction(3, 2))
    assert (BETA + 2) / Fraction(1, 2) == 2 * BETA + 4


def test_no_rational_functions():
    x = BETA ** 2 + 1
    with pytest.raises(ArithmeticError):
        x / (BETA + 1)
    with pytest.raises(TypeError):
        1 / BETA
    with pytest.raises(ValueError):
        BETA ** -1
    with pytest.raises(ValueError):
        BetaScalar.beta_power(-1)
    with pytest.raises(TypeError):
        BetaScalar((1,), (1, 1))


@given(scalars, scalars, scalars)
@settings(max_examples=60, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == ZERO
    assert a * ONE == a


@given(mixed, mixed, nonzero, st.integers(0, 4), st.integers(-3, 3))
@settings(max_examples=100, deadline=None)
def test_ring_results_are_in_normal_form(a, b, c, k, n):
    # the ring operations skip the constructor's checks, so their results
    # must already be what the constructor would build
    results = [a + b, a - b, b - a, a + (-a), -a, a * b, a * (b - b),
               a + n, n + a, a - n, n - a, a * n, n * a, a / c, a / n if n else a,
               a ** k, BetaScalar.beta_power(k, c), BetaScalar.beta_power(k, 0)]
    for x in results:
        assert_normal_form(x)


@given(mixed, mixed)
@settings(max_examples=100, deadline=None)
def test_product_is_the_full_convolution(a, b):
    # the product skips zero coefficients, so check it against the
    # schoolbook convolution over every pair of coefficients
    want = [Fraction(0)] * (len(a.num) + len(b.num))
    for i, x in enumerate(a.num):
        for j, y in enumerate(b.num):
            want[i + j] += x * y
    assert a * b == BetaScalar(tuple(want))


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_hash_consistency(a):
    b = BetaScalar(a.num)
    assert a == b and hash(a) == hash(b)


@given(scalars, st.fractions(min_value=-6, max_value=6, max_denominator=3))
@settings(max_examples=60, deadline=None)
def test_specialize_is_a_homomorphism(a, v):
    av = at_b(a, v)
    assert at_b(a + a, v) == 2 * av
    assert at_b(a * a, v) == av * av


def test_specialize_values():
    s = BETA ** 2 + 2 * BETA - Fraction(1, 2)
    assert at_b(s, 0) == Fraction(-1, 2)
    assert at_b(s, 3) == Fraction(29, 2)
    assert at_b(s, Fraction(-1, 2)) == Fraction(-5, 4)


def test_power_including_negative():
    s = BETA + 1
    assert s ** 3 == s * s * s
    assert s ** 0 == ONE
    # b-dependent or not, a negative power is not in Q[b]
    with pytest.raises(ValueError):
        s ** -2
    with pytest.raises(ValueError):
        BetaScalar(2) ** -1


def test_binom_general():
    # the referee of laurent._univariate, pinned on its own
    assert binom_general(5, 2) == 10
    assert binom_general(0, 0) == 1
    assert binom_general(3, -1) == 0
    # reflection for negative upper index
    assert binom_general(-1, 3) == -1
    assert binom_general(-3, 2) == 6
    assert binom_general(Fraction(1, 2), 2) == Fraction(-1, 8)


@given(st.integers(-6, 6), st.integers(0, 8))
def test_binom_pascal(a, k):
    assert binom_general(a, k) + binom_general(a, k + 1) == binom_general(a + 1, k + 1)


@given(scalars)
@settings(max_examples=60, deadline=None)
def test_json_round_trip(a):
    # a scalar leaves the library through as_polynomial
    form = json.dumps([str(x) for x in a.as_polynomial()])
    assert BetaScalar(tuple(Fraction(x) for x in json.loads(form))) == a


def test_str_forms():
    assert str(ZERO) == "0"
    assert str(BETA ** 2 - 1) == "-1 + b^2"
    assert str(Fraction(1, 2) - 3 * BETA) == "1/2 - 3*b"
