from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq.finitevars import FinitePoly, from_finite
from kq.partitions import partitions_upto
from kq.pseries import PSeries
from kq.scalars import BETA, ONE, BetaScalar
from referees import eval_finite, power_sum_poly, scalar_terms


def test_power_sum_poly():
    p2 = power_sum_poly(2, 3)
    assert scalar_terms(p2) == {(2, 0, 0): ONE, (0, 2, 0): ONE, (0, 0, 2): ONE}
    with pytest.raises(ValueError):
        power_sum_poly(0, 3)


def test_eval_finite_products():
    # p_1^2 in two variables: x^2 + 2xy + y^2
    f = PSeries({(1, 1): 1}, 4)
    g = eval_finite(f, 2)
    assert g.coefficient((2, 0)) == ONE
    assert g.coefficient((1, 1)) == BetaScalar(2)
    assert g.coefficient((0, 2)) == ONE


def pseries_strategy(bound, nparts=3):
    keys = list(partitions_upto(bound))
    return st.dictionaries(
        st.sampled_from(keys), st.integers(-6, 6), max_size=nparts
    ).map(lambda d: PSeries(d, bound))


@given(pseries_strategy(4), st.sampled_from([4, 6]))
@settings(max_examples=30, deadline=None)
def test_round_trip(f, n):
    # orbit sizes depend on n, so also take more variables than the bound
    assert from_finite(eval_finite(f, n), 4) == f


@given(pseries_strategy(3), pseries_strategy(3))
@settings(max_examples=20, deadline=None)
def test_eval_is_a_ring_map(f, g):
    n = 3
    # PSeries multiplication truncates at the bound, FinitePoly's does not
    prod = eval_finite(f, n) * eval_finite(g, n)
    low = {k: v for k, v in scalar_terms(prod).items() if sum(k) <= 3}
    assert eval_finite(f * g, n) == FinitePoly(n, low)
    assert eval_finite(f + g, n) == eval_finite(f, n) + eval_finite(g, n)


def test_round_trip_with_beta_coefficients():
    f = PSeries({(2, 1): BETA ** 2 + 1, (1,): -BETA}, 3)
    assert from_finite(eval_finite(f, 3), 3) == f


def test_round_trip_through_a_zero_monomial_coordinate():
    # m_(3) = 1 + 1 - 2 = 0, so x^(3,0,0) is absent, yet p_3 is not
    f = PSeries({(3,): 1, (2, 1): 1, (1, 1, 1): -2}, 3)
    g = eval_finite(f, 3)
    assert g.coefficient((3, 0, 0)) == 0
    assert from_finite(g, 3) == f


def test_from_finite_rejects_asymmetric():
    g = FinitePoly(3, {(2, 0, 0): 1, (0, 2, 0): 1})  # missing the z^2 orbit
    with pytest.raises(ValueError):
        from_finite(g, 3)
    g2 = FinitePoly(2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError):
        from_finite(g2, 2)
    # a full orbit of (2,1) whose non-dominant member (0,1,2) is off by one
    full = eval_finite(PSeries({(2, 1): 1}, 3), 3)
    off = scalar_terms(full)
    off[(0, 1, 2)] = off[(0, 1, 2)] + 1
    with pytest.raises(ValueError):
        from_finite(FinitePoly(3, off), 3)
    # the same orbit with one non-dominant member missing
    short = scalar_terms(full)
    del short[(0, 1, 2)]
    with pytest.raises(ValueError):
        from_finite(FinitePoly(3, short), 3)


def test_from_finite_rejects_too_few_vars():
    g = eval_finite(PSeries({(1,): 1}, 4), 3)
    with pytest.raises(ValueError):
        from_finite(g, 4)  # 3 variables cannot certify degree 4


def test_from_finite_rejects_overflow_degree():
    g = eval_finite(PSeries({(3,): 1}, 3), 3)
    with pytest.raises(ValueError):
        from_finite(g, 2)


@pytest.mark.parametrize("nvars", [-2, 2.5])
def test_bad_variable_count_rejected(nvars):
    with pytest.raises(ValueError, match=str(nvars)):
        FinitePoly(nvars, {})


def test_scalar_multiples():
    # int, Fraction and BetaScalar factors, on either side
    g = FinitePoly(2, {(1, 0): 1, (0, 1): BETA + 1})
    half = FinitePoly(2, {(1, 0): Fraction(1, 2), (0, 1): (BETA + 1) / 2})
    assert g * Fraction(1, 2) == half
    assert Fraction(1, 2) * g == half
    assert g * 2 == g + g
    assert g * (BETA - 1) == FinitePoly(2, {(1, 0): BETA - 1, (0, 1): BETA ** 2 - 1})
    assert g * 0 == FinitePoly.zero(2)
    with pytest.raises(TypeError):
        g * 0.5


def test_flat_terms_are_checked():
    g = FinitePoly._from_flat(2, {((1, 0), 1): Fraction(2), ((0, 1), 0): 0})
    assert g == FinitePoly(2, {(1, 0): 2 * BETA})
    for bad in ({((1,), 0): 1}, {((1, -1), 0): 1}, {((1, 0), -1): 1}):
        with pytest.raises(ValueError):
            FinitePoly._from_flat(2, bad)
