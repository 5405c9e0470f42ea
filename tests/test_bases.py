from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import referees
from kq.bases import FLAVORS, _check_ring, _image_row
from kq.partitions import partitions_upto
from kq.pseries import PSeries
from referees import (BETA, ONE, Qb, _eliminate, at_b, deformed_image, eval_finite,
                      from_deformed_basis, is_zero, p_beta, p_bracket, power_sum, q_series,
                      scalar_terms, series_coefficient, to_deformed_basis)


def test_q_series_low_terms():
    q = q_series(4)
    assert q[0] == PSeries.one(4)
    assert q[1] == PSeries({(1,): 2}, 4)
    # q_2 = 2 p_1^2
    assert q[2] == PSeries({(1, 1): 2}, 4)
    # q_3 = (4/3) p_{111} + (2/3) p_3
    assert q[3] == PSeries({(1, 1, 1): Fraction(4, 3), (3,): Fraction(2, 3)}, 4)


def test_q_series_finite_evaluation():
    # in one variable q(z) = (1+xz)/(1-xz), so q_n = 2 x^n for n >= 1
    q = q_series(5)
    for n in range(1, 6):
        g = eval_finite(q[n], 1)
        assert scalar_terms(g) == {(n,): Qb(2)}


def test_q_pieri_like_symmetry():
    # generating identity q(z) q(-z) = 1, i.e. sum_{i} (-1)^i q_i q_{n-i} = 0
    q = q_series(6)
    for n in range(1, 7):
        acc = PSeries.zero(6)
        for i in range(n + 1):
            term = q[i] * q[n - i]
            acc = acc + (term if i % 2 == 0 else term * -1)
        assert is_zero(acc)


def test_p_beta_low_terms():
    f = p_beta(1, 3)
    assert series_coefficient(f, (1,)) == ONE
    assert series_coefficient(f, (2,)) == -BETA * Fraction(1, 2)
    assert series_coefficient(f, (3,)) == BETA ** 2 * Fraction(1, 4)
    # one-variable check: x/(1+(b/2)x) expands with alternating signs
    g = p_beta(2, 4)
    assert series_coefficient(g, (2,)) == ONE
    assert series_coefficient(g, (3,)) == -BETA
    assert series_coefficient(g, (4,)) == BETA ** 2 * Fraction(3, 4)


def test_p_bracket_low_terms():
    assert p_bracket(1) == PSeries({(1,): 1}, 1)
    assert p_bracket(2) == PSeries({(2,): 1, (1,): BETA}, 2)
    f = p_bracket(3)
    assert series_coefficient(f, (3,)) == ONE
    assert series_coefficient(f, (2,)) == BETA * Fraction(3, 2)
    assert series_coefficient(f, (1,)) == BETA ** 2 * Fraction(3, 4)


def test_deformed_bases_are_classical_at_beta_zero():
    for n in range(1, 5):
        assert at_b(p_beta(n, 6), 0) == power_sum(n, 6)
        assert at_b(p_bracket(n, 6), 0) == power_sum(n, 6)


def test_one_variable_substitution_consistency():
    # evaluating p_beta(n) at a single rational letter x should equal
    # (x/(1+(b/2)x))^n expanded to the same order; check n=1, x=1
    f = eval_finite(p_beta(1, 5), 1)
    # sum_m (-b/2)^{m-1} x^m at x=1: 1 - b/2 + b^2/4 - ...
    val = sum(scalar_terms(f).values(), Qb(0))
    expect = sum(((-BETA * Fraction(1, 2)) ** k for k in range(5)),
                 Qb(0))
    assert val == expect


def series_strategy(bound):
    keys = list(partitions_upto(bound))
    return st.dictionaries(
        st.sampled_from(keys), st.integers(-5, 5), max_size=4
    ).map(lambda d: PSeries(d, bound))


@given(series_strategy(5), st.sampled_from(["paren", "bracket"]))
@settings(max_examples=30, deadline=None)
def test_basis_round_trip(f, flavor):
    coeffs = to_deformed_basis(f, flavor)
    assert from_deformed_basis(coeffs, flavor, f.degree_bound) == f


def test_to_deformed_basis_spot_values():
    # p_1 expressed in paren coordinates needs upward corrections
    f = power_sum(1, 2)
    coeffs = to_deformed_basis(f, "paren")
    assert coeffs[(1,)] == ONE
    assert coeffs[(2,)] == BETA * Fraction(1, 2)
    # and p_2 = p_bracket(2) - b p_bracket(1)
    g = power_sum(2, 2)
    coeffs = to_deformed_basis(g, "bracket")
    assert coeffs == {(1,): -BETA, (2,): ONE}


def test_returned_coordinates_are_the_callers_to_change():
    f = PSeries({(1,): 1, (2, 1): 3}, 4)
    first = to_deformed_basis(f, "paren")
    want = dict(first)
    first[(1,)] = BETA
    first.clear()
    assert to_deformed_basis(f, "paren") == want
    assert from_deformed_basis(want, "paren", 4) == f


def _no_image(*args):
    return PSeries.zero(args[2])


def _bad_image(*args):
    raise ValueError("no image")


@pytest.mark.parametrize("image, error, convert", [
    pytest.param(_no_image, ArithmeticError, _eliminate, id="_no_image-ArithmeticError"),
    pytest.param(_bad_image, ValueError, to_deformed_basis, id="_bad_image-ValueError")])
def test_failed_conversion_stores_nothing(monkeypatch, image, error, convert):
    # images that eliminate nothing leave the elimination a residue, and an
    # image that raises stops the conversion; coordinates stored by the
    # failed call would hide the second failure
    f = PSeries({(1,): 1, (3,): 2}, 3)
    monkeypatch.setattr(referees, "deformed_image", image)
    for _ in range(2):
        with pytest.raises(error):
            convert(f, "bracket")
    monkeypatch.undo()
    coords = to_deformed_basis(f, "bracket")
    assert from_deformed_basis(coords, "bracket", 3) == f


def ring_coefficients(bound):
    """Sparse {partition: c b^k} with small int c and k <= 2."""
    values = st.tuples(st.integers(-5, 5), st.integers(0, 2)).map(lambda t: BETA ** t[1] * t[0])
    return st.dictionaries(st.sampled_from(list(partitions_upto(bound))), values, max_size=4)


@given(ring_coefficients(6), st.sampled_from(FLAVORS), st.booleans())
@settings(max_examples=80, deadline=None)
def test_ring_check_raises_exactly_on_even_coordinates(coeffs, flavor, deform):
    # the derivative test against the coordinates the elimination reads:
    # plain series mostly leave the ring, images of odd coordinates stay
    f = from_deformed_basis(coeffs, flavor, 6) if deform else PSeries(coeffs, 6)
    even = any(part % 2 == 0 for mu, _ in _eliminate(f, flavor).terms for part in mu)
    if even:
        with pytest.raises(ValueError, match=flavor):
            _check_ring(f, flavor)
        assert flavor not in f._rings
    else:
        _check_ring(f, flavor)
        assert flavor in f._rings


def test_unknown_flavor_rejected():
    with pytest.raises(ValueError):
        to_deformed_basis(PSeries.one(2), "curly")
    with pytest.raises(ValueError):
        p_beta(0, 3)


@pytest.mark.parametrize("flavor", FLAVORS)
def test_image_rows_are_the_series_products(flavor):
    # each int row over 2^D against the referee's image of p~_nu, one
    # series product per part, for every nu into odd parts at every D <= 10
    for D in range(11):
        for nu in partitions_upto(D):
            if all(part % 2 for part in nu):
                image = PSeries._reduced(dict(_image_row(flavor, nu, D)), 1 << D, D)
                assert image == deformed_image(flavor, nu, D), (nu, D)
    with pytest.raises(TypeError):
        _image_row(flavor, (1,), 4)[((1,), 0)] = 0


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("nu", [(2,), (3, 2), (4, 1, 1)])
def test_image_row_refuses_an_even_part(flavor, nu):
    # the exit only images odd partitions, so 2^D need not clear an even one
    with pytest.raises(ValueError, match="even part"):
        _image_row(flavor, nu, 8)
