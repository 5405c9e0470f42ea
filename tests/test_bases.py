from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq import bases
from kq.bases import FLAVORS, _coordinates, _image_sum
from kq.dualq import gp, o_fermionic
from kq.gq import gq_fermionic
from kq.partitions import partitions_upto
from kq.pseries import PSeries
from kq.scalars import BETA, ONE, BetaScalar
from referees import (_eliminate, at_b, eval_finite, from_deformed_basis, is_zero, p_beta,
                      p_bracket, q_series, scalar_terms, series_coefficient,
                      strict_partitions_upto, to_deformed_basis)


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
        assert scalar_terms(g) == {(n,): BetaScalar(2)}


def test_q_pieri_like_symmetry():
    # generating identity q(z) q(-z) = 1, i.e. sum_{i} (-1)^i q_i q_{n-i} = 0
    q = q_series(6)
    for n in range(1, 7):
        acc = PSeries.zero(6)
        for i in range(n + 1):
            term = q[i] * q[n - i]
            acc = acc + (term if i % 2 == 0 else -term)
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
        assert at_b(p_beta(n, 6), 0) == PSeries.p(n, 6)
        assert at_b(p_bracket(n, 6), 0) == PSeries.p(n, 6)


def test_one_variable_substitution_consistency():
    # evaluating p_beta(n) at a single rational letter x should equal
    # (x/(1+(b/2)x))^n expanded to the same order; check n=1, x=1
    f = eval_finite(p_beta(1, 5), 1)
    # sum_m (-b/2)^{m-1} x^m at x=1: 1 - b/2 + b^2/4 - ...
    val = sum(scalar_terms(f).values(), BetaScalar(0))
    expect = sum(((-BETA * Fraction(1, 2)) ** k for k in range(5)),
                 BetaScalar(0))
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
    f = PSeries.p(1, 2)
    coeffs = to_deformed_basis(f, "paren")
    assert coeffs[(1,)] == ONE
    assert coeffs[(2,)] == BETA * Fraction(1, 2)
    # and p_2 = p_bracket(2) - b p_bracket(1)
    g = PSeries.p(2, 2)
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
    # image that raises stops the library's conversion; coordinates stored
    # by the failed call would hide the second failure
    f = PSeries({(1,): 1, (3,): 2}, 3)
    monkeypatch.setattr(bases, "_image_partition", image)
    for _ in range(2):
        with pytest.raises(error):
            convert(f, "bracket")
    monkeypatch.undo()
    coords = to_deformed_basis(f, "bracket")
    assert from_deformed_basis(coords, "bracket", 3) == f


def strict_family(D):
    """gq_fermionic, o_fermionic and gp for every strict lambda, |lambda| <= D."""
    lams = list(strict_partitions_upto(D))
    return ([gq_fermionic(lam, D) for lam in lams] + [o_fermionic(lam, D) for lam in lams]
            + [gp(lam, D) for lam in lams])


@pytest.mark.parametrize("D", [4, 6, 8, 10])
def test_inverse_substitution_matches_elimination(D):
    # the library reads coordinates off the substitution at -b/2; the
    # referee eliminates degree by degree with the images at +b/2
    for f in strict_family(D):
        for flavor in FLAVORS:
            assert _coordinates(f, flavor) == _eliminate(f, flavor), (f, flavor)


@given(series_strategy(6), st.sampled_from(FLAVORS))
@settings(max_examples=40, deadline=None)
def test_inverse_substitution_matches_elimination_on_random_series(f, flavor):
    assert _coordinates(f, flavor) == _eliminate(f, flavor)


def test_inverse_substitution_undoes_the_substitution():
    # p_n at -b/2 after p_n at +b/2 is p_n again, for both flavors
    D = 7
    for flavor in FLAVORS:
        for n in range(1, D + 1):
            image = _image_sum({((n,), 0): n}, 1, flavor, D)
            back = _image_sum(image.terms, image.den, flavor, D, -Fraction(1, 2))
            assert back == PSeries.p(n, D)


def test_unknown_flavor_rejected():
    with pytest.raises(ValueError):
        to_deformed_basis(PSeries.one(2), "curly")
    with pytest.raises(ValueError):
        p_beta(0, 3)
