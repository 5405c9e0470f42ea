from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kq.finitevars import SymmetricPoly, _character, from_finite
from kq.oracle import gq_oracle
from kq.partitions import partitions_of, partitions_upto, z_lambda
from kq.pseries import PSeries
from referees import (BETA, ONE, Qb, FinitePoly, _partition_power_poly, eval_finite, expand,
                      from_finite_by_fractions, hook_count, power_sum_poly, scalar_terms,
                      schur_coordinates, strict_partitions_upto)


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
    assert g.coefficient((1, 1)) == Qb(2)
    assert g.coefficient((0, 2)) == ONE


def pseries_strategy(bound, nparts=3):
    keys = list(partitions_upto(bound))
    return st.dictionaries(
        st.sampled_from(keys), st.integers(-6, 6), max_size=nparts
    ).map(lambda d: PSeries(d, bound))


@given(pseries_strategy(4), st.sampled_from([4, 6]))
@settings(max_examples=30, deadline=None)
def test_round_trip(f, n):
    # the Schur polynomials depend on n, so also take more variables than
    # the bound
    assert from_finite(schur_coordinates(eval_finite(f, n)), 4) == f


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
    assert from_finite(schur_coordinates(eval_finite(f, 3)), 3) == f


def test_round_trip_through_a_zero_monomial_coordinate():
    # m_(3) = 1 + 1 - 2 = 0, so x^(3,0,0) is absent, and with it s_(3),
    # the only s_nu of degree 3 that reaches it, yet p_3 is not
    f = PSeries({(3,): 1, (2, 1): 1, (1, 1, 1): -2}, 3)
    g = eval_finite(f, 3)
    assert g.coefficient((3, 0, 0)) == 0
    assert (3,) not in {mu for mu, k in schur_coordinates(g).terms}
    assert from_finite(schur_coordinates(g), 3) == f


def test_from_finite_rejects_asymmetric():
    g = FinitePoly(3, {(2, 0, 0): 1, (0, 2, 0): 1})  # missing the z^2 orbit
    with pytest.raises(ValueError):
        from_finite(schur_coordinates(g), 3)
    g2 = FinitePoly(2, {(1, 0): 1, (0, 1): 2})
    with pytest.raises(ValueError):
        from_finite(schur_coordinates(g2), 2)
    # a full orbit of (2,1) whose non-dominant member (0,1,2) is off by one
    full = eval_finite(PSeries({(2, 1): 1}, 3), 3)
    off = scalar_terms(full)
    off[(0, 1, 2)] = off[(0, 1, 2)] + 1
    with pytest.raises(ValueError):
        from_finite(schur_coordinates(FinitePoly(3, off)), 3)
    # the same orbit with one non-dominant member missing
    short = scalar_terms(full)
    del short[(0, 1, 2)]
    with pytest.raises(ValueError):
        from_finite(schur_coordinates(FinitePoly(3, short)), 3)


def test_from_finite_rejects_too_few_vars():
    g = schur_coordinates(eval_finite(PSeries({(1,): 1}, 4), 3))
    with pytest.raises(ValueError):
        from_finite(g, 4)  # 3 variables cannot certify degree 4


def test_from_finite_rejects_overflow_degree():
    g = schur_coordinates(eval_finite(PSeries({(3,): 1}, 3), 3))
    with pytest.raises(ValueError):
        from_finite(g, 2)


@pytest.mark.parametrize("nvars", [-2, 2.5])
def test_bad_variable_count_rejected(nvars):
    with pytest.raises(ValueError, match=str(nvars)):
        FinitePoly(nvars, {})


def test_scalar_multiples():
    # int, Fraction and Qb factors, on either side
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


@pytest.mark.parametrize("bound", [None, "4", 2.0, -1, True])
def test_from_finite_checks_its_degree_bound(bound):
    # a bound that is not an int >= 0 is refused as such, before any
    # comparison with the variable count or the degree
    with pytest.raises(ValueError, match="degree bound must be"):
        from_finite(gq_oracle((1,), 3), bound)


def test_from_finite_refuses_a_polynomial_given_monomial_by_monomial():
    # its terms are keyed by exponent tuples, which no partition matches
    with pytest.raises(TypeError):
        from_finite(eval_finite(PSeries({(1,): 1}, 2), 2), 2)


@pytest.mark.parametrize("nvars, terms, bad", [
    (2, {((1, 1, 1), 0): 1}, r"s_\(1, 1, 1\) b\^0 for 2"),  # longer than nvars
    (3, {((1, 2), 0): 1}, r"s_\(1, 2\) b\^0"),  # not weakly decreasing
    (3, {((2, 0), 0): 1}, r"s_\(2, 0\) b\^0"),  # a zero part
    (3, {((2, 1), -1): 1}, r"s_\(2, 1\) b\^-1"),  # negative k
    (3, {((2, 1), 0): 0.5}, r"0\.5 s_\(2, 1\) b\^0"),  # a float value
    (-2, {}, "-2"),
    (2.5, {}, r"2\.5"),
    (2, {((1,), 0): True}, r"True s_\(1,\) b\^0"),  # a bool value
    (2, {((1,), True): 3}, r"3 s_\(1,\) b\^True"),  # a bool b-power
    (2, {((True,), 0): 1}, r"1 s_\(True,\) b\^0"),  # a bool part
    (2, {5: 1}, "at the key 5 for 2"),  # a key that is not a pair
    (2, {((1,),): 1}, r"at the key \(\(1,\),\) for 2"),  # a key of one item
    (2, {((1,), 0, 2): 1}, r"at the key \(\(1,\), 0, 2\) for 2"),  # a key of three items
])
def test_symmetric_poly_names_a_bad_term(nvars, terms, bad):
    with pytest.raises(ValueError, match=bad):
        SymmetricPoly(nvars, terms)


def test_symmetric_poly_compares_values():
    g = SymmetricPoly(3, {((2, 1), 0): 2, ((1,), 1): Fraction(4, 2), ((3,), 0): 0})
    assert g == SymmetricPoly(3, {((1,), 1): 2, ((2, 1), 0): Fraction(2)})
    assert g != SymmetricPoly(4, {((1,), 1): 2, ((2, 1), 0): 2})
    assert g != SymmetricPoly(3, {((1,), 1): 2})
    assert SymmetricPoly(2, {}) == SymmetricPoly(2, {((1,), 0): 0})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_expand_and_read_back(n):
    # schur_coordinates inverts expand on the oracle's answers
    for lam in [(1,), (2, 1), (3, 1), (3, 2, 1)]:
        sym = gq_oracle(lam, n, n + 2)
        assert schur_coordinates(expand(sym)) == sym


@lru_cache(maxsize=None)
def power_sum_in_schur(mu, n):
    """p_mu(x_1..x_n) in Schur coordinates, peeled off p_mu written out."""
    return schur_coordinates(_partition_power_poly(mu, n))


@st.composite
def symmetric_polys(draw):
    """(g, D): g in nvars in [D, D + 2] variables, of degree <= D <= 6, with
    int and Fraction values and b-powers 0..3.  Half of them are the
    Schur coordinates of a random combination of b^k p_mu, where the
    shapes the power sums share add up and may cancel."""
    D = draw(st.integers(0, 6))
    n = draw(st.integers(D, D + 2))
    keys = st.tuples(st.sampled_from(list(partitions_upto(D))), st.integers(0, 3))
    values = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=12))
    terms = draw(st.dictionaries(keys, values, max_size=8))
    if draw(st.booleans()):
        coords = {}
        for (mu, k), c in terms.items():
            for (nu, _), count in power_sum_in_schur(mu, n).terms.items():
                coords[(nu, k)] = coords.get((nu, k), 0) + c * count
        terms = coords
    return SymmetricPoly(n, terms), D


@given(symmetric_polys())
@example((SymmetricPoly(4, {}), 4))
# p_3 + p_21 - 2 p_111: its s_(3) coordinate is 1 + 1 - 2 = 0
@example((SymmetricPoly(3, {((2, 1), 0): -5, ((1, 1, 1), 0): -2}), 3))
@settings(max_examples=150, deadline=None)
def test_integral_solve_matches_the_fraction_solve(case):
    g, D = case
    assert from_finite(g, D) == from_finite_by_fractions(g, D)


@pytest.mark.parametrize("n", range(8))
def test_oracle_answers_have_integral_power_sum_coordinates(n):
    # GQ_lambda is integral, so its p~ coordinates are too (Macdonald I.4)
    for lam in strict_partitions_upto(n):
        assert from_finite(gq_oracle(lam, n), n).den == 1, lam


def test_from_finite_builds_no_fraction_on_integral_input(monkeypatch):
    # the p~ coordinates of an integral polynomial are ints, so neither the
    # solve nor the series it hands back builds a Fraction
    polys = [gq_oracle(lam, 6) for lam in strict_partitions_upto(6)]
    want = [from_finite_by_fractions(g, 6) for g in polys]

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction built inside from_finite")

    monkeypatch.setattr(Fraction, "__new__", refuse)
    assert [from_finite(g, 6) for g in polys] == want


def characters(nu):
    """{mu: chi^nu(mu)} over the partitions mu of |nu|, beads as from_finite
    lays them: nu + delta as set bits, one bead per part."""
    beads = sum(1 << part + len(nu) - 1 - i for i, part in enumerate(nu))
    return {mu: _character(beads, mu) for mu in partitions_of(sum(nu))}


@pytest.mark.parametrize("w", range(9))
def test_characters_are_orthogonal_and_count_standard_tableaux(w):
    # sum_mu chi^nu(mu) chi^rho(mu) / z_mu = delta_{nu rho} (Macdonald I
    # (7.8)), and chi^nu at the identity is f^nu
    table = {nu: characters(nu) for nu in partitions_of(w)}
    for nu, chi in table.items():
        assert chi[(1,) * w] == hook_count(nu), nu
        for rho, psi in table.items():
            total = sum(Fraction(chi[mu] * psi[mu], z_lambda(mu)) for mu in chi)
            assert total == (nu == rho), (nu, rho)


@pytest.mark.parametrize("D", range(7))
def test_a_lone_schur_polynomial_matches_the_fraction_solve(D):
    # s_nu b^k in D and D + 1 variables, read into power sums by its
    # characters and by the monomial solve of the referee
    for nu in partitions_upto(D):
        for n in (D, D + 1):
            if len(nu) <= n:
                g = SymmetricPoly(n, {(nu, 2): 1})
                assert from_finite(g, D) == from_finite_by_fractions(g, D), (nu, n)
