from fractions import Fraction

import pytest

from kq import fock
from kq.bases import _image_part, p_beta
from kq.hexpansion import (
    _q_row,
    classical_q,
    deformed_q,
    two_row_q,
    vacuum_expectation,
)
from kq.partitions import z_lambda
from kq.pseries import PSeries
from kq.scalars import BETA, ONE, ZERO, BetaScalar
from referees import bra_apply_b, flat_terms, pair, strict_partitions_upto

D = 6


def test_one_row_values():
    assert classical_q((1,), D) == PSeries({(1,): 2}, D)
    assert classical_q((2,), D) == PSeries({(1, 1): 2}, D)
    q3 = PSeries({(1, 1, 1): Fraction(4, 3), (3,): Fraction(2, 3)}, D)
    assert classical_q((3,), D) == q3


def test_two_row_value():
    got = classical_q((2, 1), D)
    expect = PSeries({(1, 1, 1): Fraction(4, 3), (3,): Fraction(-4, 3)}, D)
    assert got == expect


def test_two_row_antisymmetry_edge():
    # the padding column Q_{(a,0)} must collapse to the one-row function
    for a in range(1, D + 1):
        assert two_row_q(a, 0, D) == classical_q((a,), D)


def test_q_uses_only_odd_power_sums():
    for mu in strict_partitions_upto(D):
        for key, _ in classical_q(mu, D).sorted_items():
            assert all(part % 2 for part in key)


def classical_pairing(f, g):
    total = ZERO
    for key, c in f.sorted_items():
        d = g.coefficient(key)
        if d:
            total = total + c * d * Fraction(z_lambda(key), 2 ** len(key))
    return total


def test_q_orthogonality():
    parts = list(strict_partitions_upto(D))
    for lam in parts:
        for mu in parts:
            got = classical_pairing(classical_q(lam, D), classical_q(mu, D))
            if lam == mu:
                assert got == BetaScalar(2 ** len(lam))
            else:
                assert got == ZERO


def degree_part(f, d):
    return {k: v for k, v in f.sorted_items() if sum(k) == d}


def test_deformed_top_degree_is_classical():
    for mu in strict_partitions_upto(4):
        w = sum(mu)
        par = deformed_q(mu, "paren", D)
        bra = deformed_q(mu, "bracket", D)
        assert min(sum(k) for k, _ in par.sorted_items()) == w
        assert degree_part(par, w) == degree_part(classical_q(mu, D), w)
        if mu:
            assert bra.top_degree() == w
        assert degree_part(bra, w) == degree_part(classical_q(mu, D), w)


def h_operator_rows(flavor, row_bound, degree_bound):
    """<0|e^H by raw operator exponentiation, rows down to -row_bound.

    The state's coefficients are series, so every key carries b-power 0.
    """
    start = {((), 0): PSeries.one(degree_bound)}

    def apply_h(state):
        out = {}
        for k in range(1, row_bound + 1, 2):
            pk = _image_part(flavor, k, degree_bound) * Fraction(2, k)
            for key, c in bra_apply_b(state, k).items():
                if fock.grade(key[0]) < -row_bound:
                    continue
                c = c * pk
                prev = out.get(key)
                tot = c if prev is None else prev + c
                if tot:
                    out[key] = tot
                elif prev is not None:
                    del out[key]
        return out

    total = dict(start)
    term = start
    j = 1
    while term:
        term = apply_h(term)
        term = {w: c * Fraction(1, j) for w, c in term.items()}
        for w, c in term.items():
            tot = total.get(w, PSeries.zero(degree_bound)) + c
            if tot:
                total[w] = tot
            else:
                total.pop(w, None)
        j += 1
    return {w: c for (w, _), c in total.items()}


@pytest.mark.parametrize("flavor", ["paren", "bracket"])
def test_rows_match_operator_exponential(flavor):
    # the closed form pairs the basis ket of mu as <0|e^H computed by raw
    # operator exponentiation does, row by row
    bound = 5
    oracle = h_operator_rows(flavor, bound, bound)
    for mu in strict_partitions_upto(bound):
        ket = {(mu + (0,) if len(mu) % 2 else mu, 0): Fraction(1)}
        expect = PSeries.zero(bound)
        for word, row in oracle.items():
            expect = expect + row * pair({(word, 0): Fraction(1)}, ket)
        assert vacuum_expectation(ket, flavor, bound) == expect, mu


def test_expectation_of_vacuum_is_one():
    assert vacuum_expectation(fock.vacuum_ket(), "paren", D) == PSeries.one(D)


def test_odd_words_pair_to_zero():
    assert vacuum_expectation(flat_terms({(1,): ONE}), "paren", D).is_zero()
    assert vacuum_expectation(flat_terms({(3, 1, 0): ONE}), "bracket", D).is_zero()


def test_expectation_of_single_excitation():
    # <0|e^H phi_1 phi_0|0> = 2 p_1 - b p_2 + ... , the deformed 2 p_1
    got = vacuum_expectation(flat_terms({(1, 0): ONE}), "paren", D)
    assert got == p_beta(1, D) * 2
    low = got.truncate(2)
    assert low == PSeries({(1,): 2, (2,): -BETA}, 2)


def test_expectation_is_linear():
    v = flat_terms({(1, 0): BetaScalar(3), (2, 1): -BETA + 2})
    got = vacuum_expectation(v, "bracket", D)
    expect = (
        deformed_q((1,), "bracket", D) * 3
        + deformed_q((2, 1), "bracket", D) * (-BETA + 2)
    )
    assert got == expect


def test_unknown_flavor_rejected():
    # the empty partition needs no basis image, yet its flavor is checked
    with pytest.raises(ValueError, match="curly"):
        deformed_q((), "curly", 3)
    with pytest.raises(ValueError, match="curly"):
        vacuum_expectation(fock.vacuum_ket(), "curly", 3)


def test_vacuum_expectation_checks_flavor_before_any_word():
    # no even word ever reaches deformed_q here, so only an up-front check
    # can see the flavor: the empty ket and a ket of odd words
    with pytest.raises(ValueError, match="bogus"):
        vacuum_expectation({}, "bogus", 4)
    odd = flat_terms({(3,): ONE, (2, 1, 0): BETA})
    with pytest.raises(ValueError, match="bogus"):
        vacuum_expectation(odd, "bogus", 4)
    assert vacuum_expectation(odd, "paren", 4).is_zero()


@pytest.mark.parametrize("bound", [-1, 2.5])
def test_bad_bounds_rejected(bound):
    # no even word reaches deformed_q here, so only an up-front check can
    # see the bound: the empty ket and a ket of odd words
    with pytest.raises(ValueError, match=str(bound)):
        vacuum_expectation({}, "paren", bound)
    odd = flat_terms({(3,): ONE, (2, 1, 0): BETA})
    with pytest.raises(ValueError, match=str(bound)):
        vacuum_expectation(odd, "bracket", bound)


def test_q_row_is_read_only():
    # every two-row Q reads the one cached row of q_n
    with pytest.raises(TypeError):
        _q_row(5)[1] = PSeries.zero(5)
    assert _q_row(5)[1] == PSeries({(1,): 2}, 5)
