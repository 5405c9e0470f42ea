from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq import fock
from kq.scalars import BETA, ONE, ZERO, BetaScalar
from referees import (
    bra_apply_b,
    bra_apply_phi,
    pair,
    scalar_terms,
    strict_partitions_upto,
    two_point,
    vev_direct,
    wick_expectation,
)

B = BetaScalar

# states are flat: {(word, b-power): Fraction}


def add(s, t):
    out = dict(s)
    for key, c in t.items():
        tot = out.get(key, 0) + c
        if tot:
            out[key] = tot
        else:
            out.pop(key, None)
    return out


def scale(s, c):
    # c times s, one shift of the b-powers per monomial of c
    out = {}
    for e, ce in enumerate(B(c).as_polynomial()):
        if ce:
            out = add(out, {(w, k + e): ce * v for (w, k), v in s.items()})
    return out


def bra_word(word):
    return {(tuple(word), 0): Fraction(1)}


def ket_word(word):
    return {(tuple(word), 0): Fraction(1)}


bra_words = st.lists(st.integers(-6, 0), max_size=4, unique=True).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
ket_words = st.lists(st.integers(0, 6), max_size=4, unique=True).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
modes = st.integers(-5, 5)


# -- basic mode algebra ----------------------------------------------


def test_vacuum_annihilation():
    for n in range(1, 5):
        assert bra_apply_phi(bra_word(()), n) == {}


def test_phi_zero_squares_to_one():
    s = bra_apply_phi(bra_apply_phi(bra_word(()), 0), 0)
    assert s == bra_word(())


def test_nonzero_modes_square_to_zero():
    for n in (-3, -1, 1, 2):
        s = bra_word((0, -4)) if n != -4 else bra_word((0, -5))
        assert bra_apply_phi(bra_apply_phi(s, n), n) == {}


def test_phi_zero_vev_vanishes():
    assert pair(bra_word(()), ket_word((0,))) == ZERO
    assert vev_direct((0,)) == ZERO


@given(bra_words, modes, modes)
@settings(max_examples=80, deadline=None)
def test_anticommutation_on_bras(word, a, b):
    s = bra_word(word)
    lhs = add(
        bra_apply_phi(bra_apply_phi(s, a), b),
        bra_apply_phi(bra_apply_phi(s, b), a),
    )
    expect = scale(s, 2 if a % 2 == 0 else -2) if a + b == 0 else {}
    assert lhs == expect


# -- expectation values ----------------------------------------------


def test_two_point_table_against_direct():
    for a in range(-4, 5):
        for b in range(-4, 5):
            assert vev_direct((a, b)) == B(two_point(a, b))


@given(st.lists(st.integers(-4, 4), min_size=0, max_size=6))
@settings(max_examples=120, deadline=None)
def test_wick_matches_direct(letters):
    assert wick_expectation(letters) == vev_direct(letters)


def test_basis_orthogonality():
    parts = [p for p in strict_partitions_upto(6)]
    words = [p for p in parts] + [p + (0,) for p in parts if len(p) % 2]
    for lam in words:
        for mu in words:
            bra = fock.star_ket(ket_word(lam))
            got = pair(bra, ket_word(mu))
            if lam == mu:
                positive = sum(1 for x in lam if x > 0)
                assert got == B(2**positive)
            else:
                assert got == ZERO


# -- star duality -----------------------------------------------------


@given(bra_words)
@settings(max_examples=60, deadline=None)
def test_star_is_involutive(word):
    s = bra_word(word)
    assert fock.star_ket(fock.star_bra(s)) == s


@given(bra_words, modes)
@settings(max_examples=60, deadline=None)
def test_star_intertwines_phi(word, n):
    # the deformed mode phi-hat_n acts on kets as the star image of its
    # adjoint on bras
    s = bra_word(word)
    lhs = fock.star_bra(fock.bra_apply_phihat_star(s, n))
    assert lhs == fock.ket_apply_phihat(fock.star_bra(s), n)


@given(bra_words, ket_words)
@settings(max_examples=60, deadline=None)
def test_pairing_respects_star(bword, kword)  :
    s, v = bra_word(bword), ket_word(kword)
    assert pair(s, v) == pair(fock.star_ket(v), fock.star_bra(s))


# -- Heisenberg generators -------------------------------------------


def test_vacuum_b_one():
    got = bra_apply_b(bra_word(()), 1)
    assert scalar_terms(got) == {(0, -1): B(Fraction(-1, 2))}
    assert bra_apply_b(bra_word(()), -1) == {}


@given(bra_words, st.sampled_from([-3, -1, 1, 3]), modes)
@settings(max_examples=60, deadline=None)
def test_b_phi_commutator_on_bras(word, m, n):
    s = bra_word(word)
    lhs = add(
        bra_apply_phi(bra_apply_b(s, m), n),
        scale(bra_apply_b(bra_apply_phi(s, n), m), -1),
    )
    assert lhs == bra_apply_phi(s, n - m)


@given(bra_words, st.sampled_from([-3, -1, 1, 3]), st.sampled_from([-3, -1, 1, 3]))
@settings(max_examples=40, deadline=None)
def test_b_b_commutator(word, m, n):
    s = bra_word(word)
    lhs = add(
        bra_apply_b(bra_apply_b(s, m), n),
        scale(bra_apply_b(bra_apply_b(s, n), m), -1),
    )
    expect = scale(s, Fraction(m, 2)) if m + n == 0 else {}
    assert lhs == expect


@given(bra_words, st.sampled_from([-1, 1]))
@settings(max_examples=40, deadline=None)
def test_b_star(word, sign):
    # e^{+-Theta}, built from the b_{-n}, acts on kets as the star image of
    # its action on bras
    s = bra_word(word)
    lhs = fock.star_bra(fock.bra_apply_theta_exp(s, sign))
    assert lhs == fock.ket_apply_theta_exp(fock.star_bra(s), sign)


def test_b_shifts_grade():
    for m in (-3, -1, 1, 3):
        for word in [(0, -2, -5), (-1,)]:
            for w, _ in bra_apply_b(bra_word(word), m):
                assert fock.grade(w) == fock.grade(word) - m


# -- deformed modes ---------------------------------------------------


def test_phi_beta_negative_modes_frozen():
    got = fock.bra_apply_phi_beta(bra_word(()), -2)
    assert scalar_terms(got) == {(-2,): ONE, (-1,): -BETA / 2}
    got = fock.bra_apply_phi_beta(bra_word(()), -3)
    assert scalar_terms(got) == {(-3,): ONE, (-2,): -BETA, (-1,): BETA**2 / 4}


def test_phi_beta_zero_on_vacuum():
    assert scalar_terms(fock.bra_apply_phi_beta(bra_word(()), 0)) == {(0,): ONE}


def test_phi_beta_positive_mode_contracts():
    # <0|phi_{-3} phi^(b)_1 keeps only the m = 3 term of the ascending tail
    s = bra_word((-3,))
    got = fock.bra_apply_phi_beta(s, 1)
    assert scalar_terms(got) == {(): BETA**2 * Fraction(-3, 2)}


def test_phihat_positive_modes_frozen():
    got = fock.ket_apply_phihat(fock.vacuum_ket(), 2)
    assert scalar_terms(got) == {(2,): ONE, (1,): -BETA / 2}
    got = fock.ket_apply_phihat(fock.vacuum_ket(), 3)
    assert scalar_terms(got) == {(3,): ONE, (2,): -BETA, (1,): BETA**2 / 4}


def test_phihat_zero_is_phi_zero_on_vacuum():
    assert scalar_terms(fock.ket_apply_phihat(fock.vacuum_ket(), 0)) == {(0,): ONE}


def test_phihat_negative_mode_contracts():
    # phi-hat_{-1} on phi_3|0> keeps only the contracting m = 3 term
    v = ket_word((3,))
    got = fock.ket_apply_phihat(v, -1)
    assert scalar_terms(got) == {(): BETA**2 * Fraction(-3, 2)}


def test_phihat_star_is_phi_minus_beta():
    s = bra_word((0, -3))
    lhs = fock.bra_apply_phihat_star(s, 2)
    rhs = scale(fock.bra_apply_phi_beta(s, -2, sign=-1), 1)
    assert lhs == rhs
    lhs = fock.bra_apply_phihat_star(s, 3)
    assert lhs == scale(fock.bra_apply_phi_beta(s, -3, sign=-1), -1)


# -- theta flows ------------------------------------------------------


def test_theta_fixes_vacuum():
    assert fock.bra_apply_theta_exp(bra_word(())) == bra_word(())
    assert fock.ket_apply_theta_exp(fock.vacuum_ket()) == fock.vacuum_ket()


@given(bra_words)
@settings(max_examples=40, deadline=None)
def test_theta_exp_invertible(word):
    s = bra_word(word)
    roundtrip = fock.bra_apply_theta_exp(fock.bra_apply_theta_exp(s, 1), -1)
    assert roundtrip == s


@given(ket_words)
@settings(max_examples=40, deadline=None)
def test_ket_theta_exp_invertible(word):
    v = ket_word(word)
    roundtrip = fock.ket_apply_theta_exp(fock.ket_apply_theta_exp(v, -1), 1)
    assert roundtrip == v


@given(bra_words, st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_theta_conjugation_of_phi_beta(word, n):
    # e^T phi^(b)_n e^-T = phi^(b)_n + b phi^(b)_{n+1}
    s = bra_word(word)
    lhs = fock.bra_apply_theta_exp(
        fock.bra_apply_phi_beta(fock.bra_apply_theta_exp(s, 1), n), -1
    )
    rhs = add(
        fock.bra_apply_phi_beta(s, n),
        scale(fock.bra_apply_phi_beta(s, n + 1), BETA),
    )
    assert lhs == rhs


@given(bra_words, st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_theta_conjugation_of_phihat_star(word, n):
    # e^T (phi-hat_n)* e^-T expands into a geometric tail in -b
    s = bra_word(word)
    lhs = fock.bra_apply_theta_exp(
        fock.bra_apply_phihat_star(fock.bra_apply_theta_exp(s, 1), n), -1
    )
    rhs = {}
    for k in range(n - fock.grade(word) + 1):
        term = fock.bra_apply_phihat_star(s, n - k)
        rhs = add(rhs, scale(term, (-BETA) ** k))
    assert lhs == rhs


# -- quasi-duality ----------------------------------------------------


@given(bra_words, st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_quasi_anticommutator(word, m, n):
    s = bra_word(word)
    lhs = add(
        fock.bra_apply_phi_beta(fock.bra_apply_phihat_star(s, m), n),
        fock.bra_apply_phihat_star(fock.bra_apply_phi_beta(s, n), m),
    )
    if m == n:
        expect = scale(s, 2)
    elif m == n + 1:
        expect = scale(s, BETA)
    else:
        expect = {}
    assert lhs == expect


@given(bra_words, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_inner_product_pairing_table(word, m, n):
    # [(phi-hat_m)*, e^-T phi^(b)_n e^T]_+ is scalar except at m = n = 0
    if m == 0 and n == 0:
        return
    s = bra_word(word)

    def conj(state):
        inner = fock.bra_apply_phi_beta(fock.bra_apply_theta_exp(state, -1), n)
        return fock.bra_apply_theta_exp(inner, 1)

    lhs = add(
        conj(fock.bra_apply_phihat_star(s, m)),
        fock.bra_apply_phihat_star(conj(s), m),
    )
    if m < n:
        expect = {}
    elif m == n:
        expect = scale(s, 2)
    else:
        expect = scale(s, (-BETA) ** (m - n))
    assert lhs == expect


def test_normal_ordering_tables_are_read_only():
    # the memoised tables are shared by every later call
    with pytest.raises(TypeError):
        fock._bra_insert((-1,), 1)[()] = 99
    with pytest.raises(TypeError):
        fock._bra_word_b((-2,), -1)[()] = 99
    with pytest.raises(TypeError):
        fock._bra_word_b((), 1)[()] = 99
    got = fock.bra_apply_phi_beta(bra_word((-1,)), 1)
    assert scalar_terms(got) == {(): B(-2)}
