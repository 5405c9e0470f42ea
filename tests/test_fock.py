from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq import fock
from kq.fock import FockState
from kq.gq import gq_fermionic
from referees import (
    BETA,
    ONE,
    ZERO,
    Qb,
    bra_apply_b,
    bra_apply_phi,
    fraction_terms,
    ket_apply_phi_beta,
    ket_apply_phihat,
    ket_apply_Theta_exp,
    ket_apply_theta_exp,
    pair,
    ref_bra_apply_phi_beta,
    ref_bra_apply_phi_beta_star,
    ref_bra_apply_phihat_star,
    ref_bra_apply_Theta_exp_star,
    ref_bra_apply_theta_exp,
    scalar_terms,
    star_bra,
    strict_partitions_upto,
    two_point,
    vev_direct,
    wick_expectation,
)

B = Qb
EMPTY = FockState({})

# states are FockStates: int numerators per (word, b-power) over one den


def add(s, t):
    out = dict(fraction_terms(s))
    for key, c in fraction_terms(t).items():
        tot = out.get(key, 0) + c
        if tot:
            out[key] = tot
        else:
            out.pop(key, None)
    return FockState(out)


def scale(s, c):
    # c times s, one shift of the b-powers per monomial of c
    out = EMPTY
    for e, ce in enumerate(B(c).as_polynomial()):
        if ce:
            shifted = {(w, k + e): ce * v for (w, k), v in fraction_terms(s).items()}
            out = add(out, FockState(shifted))
    return out


def bra_word(word):
    return FockState({(tuple(word), 0): Fraction(1)})


def ket_word(word):
    return FockState({(tuple(word), 0): Fraction(1)})


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
        assert bra_apply_phi(bra_word(()), n) == EMPTY


def test_phi_zero_squares_to_one():
    s = bra_apply_phi(bra_apply_phi(bra_word(()), 0), 0)
    assert s == bra_word(())


def test_nonzero_modes_square_to_zero():
    for n in (-3, -1, 1, 2):
        s = bra_word((0, -4)) if n != -4 else bra_word((0, -5))
        assert bra_apply_phi(bra_apply_phi(s, n), n) == EMPTY


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
    expect = scale(s, 2 if a % 2 == 0 else -2) if a + b == 0 else EMPTY
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
            bra = star_bra(ket_word(lam))
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
    assert star_bra(star_bra(s)) == s


@given(bra_words, modes)
@settings(max_examples=60, deadline=None)
def test_star_intertwines_phi(word, n):
    # the deformed mode phi-hat_n acts on kets as the star image of its
    # adjoint on bras; the library's single-mode row is that adjoint
    s = bra_word(word)
    lhs = star_bra(ref_bra_apply_phihat_star(s, n))
    assert lhs == ket_apply_phihat(star_bra(s), n)
    if n >= 1:
        assert star_bra(fock._phihat_row(s, n, n, 0)) == lhs


@given(bra_words, ket_words)
@settings(max_examples=60, deadline=None)
def test_pairing_respects_star(bword, kword)  :
    s, v = bra_word(bword), ket_word(kword)
    assert pair(s, v) == pair(star_bra(v), star_bra(s))


# -- Heisenberg generators -------------------------------------------


def test_vacuum_b_one():
    got = bra_apply_b(bra_word(()), 1)
    assert scalar_terms(got) == {(0, -1): B(Fraction(-1, 2))}
    assert bra_apply_b(bra_word(()), -1) == EMPTY


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
    expect = scale(s, Fraction(m, 2)) if m + n == 0 else EMPTY
    assert lhs == expect


@given(bra_words, st.sampled_from([-1, 1]))
@settings(max_examples=40, deadline=None)
def test_b_star(word, sign):
    # e^{+-Theta}, built from the b_{-n}, acts on kets as the star image of
    # its action on bras
    s = bra_word(word)
    lhs = star_bra(ref_bra_apply_theta_exp(s, sign))
    assert lhs == ket_apply_theta_exp(star_bra(s), sign)


def test_b_shifts_grade():
    for m in (-3, -1, 1, 3):
        for word in [(0, -2, -5), (-1,)]:
            for w, _ in bra_apply_b(bra_word(word), m).terms:
                assert sum(w) == sum(word) - m


# -- deformed modes ---------------------------------------------------


def test_phi_beta_negative_modes_frozen():
    got = ref_bra_apply_phi_beta(bra_word(()), -2)
    assert scalar_terms(got) == {(-2,): ONE, (-1,): -BETA / 2}
    got = ref_bra_apply_phi_beta(bra_word(()), -3)
    assert scalar_terms(got) == {(-3,): ONE, (-2,): -BETA, (-1,): BETA**2 / 4}


def test_phi_beta_zero_on_vacuum():
    assert scalar_terms(ref_bra_apply_phi_beta(bra_word(()), 0)) == {(0,): ONE}


def test_phi_beta_positive_mode_contracts():
    # <0|phi_{-3} phi^(b)_1 keeps only the m = 3 term of the ascending tail
    s = bra_word((-3,))
    got = ref_bra_apply_phi_beta(s, 1)
    assert scalar_terms(got) == {(): BETA**2 * Fraction(-3, 2)}


def test_phihat_positive_modes_frozen():
    got = ket_apply_phihat(fock.vacuum(), 2)
    assert scalar_terms(got) == {(2,): ONE, (1,): -BETA / 2}
    got = ket_apply_phihat(fock.vacuum(), 3)
    assert scalar_terms(got) == {(3,): ONE, (2,): -BETA, (1,): BETA**2 / 4}


def test_phihat_zero_is_phi_zero_on_vacuum():
    assert scalar_terms(ket_apply_phihat(fock.vacuum(), 0)) == {(0,): ONE}


def test_phihat_negative_mode_contracts():
    # phi-hat_{-1} on phi_3|0> keeps only the contracting m = 3 term
    v = ket_word((3,))
    got = ket_apply_phihat(v, -1)
    assert scalar_terms(got) == {(): BETA**2 * Fraction(-3, 2)}


def test_phihat_star_is_phi_minus_beta():
    # the library's single-mode row against (-1)^n phi^(-beta)_{-n}
    s = bra_word((0, -3))
    lhs = fock._phihat_row(s, 2, 2, 0)
    rhs = scale(ref_bra_apply_phi_beta(s, -2, sign=-1), 1)
    assert lhs == rhs
    lhs = fock._phihat_row(s, 3, 3, 0)
    assert lhs == scale(ref_bra_apply_phi_beta(s, -3, sign=-1), -1)


# -- the rows of the dual kets ---------------------------------------

bra_states = st.dictionaries(st.tuples(bra_words, st.integers(0, 2)),
                             st.integers(-3, 3), max_size=3).map(FockState)
grade_zero_states = st.dictionaries(st.tuples(st.sampled_from([(), (0,)]), st.integers(0, 2)),
                                    st.integers(-3, 3), max_size=2).map(FockState)


def row_by_modes(state, n, low):
    """sum_{c=low}^{n} w(c) (phihat_c)^* state, one mode at a time, with
    w(n) = 1, w(c) = -(-b/2)^{n-c} below and w(0) doubled."""
    out = EMPTY
    for c in range(low, n + 1):
        w = 1 if c == n else -Fraction(-1, 2) ** (n - c) * (2 if c == 0 else 1)
        out = add(out, scale(ref_bra_apply_phihat_star(state, c), B.beta_power(n - c, w)))
    return out


@given(bra_states, st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_row_at_its_top_mode_is_phihat_star(state, n):
    assert fock._phihat_row(state, n, n, 0) == ref_bra_apply_phihat_star(state, n)


@given(bra_states, st.integers(1, 6), st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_row_is_the_weighted_sum_of_its_modes(state, n, low):
    low = min(low, n)
    assert fock._phihat_row(state, n, low, 0) == row_by_modes(state, n, low)


@given(grade_zero_states, st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_row_down_to_zero_on_grade_zero(state, n):
    # (phihat_0)^* meets grade 0 as phi_0 alone, its weight doubled
    assert fock._phihat_row(state, n, 0, 0) == row_by_modes(state, n, 0)


def test_row_down_to_zero_refuses_lower_grades():
    state = FockState({((), 0): 1, ((0, -2), 1): 1})
    with pytest.raises(ValueError, match="grade-0"):
        fock._phihat_row(state, 3, 0, 0)
    assert fock._phihat_row(state, 3, 1, 0) == row_by_modes(state, 3, 1)


def row_by_taylor(state, n, low, i):
    """e^{i Theta} R^* e^{-i Theta} on state, R^* the row of row_by_modes,
    each exponential a Taylor series of the Fraction referee."""
    for _ in range(i):
        state = ref_bra_apply_theta_exp(state, 1)
    state = row_by_modes(state, n, low)
    for _ in range(i):
        state = ref_bra_apply_theta_exp(state, -1)
    return state


@given(bra_words, st.integers(1, 4), st.integers(1, 4), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_conjugated_row_is_the_taylor_sandwich(word, n, low, i):
    # the dual kets' e^{-Theta} folded into the row: one list of plain
    # modes per grade, at low = n (a single mode) and below it
    s = bra_word(word)
    for low in {n, min(low, n)}:
        assert fock._phihat_row(s, n, low, i) == row_by_taylor(s, n, low, i)


@given(grade_zero_states, st.integers(1, 5), st.integers(1, 4))
@settings(max_examples=30, deadline=None)
def test_conjugated_row_down_to_zero_on_grade_zero(state, n, i):
    assert fock._phihat_row(state, n, 0, i) == row_by_taylor(state, n, 0, i)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_conjugated_row_down_to_zero_refuses_lower_grades(i):
    state = FockState({((), 0): 1, ((0, -2), 1): 1})
    with pytest.raises(ValueError, match="grade-0"):
        fock._phihat_row(state, 3, 0, i)
    with pytest.raises(ValueError, match="grade-0"):
        fock._phihat_row(bra_word((-1,)), 1, 0, i)
    assert fock._phihat_row(state, 3, 1, i) == row_by_taylor(state, 3, 1, i)


def test_phihat_zero_with_theta_squares_away_on_the_vacuum():
    # (e^{-theta} phihat_0)^2 |0> = |0>, in bra form: what lets gp's last
    # row reach c = 0 when the ket already ends in e^{-theta} phihat_0.
    # Once, it is <0| phi_0, the bra an odd-length dual ket starts from
    state = fock.vacuum()
    for times in range(2):
        state = ref_bra_apply_theta_exp(ref_bra_apply_phihat_star(state, 0), -1)
        if not times:
            assert state == bra_word((0,))
    assert state == fock.vacuum()
    assert star_bra(state) == star_bra(fock.vacuum())


# -- theta flows ------------------------------------------------------


def test_theta_fixes_vacuum():
    assert ref_bra_apply_theta_exp(bra_word(())) == bra_word(())
    assert ref_bra_apply_theta_exp(bra_word(()), -1) == bra_word(())
    assert ket_apply_theta_exp(fock.vacuum()) == fock.vacuum()


@given(bra_words)
@settings(max_examples=40, deadline=None)
def test_theta_exp_invertible(word):
    s = bra_word(word)
    roundtrip = ref_bra_apply_theta_exp(ref_bra_apply_theta_exp(s, 1), -1)
    assert roundtrip == s


@given(ket_words)
@settings(max_examples=40, deadline=None)
def test_ket_theta_exp_invertible(word):
    v = ket_word(word)
    roundtrip = ket_apply_theta_exp(ket_apply_theta_exp(v, -1), 1)
    assert roundtrip == v


@given(bra_words, st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_theta_conjugation_of_phi_beta(word, n):
    # e^T phi^(b)_n e^-T = phi^(b)_n + b phi^(b)_{n+1}
    s = bra_word(word)
    lhs = ref_bra_apply_theta_exp(
        ref_bra_apply_phi_beta(ref_bra_apply_theta_exp(s, 1), n), -1
    )
    rhs = add(
        ref_bra_apply_phi_beta(s, n),
        scale(ref_bra_apply_phi_beta(s, n + 1), BETA),
    )
    assert lhs == rhs


@given(bra_words, st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_theta_conjugation_of_phihat_star(word, n):
    # e^T (phi-hat_n)* e^-T expands into a geometric tail in -b
    s = bra_word(word)
    lhs = ref_bra_apply_theta_exp(
        ref_bra_apply_phihat_star(ref_bra_apply_theta_exp(s, 1), n), -1
    )
    rhs = EMPTY
    for k in range(n - sum(word) + 1):
        term = ref_bra_apply_phihat_star(s, n - k)
        rhs = add(rhs, scale(term, (-BETA) ** k))
    assert lhs == rhs


# -- quasi-duality ----------------------------------------------------


@given(bra_words, st.integers(0, 4), st.integers(0, 4))
@settings(max_examples=40, deadline=None)
def test_quasi_anticommutator(word, m, n):
    s = bra_word(word)
    lhs = add(
        ref_bra_apply_phi_beta(ref_bra_apply_phihat_star(s, m), n),
        ref_bra_apply_phihat_star(ref_bra_apply_phi_beta(s, n), m),
    )
    if m == n:
        expect = scale(s, 2)
    elif m == n + 1:
        expect = scale(s, BETA)
    else:
        expect = EMPTY
    assert lhs == expect


@given(bra_words, st.integers(0, 3), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_inner_product_pairing_table(word, m, n):
    # [(phi-hat_m)*, e^-T phi^(b)_n e^T]_+ is scalar except at m = n = 0
    if m == 0 and n == 0:
        return
    s = bra_word(word)

    def conj(state):
        inner = ref_bra_apply_phi_beta(ref_bra_apply_theta_exp(state, -1), n)
        return ref_bra_apply_theta_exp(inner, 1)

    lhs = add(
        conj(ref_bra_apply_phihat_star(s, m)),
        ref_bra_apply_phihat_star(conj(s), m),
    )
    if m < n:
        expect = EMPTY
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
    got = ref_bra_apply_phi_beta(bra_word((-1,)), 1)
    assert scalar_terms(got) == {(): B(-2)}


# -- integral states against the Fraction referee ----------------------


coefficients = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 6))
small_bra_words = st.lists(st.integers(-4, 0), max_size=3, unique=True).map(
    lambda xs: tuple(sorted(xs, reverse=True))
)
bra_states = st.dictionaries(
    st.tuples(small_bra_words, st.integers(0, 2)), coefficients, max_size=4
).map(FockState)


def actions(state, n, top):
    """(name, library result, referee result) of every action the routes
    use; the row at its top mode is the one (phihat_n)^*, n >= 1, and the
    dual kets' rows are conjugated by e^{i Theta}."""
    yield ("phihat_row", fock._phihat_row(state, abs(n) + 1, abs(n) + 1, 0),
           ref_bra_apply_phihat_star(state, abs(n) + 1))
    yield ("phi_beta_star", fock.bra_apply_phi_beta_star(state, abs(n), top),
           ref_bra_apply_phi_beta_star(state, abs(n), top))
    yield ("conjugated_row", fock._phihat_row(state, abs(n) + 1, 1, 2),
           row_by_taylor(state, abs(n) + 1, 1, 2))
    yield ("Theta_exp_star", fock.bra_apply_Theta_exp_star(state, top),
           ref_bra_apply_Theta_exp_star(state, top))


@given(bra_states, st.integers(-4, 4), st.integers(0, 5))
@settings(max_examples=60, deadline=None)
def test_actions_match_fraction_referee(state, n, top):
    for name, got, want in actions(state, n, top):
        assert got == want, name


@given(bra_states, st.integers(-4, 4), st.integers(0, 5))
@settings(max_examples=40, deadline=None)
def test_returned_states_are_integral_and_reduced(state, n, top):
    for name, got, _ in actions(state, n, top):
        assert isinstance(got, FockState), name
        assert type(got.den) is int and got.den > 0, name
        assert all(type(c) is int and c for c in got.terms.values()), name
        g = got.den
        for c in got.terms.values():
            g = gcd(g, c)
        assert g == 1, name


def test_constructor_reduces_and_checks_words():
    half = FockState({((-1,), 0): Fraction(2, 4), ((0, -2), 1): Fraction(-3, 2)})
    assert half.den == 2 and half.terms == {((-1,), 0): 1, ((0, -2), 1): -3}
    assert FockState({((-1,), 0): Fraction(6, 3)}) == FockState({((-1,), 0): 2})
    assert FockState({((-1,), 0): 0}) == EMPTY and EMPTY.den == 1
    for word, k in [((-2, -1), 0), ((1, -1), 0), ((-1, -1), 0), ((-1,), -1)]:
        with pytest.raises(ValueError):
            FockState({(word, k): 1})
    # a bool mode, b-power or value is refused by name, not read as an int
    for terms, bad in [({((0,), True): 1}, r"1 \(\(0,\), True\)"),
                       ({((-1,), 0): True}, r"True \(\(-1,\), 0\)"),
                       ({((False, -1), 0): 1}, r"1 \(\(False, -1\), 0\)")]:
        with pytest.raises(ValueError, match=bad):
            FockState(terms)


@pytest.mark.parametrize("terms, bad", [
    ({((-1.0,), 0): 1}, r"1 \(\(-1\.0,\), 0\)"),
    ({(("a",), 0): 1}, r"1 \(\('a',\), 0\)"),
    ({((-1,), 1.0): 1}, r"1 \(\(-1,\), 1\.0\)"),
    ({((-1,),): 1}, r"1 \(\(-1,\),\)"),
    ({((-1,), 0, 0): 1}, r"1 \(\(-1,\), 0, 0\)"),
    ({-1: 1}, r"1 -1"),
    ({(-1, 0): 1}, r"1 \(-1, 0\)"),
], ids=["float-mode", "str-mode", "float-power", "short-key", "long-key", "int-key", "int-word"])
def test_constructor_names_a_malformed_key(terms, bad):
    # a key that is not a (word of int modes, int b-power) pair is named
    # with ValueError, as every other bad term of every store is
    with pytest.raises(ValueError, match=bad):
        FockState(terms)


# -- the vacuum end of the GQ ket in closed form ------------------------------


def vacuum_end(top, word):
    """sum_{m=0}^{top} (-b/2)^m <0| word(m), in Fractions."""
    return FockState({(word(m), m): Fraction(-1, 2) ** m for m in range(top + 1)})


@pytest.mark.parametrize("top", range(21))
def test_vacuum_end_closed_forms(top):
    # with psi = (phi^(beta)_0)^*, cut at top as the actions cut:
    # (A) <0| e^theta = <0| + sum_{m>=1} (-b/2)^m <0| phi_0 phi_{-m} = <0| phi_0 psi,
    # (B) <0| e^theta psi = <0| phi_0,
    # (C) <0| phi_0 e^theta = sum_{m>=0} (-b/2)^m <0| phi_{-m} = <0| psi
    vac, phi0 = fock.vacuum(), bra_word((0,))
    a = vacuum_end(top, lambda m: (0, -m) if m else ())
    c = vacuum_end(top, lambda m: (-m,))
    theta_vac = fock.bra_apply_Theta_exp_star(vac, top)
    assert theta_vac == a
    assert fock.bra_apply_phi_beta_star(phi0, 0, top) == a
    assert fock.bra_apply_phi_beta_star(theta_vac, 0, top) == phi0
    assert fock.bra_apply_Theta_exp_star(phi0, top) == c
    assert fock.bra_apply_phi_beta_star(vac, 0, top) == c


# -- misuse of the public actions ---------------------------------------------


PUBLIC_ACTIONS = {
    "phi_beta_star": lambda state, top: fock.bra_apply_phi_beta_star(state, 1, top),
    "Theta_exp_star": fock.bra_apply_Theta_exp_star,
}


@pytest.mark.parametrize("name", PUBLIC_ACTIONS)
def test_actions_refuse_a_state_that_is_not_a_FockState(name):
    # a series is not read as a state, nor is a dict of terms
    for state in (gq_fermionic((1,), 3), {((), 0): 1}, None):
        with pytest.raises(TypeError, match="FockState"):
            PUBLIC_ACTIONS[name](state, 3)


@pytest.mark.parametrize("name", PUBLIC_ACTIONS)
def test_actions_refuse_a_bad_top(name):
    # top is an int >= 0: no empty answer below 0, no bool read as an int,
    # no TypeError from deep inside
    for top in (-1, True, False, 1.0, 2.5, "3", None):
        with pytest.raises(ValueError, match="top"):
            PUBLIC_ACTIONS[name](fock.vacuum(), top)


def test_phi_beta_star_refuses_a_bad_index():
    for n in (-1, True, 1.0, None):
        with pytest.raises(ValueError, match="n must"):
            fock.bra_apply_phi_beta_star(fock.vacuum(), n, 3)


def test_Theta_cut_holds_on_input_words():
    # a word already above the ceiling is dropped, as phi^(beta)_n drops it
    v = ket_word((3,))
    assert ket_apply_phi_beta(v, 1, 2) == EMPTY
    assert ket_apply_Theta_exp(v, 1) == EMPTY
    assert fock.bra_apply_Theta_exp_star(star_bra(v), 1) == EMPTY
    # at the ceiling the word stays, with what e^Theta adds above it cut
    assert ket_apply_Theta_exp(v, 3) == v
