from fractions import Fraction

import pytest

from kq import fock
from kq.bases import p_beta, q_series, to_deformed_basis
from kq.finitevars import eval_finite, from_finite
from kq.gq import (
    GQSeries,
    gq_fermionic,
    gq_pfaffian_1,
    gq_pfaffian_2,
    gq_series,
    gq_two_index,
)
from kq.hexpansion import classical_q, two_row_q, vacuum_expectation
from kq.laurent import f_table
from kq.oracle import gq_oracle
from kq.pseries import PSeries
from kq.scalars import ONE, BetaScalar, binom_general
from referees import (at_b, check_kq_cancellation, exp, kernel_coefficient, scalar_terms,
                      strict_partitions_upto)


def zpoly_exp(parts, D):
    """exp of a z-polynomial with PSeries coefficients, z-degree <= D."""
    out = [PSeries.one(D)] + [PSeries.zero(D) for _ in range(D)]
    term = list(out)
    for m in range(1, D + 1):
        nxt = [PSeries.zero(D) for _ in range(D + 1)]
        for a, t in enumerate(term):
            if not t.is_zero():
                for b in range(D + 1 - a):
                    if not parts[b].is_zero():
                        nxt[a + b] = nxt[a + b] + t * parts[b]
        term = [t * Fraction(1, m) for t in nxt]
        if all(t.is_zero() for t in term):
            break
        out = [s + t for s, t in zip(out, term)]
    return out


def log_eta_parts(D):
    """z^j coefficients of sum_n (p_n/n) (z^n - (-z-beta)^n)."""
    ex = [PSeries.zero(D) for _ in range(D + 1)]
    for n in range(1, D + 1):
        pn = PSeries.p(n, D)
        w = Fraction(1 if n % 2 else -1, n)
        for j in range(n + 1):
            ex[j] = ex[j] + pn * BetaScalar.beta_power(n - j, w * binom_general(n, j))
        ex[n] = ex[n] + pn * Fraction(1, n)
    return ex


def theta_minus_beta(D):
    acc = PSeries.zero(D)
    for n in range(1, D + 1):
        acc = acc + PSeries.p(n, D) * BetaScalar.beta_power(n, Fraction(-1 if n % 2 else 1, n))
    return exp(acc)


# -- the one-row series -------------------------------------------------------


def test_series_beta_zero_is_classical_q():
    D = 6
    s = gq_series(D)
    qs = q_series(D)
    for n in range(D + 1):
        assert at_b(s.coefficient(n), 0) == qs[n]


def test_series_x_zero_specialization():
    # constant term: (-beta)^{-n} for n <= 0, nothing for n >= 1
    D = 6
    s = gq_series(D)
    for n in range(-D, 0 + 1):
        want = BetaScalar.beta_power(-n, -1 if n % 2 else 1)
        assert s.coefficient(n).coefficient(()) == want
    for n in range(1, D + 1):
        assert not s.coefficient(n).coefficient(())


def test_series_lowest_degree():
    D = 6
    s = gq_series(D)
    for n in range(-D, D + 1):
        c = s.coefficient(n)
        assert all(sum(k) >= max(n, 0) for k, _ in c.sorted_items())


def test_series_vanishes_above_bound():
    assert gq_series(4).coefficient(5).is_zero()
    assert gq_series(4).coefficient(17).is_zero()


def test_series_extends_below_default_window():
    s = gq_series(4)
    assert s.coefficient(-9).coefficient(()) == BetaScalar.beta_power(9, -1)


def test_nonpositive_coefficients_are_the_closed_form():
    # GQ_n = (-beta)^{-n} for n <= 0, which coefficient() answers without
    # assembling; the assembly from the exp parts must agree, below -D too
    for D in range(11):
        s = GQSeries(D)
        for n in range(-D - 3, 1):
            want = PSeries({(): BetaScalar.beta_power(-n, -1 if n % 2 else 1)}, D)
            assert s._assemble(n) == want, (D, n)
            assert s.coefficient(n) == want, (D, n)


def test_shared_series_is_not_grown_by_requests():
    s = gq_series(4)
    before = len(s.coefficients)
    s.coefficient(-9)
    assert len(gq_series(4).coefficients) == before


def test_shared_series_is_read_only():
    # one table serves every caller, so a write would change later results
    want = gq_pfaffian_1((2, 1), 5)
    with pytest.raises(TypeError):
        gq_series(5).coefficients[2] = PSeries.zero(5)
    with pytest.raises(TypeError):
        f_table(1, 2, 2, 2, (3, 3))[(0, 0)] = ONE
    with pytest.raises(TypeError):
        f_table(1, 2, 1, 2, (3, 0))[0] = ONE
    assert gq_pfaffian_1((2, 1), 5) == want


def test_series_coefficient_zero_is_one():
    # not assumed anywhere; recorded as a computed fact
    for D in (2, 5, 7):
        assert gq_series(D).coefficient(0) == PSeries.one(D)


def test_generating_function_rearrangement():
    # (1 + beta/z) theta(-beta) GQ(z) = exp(sum p_n (z^n - (-z-beta)^n)/n),
    # coefficient by coefficient; in particular the negative z-tail of the
    # left side collapses to zero.
    D = 5
    s = gq_series(D)
    tm = theta_minus_beta(D)
    rhs = zpoly_exp(log_eta_parts(D), D)
    for n in range(-4, D + 1):
        lhs = tm * (s.coefficient(n) + s.coefficient(n + 1) * BetaScalar.beta_power(1))
        want = rhs[n] if n >= 0 else PSeries.zero(D)
        assert lhs == want


def ket_apply_Theta_exp_opposite(state, top):
    """e^{-Theta} on kets, as the star of the right action of e^{-theta}."""
    return fock.star_bra(fock._theta_exp(fock.star_ket(state), -1, top))


def test_vacuum_matrix_element_closed_form():
    # <0| e^{H^(beta)} phi^(beta)(z) e^{-Theta} phi^(beta)_0 e^{Theta} |0>
    # = (1 + beta/z) exp(sum p_n (z^n - (-z-beta)^n + (-beta)^n)/n),
    # checked for the z^0..z^4 modes.
    D = 5
    ex = log_eta_parts(D)
    for n in range(1, D + 1):
        ex[0] = ex[0] + PSeries.p(n, D) * BetaScalar.beta_power(n, Fraction(-1 if n % 2 else 1, n))
    closed = zpoly_exp(ex, D)
    for m in range(5):
        state = fock.ket_apply_Theta_exp(fock.vacuum_ket(), D)
        state = fock.ket_apply_phi_beta(state, 0, D)
        state = ket_apply_Theta_exp_opposite(state, D)
        state = fock.ket_apply_phi_beta(state, m, D)
        lhs = vacuum_expectation(state, "paren", D)
        rhs = closed[m] + closed[m + 1] * BetaScalar.beta_power(1)
        assert lhs == rhs


# -- Pfaffian formula I -------------------------------------------------------


def test_pfaffian_1_empty_partition():
    assert gq_pfaffian_1((), 4) == PSeries.one(4)


def test_pfaffian_1_one_row_is_series_coefficient():
    D = 5
    s = gq_series(D)
    for n in range(1, D + 1):
        assert gq_pfaffian_1((n,), D) == s.coefficient(n)


def test_pfaffian_1_against_oracle():
    D = 5
    for lam in [(1,), (3,), (2, 1), (3, 2)]:
        assert gq_pfaffian_1(lam, D) == from_finite(gq_oracle(lam, D, D), D)


def test_classical_q21_regression():
    # beta = 0 collapses the route to Schur Q; Q_(2,1) = q2 q1 - 2 q3
    D = 6
    qs = q_series(D)
    got = at_b(gq_pfaffian_1((2, 1), D), 0)
    assert got == qs[2] * qs[1] - qs[3] * 2
    assert got == classical_q((2, 1), D)


def test_pfaffian_1_rejects_bad_input():
    with pytest.raises(ValueError):
        gq_pfaffian_1((2, 2), 6)
    with pytest.raises(ValueError):
        gq_pfaffian_1((3, 2, 1), 5)


def test_window_widening_changes_nothing():
    # the p-window stops at D - lambda_i because GQ_n = 0 past the bound;
    # rebuilding one entry from a much wider table must give the same sum
    D = 5
    s = gq_series(D)
    li, lj = 2, 1

    def entry(pw, qw):
        tab = f_table(1, 2, 2, 2, (pw, qw))
        acc = PSeries.zero(D)
        for (p, q), c in tab.items():
            term = s.coefficient(li + p) * s.coefficient(lj + q)
            acc = acc + term * BetaScalar.beta_power(p + q, c)
        return acc

    assert entry(D - li, D - lj) == entry(2 * D, 2 * D)


# -- two-index values and Pfaffian formula II ---------------------------------


def raw_two_index(a, b, D, slack):
    """GQ_(a,b) expanded from its definition, every window pushed out by
    slack: (-beta)^s from the prefactor, the kernel (z1-z2)/(z1+z2+beta)
    at z1^{-mp} z2^q from the referee's own closed form, and no f-table."""
    s = gq_series(D)
    acc = PSeries.zero(D)
    for sp in range(max(0, D - a) + slack + 1):
        sc = BetaScalar.beta_power(sp, -1 if sp % 2 else 1)
        for mp in range(max(0, D - a - sp) + slack + 1):
            gi = s.coefficient(a + sp + mp)
            if gi.is_zero():
                continue
            for q in range(mp + 1):
                kc = kernel_coefficient(-mp, q)
                if not kc:
                    continue
                gj = s.coefficient(b - q)
                if not gj.is_zero():
                    acc = acc + gi * gj * (kc * sc)
    return acc


def test_two_index_window_widening():
    D = 5
    assert raw_two_index(2, 1, D, 3) == gq_two_index(2, 1, D)
    assert raw_two_index(3, 2, D, 2) == gq_two_index(3, 2, D)
    # past the bound the wide loop still sums to zero, term by term
    assert raw_two_index(4, 2, D, 2).is_zero()


@pytest.mark.parametrize("D", [4, 5, 7])
def test_two_index_matches_independent_loop(D):
    # the library reads GQ_(a,b) off formula I's f-table; the loop above
    # never touches laurent, so the two agree only if the tables are right
    for a in range(-2, D + 2):
        for b in range(-2, D + 2):
            want = gq_two_index(a, b, D)
            for slack in (0, 2):
                assert raw_two_index(a, b, D, slack) == want, (a, b, slack)


def test_two_index_beta_zero_is_two_row_q():
    D = 6
    for a, b in [(2, 1), (3, 1), (3, 2), (4, 2)]:
        assert at_b(gq_two_index(a, b, D), 0) == two_row_q(a, b, D)
    # equal indices square to zero classically
    assert at_b(gq_two_index(2, 2, D), 0).is_zero()
    assert at_b(gq_two_index(3, 3, D), 0).is_zero()


def test_two_index_vanishes_past_bound():
    assert gq_two_index(4, 2, 5).is_zero()
    assert gq_two_index(6, 1, 5).is_zero()


def test_pfaffian_2_pair_is_bare_two_index():
    # at r = 2 both binomial prefactors collapse to delta_{k,0}
    D = 6
    for a, b in [(2, 1), (3, 2), (4, 1)]:
        assert gq_pfaffian_2((a, b), D) == gq_two_index(a, b, D)


def test_pfaffian_2_beta_zero_is_classical():
    D = 6
    for lam in [(2, 1), (3, 1), (3, 2, 1)]:
        assert at_b(gq_pfaffian_2(lam, D), 0) == classical_q(lam, D)


def test_pfaffian_routes_agree():
    D = 7
    for lam in strict_partitions_upto(D):
        a = gq_pfaffian_1(lam, D)
        assert a == gq_pfaffian_2(lam, D), lam
        assert a == gq_fermionic(lam, D), lam


def test_routes_against_oracle_deeper():
    D = 6
    lam = (3, 2, 1)
    want = from_finite(gq_oracle(lam, D, D), D)
    assert gq_pfaffian_1(lam, D) == want


@pytest.mark.parametrize("lam", [(2, 1), (3, 2, 1), (4, 3)])
def test_fermionic_against_oracle_at_seven(lam):
    D = 7
    assert from_finite(gq_oracle(lam, D), D) == gq_fermionic(lam, D)


# -- fermionic route ----------------------------------------------------------


def test_fermionic_empty_partition():
    assert gq_fermionic((), 5) == PSeries.one(5)


def test_fermionic_theta_sign_is_pinned(monkeypatch):
    # e^Theta on kets is the star of e^{+theta} on bras; the opposite sign
    # gives another GQ_(2,1)
    D = 6
    want = gq_pfaffian_1((2, 1), D)
    assert gq_fermionic((2, 1), D) == want
    monkeypatch.setattr(fock, "ket_apply_Theta_exp", ket_apply_Theta_exp_opposite)
    assert gq_fermionic((2, 1), D) != want


@pytest.mark.parametrize("lam", [(), (1,), (2, 1), (3, 1), (4, 2, 1)])
def test_fermionic_grade_ceiling_is_exact(lam):
    # each ket step drops words above D minus the parts still to apply; a
    # higher bound keeps them, and must agree below D
    D = 7
    assert gq_fermionic(lam, D + 2).truncate(D) == gq_fermionic(lam, D)


def test_fermionic_beta_zero_is_classical():
    D = 5
    for lam in [(2,), (2, 1), (3, 1)]:
        assert at_b(gq_fermionic(lam, D), 0) == classical_q(lam, D)


# -- ring membership ----------------------------------------------------------


def test_odd_power_sum_support():
    D = 6
    for lam in [(2, 1), (3, 1), (2,)]:
        coeffs = to_deformed_basis(gq_pfaffian_1(lam, D), "paren")
        assert coeffs, lam
        for mu in coeffs:
            assert all(part % 2 for part in mu)


def test_observed_coefficient_denominators():
    # Q[b] allows any rational coefficients; what actually shows up
    # for GQ_(2,1) at D = 5 is denominators {1, 3, 5} in the p-basis and
    # plain Z[beta] after expanding into x-monomials
    D = 5
    f = gq_pfaffian_1((2, 1), D)
    dens = set()
    for _, c in f.sorted_items():
        dens.update(fr.denominator for fr in c.as_polynomial())
    assert dens == {1, 3, 5}
    g = eval_finite(f, D)
    for c in scalar_terms(g).values():
        assert all(fr.denominator == 1 for fr in c.as_polynomial())


def test_cancellation_accepts_gq():
    D = 5
    assert check_kq_cancellation(gq_pfaffian_1((2,), D), D, D + 2)
    assert check_kq_cancellation(gq_pfaffian_1((3, 1), D), D, D + 2)


def test_cancellation_rejects_plain_power_sum():
    assert not check_kq_cancellation(PSeries.p(1, 5), 5, 7)
    assert not check_kq_cancellation(PSeries.p(2, 5), 5, 7)


def test_cancellation_accepts_deformed_power_sum():
    D = 5
    assert check_kq_cancellation(p_beta(1, D), D, D + 2)
    assert check_kq_cancellation(p_beta(3, D), D, D + 2)


def test_cancellation_preconditions():
    f = PSeries.p(1, 5)
    with pytest.raises(ValueError):
        check_kq_cancellation(f, 5, 6)
    with pytest.raises(ValueError):
        check_kq_cancellation(f, 6, 9)
