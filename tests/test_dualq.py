from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq import fock
from kq.bases import p_beta, p_bracket, q_series, to_deformed_basis
from kq.dualq import (
    bilinear_pair,
    gp,
    o_fermionic,
    o_pfaffian_1,
    o_pfaffian_2,
    o_series,
    o_two_index,
    q_bracket_series,
)
from kq.finitevars import eval_finite
from kq.gq import gq_fermionic, gq_pfaffian_1
from kq.laurent import g_table
from kq.partitions import (
    even_ceil,
    partitions_upto,
    row_count,
    sub_strict_partitions,
    z_lambda,
)
from kq.pseries import PSeries
from kq.scalars import ONE, ZERO, BetaScalar, binom_general
from referees import (
    at_b,
    check_dual_cancellation,
    fock_pairing,
    inner_product_formula,
    pairing_i,
    scalar_terms,
    strict_partitions_upto,
    vacuum_part,
)

HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def gq1(lam, degree_bound):
    return gq_pfaffian_1(lam, degree_bound)


def words_with_parts_at_most(top):
    """All strictly decreasing words over 0..top, the empty word included."""
    out = []
    for r in range(top + 2):
        for c in combinations(range(top + 1), r):
            out.append(tuple(sorted(c, reverse=True)))
    return out


def padded(word):
    return word + (0,) if len(word) % 2 else word


# -- one-row generators q^[b]_n -----------------------------------------------


def test_q_bracket_low_terms():
    qb = q_bracket_series(4)
    assert qb[0] == PSeries.one(4)
    assert qb[1] == PSeries({(1,): 2}, 4)
    # q^[b]_2 = 2 p_1^2 - b p_1; no p_2, as in the classical case
    assert qb[2] == PSeries({(1, 1): 2, (1,): BetaScalar.beta_power(1, -1)}, 4)


def test_q_bracket_beta_zero_is_classical():
    D = 6
    qb = q_bracket_series(D)
    qs = q_series(D)
    for n in range(D + 1):
        assert at_b(qb[n], 0) == qs[n]


def test_q_bracket_top_degree():
    qb = q_bracket_series(5)
    for n in range(1, 6):
        assert qb[n].top_degree() == n


# -- the o series --------------------------------------------------------------


def test_o_series_low_values():
    D = 5
    osr = o_series(D)
    assert osr.coefficient(0) == PSeries({(): HALF}, D)
    assert osr.coefficient(1) == PSeries(
        {(1,): 1, (): BetaScalar.beta_power(1, -HALF)}, D
    )


def test_shared_tables_are_read_only():
    # o_series and the g tables serve every caller, so a write would
    # change later results
    want = o_pfaffian_2((3,), 5)
    with pytest.raises(TypeError):
        o_series(5).coefficients[3] = PSeries.zero(5)
    with pytest.raises(TypeError):
        g_table(1, 2, 2, (3, 3))[(0, 0)] = ONE
    with pytest.raises(TypeError):
        g_table(1, 2, 1, (3, 0))[0] = ONE
    assert o_pfaffian_2((3,), 5) == want


def test_o_series_constant_terms():
    # o_n at x = 0 is (-b)^n / 2; these constants are what break any claim
    # that pairing against 1 vanishes for nonempty rows
    D = 6
    osr = o_series(D)
    for n in range(D + 1):
        want = BetaScalar.beta_power(n, Fraction(-1 if n % 2 else 1, 2))
        assert osr.coefficient(n).coefficient(()) == want


def test_o_series_beta_zero_is_half_q():
    D = 6
    osr = o_series(D)
    qs = q_series(D)
    for n in range(D + 1):
        assert at_b(osr.coefficient(n), 0) == qs[n] * HALF


def test_o_series_top_degree():
    osr = o_series(6)
    for n in range(1, 7):
        assert osr.coefficient(n).top_degree() == n


def test_o_series_window():
    osr = o_series(4)
    assert osr.coefficient(-3).is_zero()
    with pytest.raises(ValueError):
        osr.coefficient(5)


# -- two-index blocks ----------------------------------------------------------


def test_two_index_is_the_strict_two_row_dual():
    D = 7
    for a, b in [(2, 1), (3, 1), (3, 2), (4, 3)]:
        assert o_two_index(a, b, D) == o_pfaffian_1((a, b), D)


def test_two_index_vanishing_floor_is_tight():
    D = 6
    assert o_two_index(3, -1, D).is_zero()
    assert o_two_index(-3, 2, D).is_zero()
    # a may go negative as long as a >= -b: the kernel window, not l >= 0
    assert o_two_index(-1, 1, D) == PSeries({(): -HALF}, D)
    assert o_two_index(0, 0, D) == PSeries({(): Fraction(1, 4)}, D)


def test_two_index_beta_zero_antisymmetry():
    # classical limit: o_(a,b) = -o_(b,a), except at the half-mode corner
    # (0,0) where both summands are the constant 1/4
    D = 6
    for a in range(4):
        for b in range(4):
            plus = at_b(o_two_index(a, b, D) + o_two_index(b, a, D), 0)
            if (a, b) == (0, 0):
                assert plus == PSeries({(): HALF}, D)
            else:
                assert plus.is_zero()


def test_two_index_window_widens_past_degree_bound():
    # a + b above the bound truncates the series, it does not raise
    D = 5
    full = o_pfaffian_1((4, 2), 6)
    cut = dict(o_two_index(4, 2, D).sorted_items())
    full = dict(full.sorted_items())
    for key, val in cut.items():
        assert full.get(key, ZERO) == val
    for key, val in full.items():
        if sum(key) <= D:
            assert cut.get(key, ZERO) == val


# -- the three o routes --------------------------------------------------------


def test_o_routes_agree_up_to_weight_six():
    D = 7
    osr = o_series(D)
    for lam in strict_partitions_upto(6):
        first = o_pfaffian_1(lam, D)
        assert first == o_pfaffian_2(lam, D)
        assert first == o_fermionic(lam, D)
        if len(lam) == 1:
            assert first == osr.coefficient(lam[0])


def test_o_empty_partition():
    assert o_pfaffian_1((), 4) == PSeries.one(4)
    assert o_pfaffian_2((), 4) == PSeries.one(4)
    assert o_fermionic((), 4) == PSeries.one(4)


def test_o_fermionic_classical_one_row():
    # at beta = 0 the r = 1 case collapses to q_1 / 2 = p_1
    got = at_b(o_fermionic((1,), 4), 0)
    assert got == PSeries.p(1, 4)


def test_o_fermionic_crosses_route_one():
    assert o_fermionic((2,), 4) == o_pfaffian_1((2,), 4)


def test_o_rejects_bad_input():
    with pytest.raises(ValueError):
        o_pfaffian_1((2, 2), 6)
    with pytest.raises(ValueError):
        o_pfaffian_2((3, 2, 1), 5)
    with pytest.raises(ValueError):
        o_fermionic((1, 2), 6)


# -- elementary pairing and the Fock pairing -----------------------------------


def test_pairing_i_values():
    assert pairing_i(0, 0) == ONE
    assert pairing_i(3, 3) == BetaScalar(2)
    assert pairing_i(1, 3) == ZERO
    assert pairing_i(2, 1) == BetaScalar.beta_power(1, -1)
    assert pairing_i(3, 1) == BetaScalar.beta_power(2, 1)


def test_fock_pairing_vacuum_cases():
    assert fock_pairing((), ()) == ONE
    assert fock_pairing((0,), (0,)) == ONE


def test_fock_pairing_product_example():
    # I(3,2) I(1,1) = (-b) * 2
    assert fock_pairing((3, 1), (2, 1)) == BetaScalar.beta_power(1, -2)


def test_fock_pairing_zero_reservoir():
    # the empty ket supplies zero rows instead of forcing the value to 0:
    # ^g<1,0|empty> = I(1,0) I(0,0) = -b
    assert fock_pairing((1, 0), ()) == BetaScalar.beta_power(1, -1)
    # I(2,1) I(1,0) I(0,0) = (-b)(-b) = b^2
    assert fock_pairing((2, 1, 0), (1,)) == BetaScalar.beta_power(2, 1)
    # an odd length gap kills the element outright
    assert fock_pairing((1,), ()) == ZERO
    assert fock_pairing((2, 1), (1,)) == ZERO


def test_fock_pairing_engine_matches_product_small_sweep():
    # fock_pairing raises if the engine and the closed product disagree,
    # so the sweep only has to run; parts <= 4 is covered by acceptance
    words = words_with_parts_at_most(3)
    for mu in words:
        for lam in words:
            fock_pairing(mu, lam)


def test_fock_pairing_rejects_bad_words():
    with pytest.raises(ValueError):
        fock_pairing((1, 1), ())
    with pytest.raises(ValueError):
        fock_pairing((), (0, 1))
    with pytest.raises(ValueError):
        fock_pairing((2, -1), ())


@st.composite
def strict_words(draw):
    vals = draw(st.lists(st.integers(0, 4), unique=True, max_size=4))
    return tuple(sorted(vals, reverse=True))


@given(strict_words(), strict_words())
@settings(deadline=None, max_examples=40)
def test_fock_pairing_internal_check_random(mu, lam):
    got = fock_pairing(mu, lam)
    if (len(mu) - len(lam)) % 2:
        assert got == ZERO


# -- the bilinear form ---------------------------------------------------------


def test_bilinear_pair_basis_normalization():
    D = 5
    assert bilinear_pair(p_beta(1, D), p_bracket(1)) == BetaScalar.beta_power(0, HALF)
    f = p_beta(3, D) * p_beta(1, D) * p_beta(1, D)
    g = p_bracket(3, D) * p_bracket(1, D) * p_bracket(1, D)
    # z_{(3,1,1)} = 6, l = 3: 6 / 8
    assert bilinear_pair(f, g) == BetaScalar.beta_power(0, Fraction(3, 4))
    off = p_bracket(1, D) * p_bracket(1, D) * p_bracket(1, D)
    assert bilinear_pair(p_beta(3, D), off) == ZERO


def test_bilinear_pair_guards():
    with pytest.raises(ValueError):
        bilinear_pair(p_beta(1, 1), p_bracket(3))
    with pytest.raises(ValueError):
        bilinear_pair(PSeries.p(2, 5), p_bracket(1))
    with pytest.raises(ValueError):
        bilinear_pair(p_beta(1, 5), PSeries.p(2, 2))


def test_bilinear_pair_rejects_non_series():
    with pytest.raises(TypeError, match="int for f"):
        bilinear_pair(1, gp((1,), 3))
    with pytest.raises(TypeError, match="dict for g"):
        bilinear_pair(gp((1,), 3), {(1,): 1})


def test_bilinear_pair_repeats_match_a_fresh_reference():
    # the coordinates kept on each series must give what a fresh
    # conversion gives, however often the same objects are paired
    D = 5
    f = gq_fermionic((2, 1), D) * gq_fermionic((1,), D)
    g = gp((3, 1), D)
    cf = to_deformed_basis(PSeries(dict(f.sorted_items()), f.degree_bound), "paren")
    cg = to_deformed_basis(PSeries(dict(g.sorted_items()), g.degree_bound), "bracket")
    want = ZERO
    for mu, a in cf.items():
        for nu, b in cg.items():
            if mu == nu:
                want = want + a * b * Fraction(z_lambda(mu), 2 ** len(mu))
    assert want
    assert bilinear_pair(f, g) == want
    assert bilinear_pair(f, g) == want


def test_duality_delta_small_sweep():
    D = 5
    plist = list(strict_partitions_upto(4))
    gps = {mu: gp(mu, D) for mu in plist}
    for lam in plist:
        f = gq1(lam, D)
        for mu in plist:
            want = ONE if lam == mu else ZERO
            assert bilinear_pair(f, gps[mu]) == want


def test_duality_empty_column():
    # <1, gp_mu> = delta_{(), mu}; this corner is what fixes the recursion
    D = 5
    one = PSeries.one(D)
    for mu in strict_partitions_upto(4):
        want = ONE if mu == () else ZERO
        assert bilinear_pair(one, gp(mu, D)) == want


def test_length_filtered_recursion_fails_duality():
    # A tempting variant subtracts corrections only from mu of the same
    # even-rounded length.  It reproduces the simple shapes gp'_(1) = o_(1)
    # and gp'_(2) = o_2 + (b/2) o_1, but strands the constant terms:
    # <1, gp'_(n)> = (-b/2)^n != 0.  Duality forces the unfiltered sum.
    D = 5

    def gp_filtered(lam):
        acc = o_pfaffian_1(lam, D)
        for mu in sub_strict_partitions(lam):
            if mu == lam or even_ceil(len(mu)) != even_ceil(len(lam)):
                continue
            d = sum(lam) - sum(mu)
            c = Fraction(-1 if d % 2 else 1, 2 ** row_count(lam, mu))
            acc = acc - gp_filtered(mu) * BetaScalar.beta_power(d, c)
        return acc

    osr = o_series(D)
    assert gp_filtered((1,)) == osr.coefficient(1)
    assert gp_filtered((2,)) == osr.coefficient(2) + osr.coefficient(1) * BetaScalar.beta_power(1, HALF)
    one = PSeries.one(D)
    for n in (1, 2, 3):
        got = bilinear_pair(one, gp_filtered((n,)))
        assert got == BetaScalar.beta_power(n, Fraction(-1 if n % 2 else 1, 2 ** n))
        assert got != ZERO


def test_triangle_formula_small_sweep():
    D = 5
    plist = list(strict_partitions_upto(4))
    for lam in plist:
        f = gq1(lam, D)
        for mu in plist:
            got = bilinear_pair(f, o_pfaffian_1(mu, D))
            assert got == inner_product_formula(lam, mu)


def test_triangle_reaches_across_length_gap():
    # lengths 1 vs 3; the pairing is a clean power of -b/2, not zero
    got = bilinear_pair(gq1((1,), 6), o_pfaffian_1((3, 2, 1), 6))
    assert got == BetaScalar.beta_power(5, Fraction(-1, 8))
    assert got == inner_product_formula((1,), (3, 2, 1))


def test_pairing_one_with_o_reads_constant_term():
    D = 5
    one = PSeries.one(D)
    osr = o_series(D)
    for mu in strict_partitions_upto(5):
        got = bilinear_pair(one, o_pfaffian_1(mu, D))
        assert got == o_pfaffian_1(mu, D).coefficient(())
        if len(mu) == 1:
            assert got == osr.coefficient(mu[0]).coefficient(())


def test_scaled_fock_route_matches_triangle():
    # <GQ_lam, o_mu> = 2^{-l(mu)} ^g<pad(mu)|pad(lam)>^G
    for lam in strict_partitions_upto(5):
        for mu in strict_partitions_upto(5):
            got = fock_pairing(padded(mu), padded(lam)) * Fraction(1, 2 ** len(mu))
            assert got == inner_product_formula(lam, mu)


# -- the closed pairing formula ------------------------------------------------


def test_inner_product_formula_examples():
    assert inner_product_formula((2,), (2,)) == ONE
    assert inner_product_formula((1,), (2,)) == BetaScalar.beta_power(1, -HALF)
    assert inner_product_formula((1,), (2, 1)) == BetaScalar.beta_power(2, Fraction(1, 4))


def test_inner_product_formula_containment_only():
    assert inner_product_formula((2,), (1,)) == ZERO
    assert inner_product_formula((3, 1), (3, 2)) == BetaScalar.beta_power(1, -HALF)
    # the empty row pairs against the constant term of o_mu
    assert inner_product_formula((), (3, 2, 1)) == BetaScalar.beta_power(6, Fraction(1, 8))
    assert inner_product_formula((), (1,)) == BetaScalar.beta_power(1, -HALF)


# -- gp ------------------------------------------------------------------------


def test_gp_low_values():
    D = 5
    osr = o_series(D)
    assert gp((), D) == PSeries.one(D)
    assert gp((1,), D) == PSeries.p(1, D)
    want2 = (
        osr.coefficient(2)
        + osr.coefficient(1) * BetaScalar.beta_power(1, HALF)
        - PSeries.one(D) * BetaScalar.beta_power(2, Fraction(1, 4))
    )
    assert gp((2,), D) == want2


def test_gp_reconstructs_o():
    D = 5
    for lam in strict_partitions_upto(5):
        acc = PSeries.zero(D)
        for mu in sub_strict_partitions(lam):
            acc = acc + gp(mu, D) * inner_product_formula(mu, lam)
        assert acc == o_pfaffian_1(lam, D)


def test_gp_reconstruction_needs_the_constant_row():
    # o_3 = gp_3 - (b/2) gp_2 + (b^2/2) gp_1 - (b^3/2) gp_(); dropping the
    # last summand leaves exactly that constant behind
    D = 5
    three_terms = (
        gp((3,), D)
        - gp((2,), D) * BetaScalar.beta_power(1, HALF)
        + gp((1,), D) * BetaScalar.beta_power(2, HALF)
    )
    diff = o_pfaffian_1((3,), D) - three_terms
    assert diff == PSeries.one(D) * BetaScalar.beta_power(3, -HALF)


def test_gp_triangular_shape():
    # the correction gp_lam - o_lam lives strictly below weight |lam|
    D = 5
    for lam in strict_partitions_upto(5):
        if not lam:
            continue
        diff = gp(lam, D) - o_pfaffian_1(lam, D)
        top = diff.top_degree()
        assert top is None or top < sum(lam)


def test_dual_family_odd_support():
    D = 5
    for lam in strict_partitions_upto(5):
        for f in (o_pfaffian_1(lam, D), gp(lam, D)):
            for mu in to_deformed_basis(f, "bracket"):
                assert all(part % 2 for part in mu)


def test_gp_monomial_coefficients_are_integral():
    # observed, not forced by the construction: expanded in x the gp family
    # is integer-coefficient over b, with no constant term for nonempty lam
    D = 5
    for lam in strict_partitions_upto(5):
        g = eval_finite(gp(lam, D), 6)
        for exps, sc in scalar_terms(g).items():
            assert all(q.denominator == 1 for q in sc.as_polynomial())
            if lam:
                assert any(exps)


@pytest.mark.parametrize("route, sign", [(gq_fermionic, 1), (o_pfaffian_1, -1), (gp, -1)],
                         ids=["gq_fermionic", "o_pfaffian_1", "gp"])
def test_coefficients_are_homogeneous_in_b(route, sign):
    # with deg b = -1 each family is homogeneous of degree |lambda|, so the
    # p_mu coefficient is a single monomial c b^{sign (|mu| - |lambda|)}
    D = 6
    for lam in strict_partitions_upto(5):
        f = route(lam, D)
        assert f.sorted_items(), lam
        for mu, c in f.sorted_items():
            support = [e for e, x in enumerate(c.as_polynomial()) if x]
            assert support == [sign * (sum(mu) - sum(lam))], (lam, mu, c)


def test_gp_rejects_bad_input():
    with pytest.raises(ValueError):
        gp((2, 2), 5)
    with pytest.raises(ValueError):
        gp((3,), 2)


# -- cancellation checker ------------------------------------------------------


def test_dual_cancellation_accepts_generators():
    assert check_dual_cancellation(p_bracket(3), 5)
    assert check_dual_cancellation(p_bracket(5), 7)


def test_dual_cancellation_rejects_p2():
    assert not check_dual_cancellation(PSeries.p(2, 2), 4)


def test_dual_cancellation_accepts_duals():
    assert check_dual_cancellation(o_pfaffian_1((2, 1), 3), 5)
    assert check_dual_cancellation(gp((3, 1), 4), 6)
    assert check_dual_cancellation(o_series(3).coefficient(3), 5)


def test_dual_cancellation_edge_cases():
    assert check_dual_cancellation(PSeries.zero(3), 0)
    with pytest.raises(ValueError):
        check_dual_cancellation(p_bracket(3), 4)


# -- Cauchy kernel -------------------------------------------------------------


def test_cauchy_kernel_double_expansion():
    """prod_{i,j} (1 - xbar_i y_j)/(1 - x_i y_j) two ways, joint degree <= 5.

    Left: exponentiate sum_n (1/n)(p_n(x) - p_n(xbar)) p_n(y) directly,
    with p_n(xbar) = (-1)^n sum_k C(-n,k) b^k p_{n+k}(x).  Right: sum
    2^l z_lam^{-1} p^(b)_lam(x) p^[b]_lam(y) over odd-part partitions.
    Tensors are dicts keyed by the y-side p-monomial.
    """
    T = 5

    def p_bar(n):
        acc = PSeries.zero(T)
        for k in range(T - n + 1):
            c = binom_general(-n, k)
            acc = acc + PSeries.p(n + k, T) * BetaScalar.beta_power(k, -c if n % 2 else c)
        return acc

    def tensor_mul(f, g):
        out = {}
        for mu, a in f.items():
            for nu, b in g.items():
                if sum(mu) + sum(nu) > T:
                    continue
                key = tuple(sorted(mu + nu, reverse=True))
                c = a * b
                prev = out.get(key)
                out[key] = c if prev is None else prev + c
        return {k: v for k, v in out.items() if not v.is_zero()}

    log_parts = {
        (n,): (PSeries.p(n, T) - p_bar(n)) * Fraction(1, n) for n in range(1, T + 1)
    }
    lhs = {(): PSeries.one(T)}
    term = dict(lhs)
    for m in range(1, T + 1):
        term = {k: v * Fraction(1, m) for k, v in tensor_mul(term, log_parts).items()}
        if not term:
            break
        for k, v in term.items():
            prev = lhs.get(k)
            lhs[k] = v if prev is None else prev + v

    rhs = {(): PSeries.one(T)}
    for lam in partitions_upto(T):
        if not lam or not all(part % 2 for part in lam):
            continue
        xpart = PSeries.one(T)
        ypart = PSeries.one(T)
        for part in lam:
            xpart = xpart * p_beta(part, T)
            ypart = ypart * p_bracket(part, T)
        w = Fraction(2 ** len(lam), z_lambda(lam))
        for mu, c in ypart.sorted_items():
            add = xpart * c * w
            prev = rhs.get(mu)
            rhs[mu] = add if prev is None else prev + add

    for mu in set(lhs) | set(rhs):
        if sum(mu) > T:
            continue
        cap = T - sum(mu)
        a = dict(lhs.get(mu, PSeries.zero(T)).sorted_items())
        b = dict(rhs.get(mu, PSeries.zero(T)).sorted_items())
        for key in set(a) | set(b):
            if sum(key) <= cap:
                assert a.get(key, ZERO) == b.get(key, ZERO), (mu, key)


# -- annihilation lemmas -------------------------------------------------------


@lru_cache(maxsize=None)
def dual_bra(mu):
    state = {((), 0): Fraction(1)}
    for n in reversed(mu):
        state = fock.bra_apply_phihat_star(state, n)
        state = fock.bra_apply_theta_exp(state, sign=-1)
    return state


def test_dual_bra_killed_by_high_modes():
    # ^g<mu| phi^(b)_N vanishes as a state (not just in matrix elements)
    # once N clears the top row
    for mu in words_with_parts_at_most(4):
        top = mu[0] if mu else 0
        for N in range(top + 1, top + 4):
            state = fock.bra_apply_phi_beta(dual_bra(mu), N)
            assert not any(state.values())


def test_dual_bra_survives_at_top_mode():
    for mu in [(1,), (2, 1)]:
        state = fock.bra_apply_phi_beta(dual_bra(mu), mu[0])
        assert any(state.values())


def ghost_element(prefix, N, lam):
    """<prefix-dual-bra| (phihat_N)* |lam>^G computed by bra evolution."""
    state = fock.bra_apply_phihat_star(dual_bra(prefix), N)
    for n in lam:
        state = fock.bra_apply_phi_beta(state, n)
        state = fock.bra_apply_theta_exp(state, sign=1)
    return vacuum_part(state)


def test_deformed_ket_killed_by_high_star_modes():
    # on the GQ side the threshold shifts by one: conjugating by e^Theta
    # sends (phihat_n)* to (phihat_n)* + b (phihat_{n-1})*, so only modes
    # two or more above the top row annihilate |lam>^G
    lams = words_with_parts_at_most(4)
    prefixes = words_with_parts_at_most(3)
    for lam in lams:
        top = lam[0] if lam else 0
        for N in (top + 2, top + 3):
            for prefix in prefixes:
                assert ghost_element(prefix, N, lam) == ZERO


def test_deformed_ket_survives_one_above_top():
    assert ghost_element((), 2, (1,)) == BetaScalar.beta_power(1, 1)
