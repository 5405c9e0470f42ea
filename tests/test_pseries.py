import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq.dualq import _q_bracket_upto, gp, o_fermionic
from kq.finitevars import SymmetricPoly
from kq.fock import FockState
from kq.gq import gq_fermionic, gq_series
from kq.partitions import check_partition, partitions_upto
from kq.pseries import PSeries, combination
from kq.scalars import BetaScalar
from referees import (BETA, ONE, ZERO, Qb, at_b, binom_general, check_boundary_scalar, exp,
                      gq_exp_parts, is_zero, power_sum, q_bracket_exp_parts, q_series,
                      series_coefficient, strict_partitions_upto, truncate, z_exp)

D = 5


def series(bound=D):
    keys = list(partitions_upto(bound))
    coeff = st.integers(-9, 9)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=4).map(
        lambda d: PSeries(d, bound)
    )


def beta_series(bound=D):
    # coefficients c*b^k, as the library's generators have, and sums of them
    keys = list(partitions_upto(bound))
    mono = st.builds(Qb.beta_power, st.integers(0, 3), st.integers(-3, 3))
    coeff = st.lists(mono, min_size=1, max_size=2).map(sum)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=8).map(
        lambda d: PSeries(d, bound)
    )


def fraction_series(bound=D):
    # rational coefficients c*b^k with small denominators, and sums of them,
    # so that sums and products meet series of different denominators
    keys = list(partitions_upto(bound))
    frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 8]))
    mono = st.builds(Qb.beta_power, st.integers(0, 3), frac)
    coeff = st.lists(mono, min_size=1, max_size=2).map(sum)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=6).map(
        lambda d: PSeries(d, bound)
    )


def assert_invariants(f):
    # what PSeries.__init__ guarantees; results built without it must agree:
    # flat terms (partition, b-power) -> nonzero int numerators over one
    # positive den, reduced so that == and hash compare values, and
    # BetaScalars that keep the boundary contract where the coefficients
    # leave the series
    assert type(f.degree_bound) is int and f.degree_bound >= 0
    assert type(f.den) is int and f.den >= 1
    assert gcd(f.den, *f.terms.values()) == 1
    for (key, k), c in f.terms.items():
        assert type(key) is tuple and check_partition(key) == key
        assert sum(key) <= f.degree_bound
        assert type(k) is int and k >= 0
        assert type(c) is int and c
    for key, val in f.sorted_items():
        assert type(val) is BetaScalar and val
        check_boundary_scalar(val)
        assert series_coefficient(f, key) == val
    assert f == PSeries(dict(f.sorted_items()), f.degree_bound)


def all_pairs_product(a, b):
    # the product as the definition reads: every pair, then the bound
    out = {}
    for ka, va in a.sorted_items():
        for kb, vb in b.sorted_items():
            if sum(ka) + sum(kb) <= a.degree_bound:
                k = tuple(sorted(ka + kb, reverse=True))
                out[k] = out.get(k, ZERO) + Qb(va) * vb
    return PSeries(out, a.degree_bound)


@given(beta_series(), beta_series(), st.integers(-2, 2), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_results_meet_the_invariants(a, b, n, k):
    # (a + b) - b and (a + b) * (a - b) cancel terms exactly: a new key is
    # stored as it comes, a key whose sum reaches zero is dropped
    power = PSeries.one(D)
    for _ in range(k):
        power = power * a
    constant = PSeries({(): n}, D)
    results = [a + b, a - b, a + a * -1, (a + b) + b * -1, a * -1, a * b, b * a,
               a * (b - b), (a + b) * (a - b), a * n, n * a, a * BETA,
               a * (BETA - 1), a + constant, a * -1 + constant, power]
    for f in results:
        assert_invariants(f)
    assert is_zero(a + a * -1)
    assert (a + b) + b * -1 == a
    assert (a + b) * (a - b) == a * a - b * b


@given(beta_series(), fraction_series())
@settings(max_examples=60, deadline=None)
def test_product_matches_all_pairs(a, b):
    # read through sorted_items only, so the check does not rest on the store
    assert (a * b).sorted_items() == all_pairs_product(a, b).sorted_items()
    f = a + PSeries.one(D)
    assert ((f * f * f).sorted_items()
            == all_pairs_product(all_pairs_product(f, f), f).sorted_items())
    u, v = a + b, a - b
    assert (u * v).sorted_items() == all_pairs_product(u, v).sorted_items()


@given(st.dictionaries(st.sampled_from(list(partitions_upto(D))),
                       st.builds(Fraction, st.integers(-50, 50).filter(bool),
                                 st.integers(1, 60)), max_size=6),
       st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_fractions_come_back_unchanged(coeffs, k):
    # the constructor moves each value into the integral store and
    # coefficient moves it back: nothing may be lost on the way
    f = PSeries({key: Qb.beta_power(k, c) for key, c in coeffs.items()}, D)
    for key, c in coeffs.items():
        assert series_coefficient(f, key) == Qb.beta_power(k, c)
    assert_invariants(f)


@given(fraction_series(), fraction_series(), fraction_series())
@settings(max_examples=40, deadline=None)
def test_values_with_denominators_compare_and_hash_as_values(a, b, c):
    left, right = (a * b) * c, a * (b * c)
    assert left == right and hash(left) == hash(right)
    back = (a + b) - b
    assert back == a and hash(back) == hash(a)
    for f in (left, back, a * Fraction(2, 3), (a + b) * Fraction(1, 2) * 2):
        assert_invariants(f)


STORE_KEYS = {
    # the store's fields after den, and keys it takes with any b-power
    PSeries: ((D,), list(partitions_upto(D))),
    FockState: ((), [(), (0,), (-1,), (0, -2), (-1, -3), (0, -1, -4), (3, 1), (2, 1, 0)]),
    SymmetricPoly: ((3,), [nu for nu in partitions_upto(D) if len(nu) <= 3]),
}


@pytest.mark.parametrize("store", list(STORE_KEYS), ids=lambda store: store.__name__)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_the_trusted_entry_drops_zero_numerators(store, data):
    # builders only accumulate, so a sum that cancels reaches the trusted
    # entry as a zero numerator: it leaves the store there, and the value is
    # the one built from the nonzero terms, reduced as the invariant asks
    fields, keys = STORE_KEYS[store]
    key = st.tuples(st.sampled_from(keys), st.integers(0, 3))
    kept = data.draw(st.dictionaries(key, st.integers(-40, 40).filter(bool), max_size=6))
    zeros = data.draw(st.lists(key.filter(lambda k: k not in kept), min_size=1, max_size=3))
    den = data.draw(st.sampled_from([1, 2, 3, 4, 6, 12]))
    mixed = dict(data.draw(st.permutations([*kept.items(), *((k, 0) for k in zeros)])))
    got = store._reduced(mixed, den, *fields)
    assert got == store._reduced(kept, den, *fields)
    assert type(got.den) is int and got.den >= 1 and gcd(got.den, *got.terms.values()) == 1
    assert all(type(c) is int and c for c in got.terms.values())


def combination_parts(bound=D):
    # (f, e, c) triples over series with dens, c an int, a Fraction or zero
    coeff = st.one_of(st.integers(-4, 4),
                      st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 8])))
    return st.lists(st.tuples(fraction_series(bound), st.integers(0, 3), coeff), max_size=5)


@given(combination_parts())
@settings(max_examples=60, deadline=None)
def test_combination_is_the_fold_of_its_parts(parts):
    got = combination(parts, D)
    assert_invariants(got)
    fold = PSeries.zero(D)
    for f, e, c in parts:
        fold = fold + f * Qb.beta_power(e, c)
    assert got == fold
    # and read through the coefficients alone, in Qb arithmetic
    coeffs = {}
    for f, e, c in parts:
        for mu, v in f.sorted_items():
            coeffs[mu] = coeffs.get(mu, ZERO) + v * Qb.beta_power(e, c)
    assert got == PSeries(coeffs, D)


@given(combination_parts(), st.integers(0, 8))
@settings(max_examples=60, deadline=None)
def test_capped_combination_drops_the_terms_past_the_cap(parts, cap):
    # mod b^(cap+1): the whole sum with its terms past b^cap dropped,
    # shifts included, and nothing else changed
    got = combination(parts, D, cap)
    assert_invariants(got)
    whole = combination(parts, D)
    want = {mu: sum((Qb.beta_power(k, x) for k, x in enumerate(c.as_polynomial()) if k <= cap),
                    ZERO) for mu, c in whole.sorted_items()}
    assert got == PSeries(want, D)


def test_uncapped_combination_keeps_b_powers_past_the_bound():
    # None is no cap, not a cap at the bound: (-b)^(D+3) stays
    f = PSeries({(): Qb.beta_power(D + 3, -1)}, D)
    assert combination([(f, 1, 1)], D) == PSeries({(): Qb.beta_power(D + 4, -1)}, D)
    assert not combination([(f, 1, 1)], D, D)
    assert not combination([(PSeries.one(D), 2, 1)], D, 1)


@given(combination_parts())
@settings(max_examples=30, deadline=None)
def test_combination_consumes_a_generator_once(parts):
    seen = []

    def generated():
        for part in parts:
            seen.append(part)
            yield part

    parts_left = generated()
    assert combination(parts_left, D) == combination(parts, D)
    assert seen == parts and next(parts_left, None) is None


def test_combination_of_nothing_is_zero_with_den_one():
    f = PSeries({(2, 1): Fraction(3, 4), (1,): Fraction(-1, 6) * BETA}, D)
    assert f.den > 1
    cancelled = [(f, 1, Fraction(2, 3)), (f * Fraction(1, 3), 1, -2)]
    zeros = [(f, 2, 0), (f, 0, Fraction(0)), (PSeries.zero(D), 1, Fraction(1, 7))]
    for parts in ([], zeros, cancelled, zeros + cancelled):
        got = combination(parts, D)
        assert is_zero(got) and got.den == 1 and got == PSeries.zero(D)
        assert_invariants(got)


def test_combination_rejects_mixed_bounds_and_negative_powers():
    f = PSeries({(1,): Fraction(1, 2)}, D)
    with pytest.raises(ValueError, match=f"{D} vs {D - 1}"):
        combination([(f, 0, 1), (power_sum(1, D - 1), 0, 1)], D)
    with pytest.raises(ValueError, match=f"{D - 1} vs {D}"):
        combination([(f, 0, 1)], D - 1)
    with pytest.raises(ValueError):  # checked before a zero weight is skipped
        combination([(f, 0, 0)], D - 1)
    with pytest.raises(ValueError):
        combination([(f, -1, 1)], D)


def test_den_is_reduced_after_cancellation():
    # 1/2 p1 + 1/2 p1 is p1: the sum must not keep the den of its summands
    half = PSeries({(1,): Fraction(1, 2)}, D)
    assert (half + half).den == 1
    assert (half + half) == power_sum(1, D)
    assert (half * 2).den == 1 and (half * Fraction(2, 3)).den == 3
    assert (half - half).den == 1 and is_zero(half - half)
    assert truncate(half, 0).den == 1


def test_generated_series_are_integral():
    # the speed of the store rests on this: GQ_lambda, gp_lambda and the
    # one-row table have integral coordinates in the basis p_mu / z_mu,
    # and o_lambda is 2^-l(lambda) times an integral series
    D = 10
    assert all(f.den == 1 for f in gq_series(D))
    for lam in strict_partitions_upto(7):
        assert gq_fermionic(lam, D).den == 1, lam
        assert gp(lam, D).den == 1, lam
        assert 2 ** len(lam) % o_fermionic(lam, D).den == 0, lam


def test_product_drops_pairs_that_cancel():
    # p1 * p2 and p2 * (-p1) land on one key and cancel; p1 * p1 and
    # p2 * p2 stay
    p1, p2 = power_sum(1, D), power_sum(2, D)
    got = (p1 + p2) * (p2 - p1)
    assert dict(got.sorted_items()) == {(2, 2): ONE, (1, 1): -ONE}
    assert_invariants(got)


def test_constructor_truncates_and_prunes():
    f = PSeries({(6,): 1, (2,): 0, (1,): 3}, 5)
    assert [k for k, _ in f.sorted_items()] == [(1,)]
    assert series_coefficient(f, (1,)) == Qb(3)


def test_mixed_bounds_rejected():
    with pytest.raises(ValueError):
        power_sum(1, 4) + power_sum(1, 5)
    with pytest.raises(ValueError):
        power_sum(1, 4) * power_sum(1, 5)


def test_sums_take_series_only():
    # a scalar is no series: a sum with one raises rather than guess a
    # constant, while == against one compares with that constant
    one = PSeries.one(3)
    for misuse in (lambda: one + 1, lambda: 1 + one, lambda: one - Fraction(1, 2),
                   lambda: 2 - one, lambda: -one):
        with pytest.raises(TypeError):
            misuse()
    assert PSeries.zero(3) == 0 and PSeries.one(3) == 1 and one * Fraction(1, 2) == Fraction(1, 2)
    assert PSeries.zero(3) != 1 and one != 2 and power_sum(1, 3) != 1
    for name in ("__str__", "__repr__", "__radd__", "__neg__", "p", "constant", "truncate"):
        assert name not in vars(PSeries), name


@given(series(), series(), series())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + a * -1 == PSeries.zero(D)


@given(series(), series())
@settings(max_examples=40, deadline=None)
def test_truncation_commutes_with_product(a, b):
    lower = 3
    assert truncate(a * b, lower) == truncate(a, lower) * truncate(b, lower)


def test_product_merges_partitions():
    f = power_sum(2, D) * power_sum(1, D) * power_sum(2, D)
    assert f == PSeries({(2, 2, 1): 1}, D)
    # degree overflow drops the term entirely
    g = power_sum(3, 4) * power_sum(3, 4)
    assert is_zero(g)


def test_exp():
    f = exp(PSeries({(1,): 1}, 4))
    # exp(p1) = sum p1^k / k!
    assert series_coefficient(f, ()) == ONE
    assert series_coefficient(f, (1,)) == ONE
    assert series_coefficient(f, (1, 1)) == Qb(Fraction(1, 2))
    assert series_coefficient(f, (1, 1, 1)) == Qb(Fraction(1, 6))
    with pytest.raises(ValueError):
        exp(PSeries.one(3))


@given(series(), series())
@settings(max_examples=20, deadline=None)
def test_exp_is_multiplicative(a, b):
    a = a - PSeries({(): series_coefficient(a, ())}, D)
    b = b - PSeries({(): series_coefficient(b, ())}, D)
    assert exp(a + b) == exp(a) * exp(b)


def test_specialize_beta():
    f = PSeries({(1,): BETA + 1, (2,): BETA ** 2}, 3)
    g = at_b(f, -1)
    assert series_coefficient(g, (1,)) == ZERO
    assert series_coefficient(g, (2,)) == ONE
    # setting b commutes with multiplication
    h = f * f
    assert at_b(h, -1) == g * g


def test_homogeneous_and_degrees():
    f = PSeries({(3,): 1, (1, 1): 2, (): 5}, 4)
    assert f.top_degree() == 3
    assert PSeries.zero(4).top_degree() is None


@given(beta_series())
@settings(max_examples=40, deadline=None)
def test_json_round_trip(f):
    # a series leaves the library through sorted_items and as_polynomial;
    # the JSON form built from them must determine the series
    form = {"D": f.degree_bound,
            "terms": [[list(k), [str(x) for x in v.as_polynomial()]]
                      for k, v in f.sorted_items()]}
    back = {tuple(k): Qb(tuple(Fraction(x) for x in c))
            for k, c in json.loads(json.dumps(form))["terms"]}
    assert PSeries(back, form["D"]) == f


def test_json_ordering_is_graded_lex():
    # sorted_items is the order in which a series leaves the library
    f = PSeries({(2,): 1, (1, 1): 1, (1,): 1, (): 1}, 3)
    keys = [k for k, _ in f.sorted_items()]
    assert keys == [(), (1,), (1, 1), (2,)]


def test_flat_constructor_checks_like_the_public_one():
    # the public constructor is the one checked entry: it drops terms above
    # the bound and zero values, and refuses a key that is not canonical
    f = PSeries({(2, 1): (0, 3), (4,): 1, (1,): (0, 0, 0)}, 3)
    assert f == PSeries({(2, 1): 3 * BETA}, 3) and f.terms == {((2, 1), 1): 6}  # 3 z_(2,1)
    assert_invariants(f)
    with pytest.raises(ValueError):
        PSeries({(1, 2): 1}, 3)
    # a bool is no coefficient: the public constructor names the bad term,
    # and a series compares unequal to one rather than raising
    with pytest.raises(ValueError, match=r"True p_\(1,\)"):
        PSeries({(1,): True}, 3)
    with pytest.raises(ValueError, match=r"\(1, False\)"):
        PSeries({(1,): (1, False)}, 3)
    assert PSeries.one(3) != True and PSeries.one(3) == 1


# -- the closed-form exponentials against the z-graded exponential ----------


def gq_log_parts(D):
    # z^j coefficients of log theta(z) / (theta(-b) theta(-z-b)), term by term
    ex = [PSeries.zero(D) for _ in range(D + 1)]
    for n in range(1, D + 1):
        pn = power_sum(n, D)
        w = Fraction(1 if n % 2 else -1, n)
        for j in range(n + 1):
            ex[j] = ex[j] + pn * Qb.beta_power(n - j, w * binom_general(n, j))
        ex[0] = ex[0] + pn * Qb.beta_power(n, w)
        ex[n] = ex[n] + pn * Fraction(1, n)
    return ex


def q_bracket_log_parts(top, D):
    # z^j coefficients of log q^[b](z), cut at z^top
    ex = [PSeries.zero(D) for _ in range(top + 1)]
    for n in range(1, min(top, D) + 1):
        pn = power_sum(n, D)
        w = Fraction(1, n)
        for j in range(n, top + 1):
            c = binom_general(j - 1, j - n) * w
            ex[j] = ex[j] + pn * Qb.beta_power(j - n, -c if j % 2 == 0 else c)
        ex[n] = ex[n] + pn * w
    return ex


def q_log_parts(D):
    # z^n coefficients of 2 sum_{n odd} p_n z^n / n
    return [power_sum(n, D) * Fraction(2, n) if n % 2 else PSeries.zero(D)
            for n in range(D + 1)]


@pytest.mark.parametrize("D", range(11))
def test_closed_form_exponentials_match_z_exp(D):
    # the two-variable closed form (the referee) and the library's rows,
    # GQ_n = sum_k (-b)^k Exp_{n+k} and q^[b]_j, against z_exp
    parts = tuple(z_exp(gq_log_parts(D)))
    assert gq_exp_parts(D) == parts
    assert gq_series(D) == tuple(combination(((parts[n + k], k, -1 if k % 2 else 1)
                                              for k in range(D - n + 1)), D)
                                 for n in range(D + 1))
    qb = tuple(z_exp(q_bracket_log_parts(D, D)))
    assert q_bracket_exp_parts(D, D) == qb
    assert _q_bracket_upto(D, D) == qb
    assert q_series(D) == z_exp(q_log_parts(D))


def test_closed_form_cuts_z_past_the_degree_bound():
    # the g-entries ask for q^[b]_j with j > D, truncated at D
    want = tuple(z_exp(q_bracket_log_parts(9, 5)))
    assert q_bracket_exp_parts(9, 5) == want
    assert _q_bracket_upto(9, 5) == want
