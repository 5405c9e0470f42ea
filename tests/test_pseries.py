import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq.bases import q_series
from kq.dualq import _q_bracket_upto, gp, o_fermionic
from kq.gq import _exp_parts, gq_fermionic, gq_series
from kq.partitions import check_partition, partitions_upto
from kq.pseries import PSeries, combination
from kq.scalars import BETA, ONE, ZERO, BetaScalar, binom_general
from referees import at_b, exp, strict_partitions_upto, z_exp

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
    mono = st.builds(BetaScalar.beta_power, st.integers(0, 3), st.integers(-3, 3))
    coeff = st.lists(mono, min_size=1, max_size=2).map(sum)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=8).map(
        lambda d: PSeries(d, bound)
    )


def fraction_series(bound=D):
    # rational coefficients c*b^k with small denominators, and sums of them,
    # so that sums and products meet series of different denominators
    keys = list(partitions_upto(bound))
    frac = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 8]))
    mono = st.builds(BetaScalar.beta_power, st.integers(0, 3), frac)
    coeff = st.lists(mono, min_size=1, max_size=2).map(sum)
    return st.dictionaries(st.sampled_from(keys), coeff, max_size=6).map(
        lambda d: PSeries(d, bound)
    )


def assert_invariants(f):
    # what PSeries.__init__ guarantees; results built without it must agree:
    # flat terms (partition, b-power) -> nonzero int numerators over one
    # positive den, reduced so that == and hash compare values, and
    # BetaScalars in normal form where the coefficients leave the series
    assert type(f.degree_bound) is int and f.degree_bound >= 0
    assert type(f.den) is int and f.den >= 1
    assert gcd(f.den, *f.terms.values()) == 1
    for (key, k), c in f.terms.items():
        assert type(key) is tuple and check_partition(key) == key
        assert sum(key) <= f.degree_bound
        assert type(k) is int and k >= 0
        assert type(c) is int and c
    for key, val in f.sorted_items():
        assert isinstance(val, BetaScalar) and val
        assert val == BetaScalar(val.as_polynomial())
        assert all(type(c) is Fraction for c in val.as_polynomial())
        assert f.coefficient(key) == val
    assert f == PSeries(dict(f.sorted_items()), f.degree_bound)


def all_pairs_product(a, b):
    # the product as the definition reads: every pair, then the bound
    out = {}
    for ka, va in a.sorted_items():
        for kb, vb in b.sorted_items():
            if sum(ka) + sum(kb) <= a.degree_bound:
                k = tuple(sorted(ka + kb, reverse=True))
                out[k] = out.get(k, ZERO) + va * vb
    return PSeries(out, a.degree_bound)


@given(beta_series(), beta_series(), st.integers(-2, 2), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_results_meet_the_invariants(a, b, n, k):
    # (a + b) - b and (a + b) * (a - b) cancel terms exactly: a new key is
    # stored as it comes, a key whose sum reaches zero is dropped
    results = [a + b, a - b, a + (-a), (a + b) + (-b), -a, a * b, b * a,
               a * (b - b), (a + b) * (a - b), a * n, n * a, a * BETA,
               a * (BETA - 1), a + n, n - a, a ** k]
    for f in results:
        assert_invariants(f)
    assert (a + (-a)).is_zero()
    assert (a + b) + (-b) == a
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
    f = PSeries({key: BetaScalar.beta_power(k, c) for key, c in coeffs.items()}, D)
    for key, c in coeffs.items():
        assert f.coefficient(key) == BetaScalar.beta_power(k, c)
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
        fold = fold + f * BetaScalar.beta_power(e, c)
    assert got == fold
    # and read through the coefficients alone, in BetaScalar arithmetic
    coeffs = {}
    for f, e, c in parts:
        for mu, v in f.sorted_items():
            coeffs[mu] = coeffs.get(mu, ZERO) + v * BetaScalar.beta_power(e, c)
    assert got == PSeries(coeffs, D)


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
        assert got.is_zero() and got.den == 1 and got == PSeries.zero(D)
        assert_invariants(got)


def test_combination_rejects_mixed_bounds_and_negative_powers():
    f = PSeries({(1,): Fraction(1, 2)}, D)
    with pytest.raises(ValueError, match=f"{D} vs {D - 1}"):
        combination([(f, 0, 1), (PSeries.p(1, D - 1), 0, 1)], D)
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
    assert (half + half) == PSeries.p(1, D)
    assert (half * 2).den == 1 and (half * Fraction(2, 3)).den == 3
    assert (half - half).den == 1 and (half - half).is_zero()
    assert half.truncate(0).den == 1


def test_generated_series_are_integral():
    # the speed of the store rests on this: GQ_lambda, gp_lambda and the
    # one-row table have integral coordinates in the basis p_mu / z_mu,
    # and o_lambda is 2^-l(lambda) times an integral series
    D = 10
    assert all(gq_series(D).coefficient(n).den == 1 for n in range(-D, D + 1))
    for lam in strict_partitions_upto(7):
        assert gq_fermionic(lam, D).den == 1, lam
        assert gp(lam, D).den == 1, lam
        assert 2 ** len(lam) % o_fermionic(lam, D).den == 0, lam


def test_product_drops_pairs_that_cancel():
    # p1 * p2 and p2 * (-p1) land on one key and cancel; p1 * p1 and
    # p2 * p2 stay
    p1, p2 = PSeries.p(1, D), PSeries.p(2, D)
    got = (p1 + p2) * (p2 - p1)
    assert dict(got.sorted_items()) == {(2, 2): ONE, (1, 1): -ONE}
    assert_invariants(got)


def test_constructor_truncates_and_prunes():
    f = PSeries({(6,): 1, (2,): 0, (1,): 3}, 5)
    assert [k for k, _ in f.sorted_items()] == [(1,)]
    assert f.coefficient((1,)) == BetaScalar(3)


def test_mixed_bounds_rejected():
    with pytest.raises(ValueError):
        PSeries.p(1, 4) + PSeries.p(1, 5)
    with pytest.raises(ValueError):
        PSeries.p(1, 4) * PSeries.p(1, 5)


@given(series(), series(), series())
@settings(max_examples=40, deadline=None)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == PSeries.zero(D)


@given(series(), series())
@settings(max_examples=40, deadline=None)
def test_truncation_commutes_with_product(a, b):
    lower = 3
    assert (a * b).truncate(lower) == a.truncate(lower) * b.truncate(lower)


def test_product_merges_partitions():
    f = PSeries.p(2, D) * PSeries.p(1, D) * PSeries.p(2, D)
    assert f == PSeries({(2, 2, 1): 1}, D)
    # degree overflow drops the term entirely
    g = PSeries.p(3, 4) * PSeries.p(3, 4)
    assert g.is_zero()


def test_exp():
    f = exp(PSeries({(1,): 1}, 4))
    # exp(p1) = sum p1^k / k!
    assert f.coefficient(()) == ONE
    assert f.coefficient((1,)) == ONE
    assert f.coefficient((1, 1)) == BetaScalar(Fraction(1, 2))
    assert f.coefficient((1, 1, 1)) == BetaScalar(Fraction(1, 6))
    with pytest.raises(ValueError):
        exp(PSeries.one(3))


@given(series(), series())
@settings(max_examples=20, deadline=None)
def test_exp_is_multiplicative(a, b):
    a = a - PSeries.constant(a.coefficient(()), D)
    b = b - PSeries.constant(b.coefficient(()), D)
    assert exp(a + b) == exp(a) * exp(b)


def test_specialize_beta():
    f = PSeries({(1,): BETA + 1, (2,): BETA ** 2}, 3)
    g = at_b(f, -1)
    assert g.coefficient((1,)) == ZERO
    assert g.coefficient((2,)) == ONE
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
    back = {tuple(k): BetaScalar(tuple(Fraction(x) for x in c))
            for k, c in json.loads(json.dumps(form))["terms"]}
    assert PSeries(back, form["D"]) == f


def test_json_ordering_is_graded_lex():
    # sorted_items is the order in which a series leaves the library
    f = PSeries({(2,): 1, (1, 1): 1, (1,): 1, (): 1}, 3)
    keys = [k for k, _ in f.sorted_items()]
    assert keys == [(), (1,), (1, 1), (2,)]


def test_flat_constructor_checks_like_the_public_one():
    # modules that build flat terms themselves go through these checks
    f = PSeries._from_flat({((2, 1), 1): Fraction(3), ((4,), 0): 1, ((1,), 2): 0}, 3)
    assert f == PSeries({(2, 1): 3 * BETA}, 3)
    assert_invariants(f)
    with pytest.raises(ValueError):
        PSeries._from_flat({((1, 2), 0): 1}, 3)
    with pytest.raises(ValueError):
        PSeries._from_flat({((1,), -1): 1}, 3)


# -- the closed-form exponentials against the z-graded exponential ----------


def gq_log_parts(D):
    # z^j coefficients of log theta(z) / (theta(-b) theta(-z-b)), term by term
    ex = [PSeries.zero(D) for _ in range(D + 1)]
    for n in range(1, D + 1):
        pn = PSeries.p(n, D)
        w = Fraction(1 if n % 2 else -1, n)
        for j in range(n + 1):
            ex[j] = ex[j] + pn * BetaScalar.beta_power(n - j, w * binom_general(n, j))
        ex[0] = ex[0] + pn * BetaScalar.beta_power(n, w)
        ex[n] = ex[n] + pn * Fraction(1, n)
    return ex


def q_bracket_log_parts(top, D):
    # z^j coefficients of log q^[b](z), cut at z^top
    ex = [PSeries.zero(D) for _ in range(top + 1)]
    for n in range(1, min(top, D) + 1):
        pn = PSeries.p(n, D)
        w = Fraction(1, n)
        for j in range(n, top + 1):
            c = binom_general(j - 1, j - n) * w
            ex[j] = ex[j] + pn * BetaScalar.beta_power(j - n, -c if j % 2 == 0 else c)
        ex[n] = ex[n] + pn * w
    return ex


def q_log_parts(D):
    # z^n coefficients of 2 sum_{n odd} p_n z^n / n
    return [PSeries.p(n, D) * Fraction(2, n) if n % 2 else PSeries.zero(D)
            for n in range(D + 1)]


@pytest.mark.parametrize("D", range(11))
def test_closed_form_exponentials_match_z_exp(D):
    assert _exp_parts(D) == tuple(z_exp(gq_log_parts(D)))
    assert _q_bracket_upto(D, D) == tuple(z_exp(q_bracket_log_parts(D, D)))
    assert q_series(D) == z_exp(q_log_parts(D))


def test_closed_form_cuts_z_past_the_degree_bound():
    # the g-entries ask for q^[b]_j with j > D, truncated at D
    assert _q_bracket_upto(9, 5) == tuple(z_exp(q_bracket_log_parts(9, 5)))
