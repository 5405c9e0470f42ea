import ast
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq.finitevars import SymmetricPoly, from_finite
from kq.finitevars import _character
from kq.oracle import _bumps, _tail_terms, gq_oracle
from kq.partitions import partitions_of
from referees import (_MASK, _W, BETA, ZERO, FinitePoly, _add_into, _bracket_power, _divide_pair,
                      _divided_difference, _mono, _mul, _pair_difference, _pair_factor,
                      _schur_poly, at_b, classical_q, eval_finite, expand, gq_oracle_divided,
                      gq_oracle_full, gq_oracle_literal, hook_count, scalar_terms,
                      strict_partitions_upto, tail_product_brute)

FULL = 10**6


def beta_zero(fp):
    return FinitePoly(fp.nvars, {k: at_b(v, 0) for k, v in scalar_terms(fp).items()})


def truncated(fp, bound):
    return FinitePoly(fp.nvars, {k: v for k, v in scalar_terms(fp).items() if sum(k) <= bound})


def permuted(fp, perm):
    return FinitePoly(
        fp.nvars,
        {tuple(k[perm[i]] for i in range(fp.nvars)): v for k, v in scalar_terms(fp).items()},
    )


def test_one_variable_one_row():
    got = expand(gq_oracle((1,), 1, trunc=FULL))
    assert got == FinitePoly(1, {(1,): 2, (2,): BETA})


def test_one_variable_two_rows_is_zero():
    assert expand(gq_oracle((2, 1), 1, trunc=FULL)) == FinitePoly.zero(1)
    assert expand(gq_oracle((2, 1), 1)) == FinitePoly.zero(1)


def test_empty_partition_is_one_in_many_variables():
    # with no rows, every variable is in the tail
    assert gq_oracle((), 1200) == SymmetricPoly(1200, {((), 0): 1})


def test_more_rows_than_variables_vanishes():
    assert expand(gq_oracle((3, 2, 1), 2)) == FinitePoly.zero(2)


@pytest.mark.parametrize("lam", [(1,), (2,), (2, 1), (3, 1), (3, 2, 1)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_matches_literal(lam, n):
    if len(lam) > n:
        return
    assert expand(gq_oracle(lam, n, trunc=FULL)) == gq_oracle_literal(lam, n)


@pytest.mark.parametrize("lam", [(1,), (2,), (2, 1), (3, 1), (3, 2, 1)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_divided_differences_match_literal(lam, n):
    # the referee of the bialternant pass is itself checked against the
    # defining symmetrization
    if len(lam) > n:
        return
    assert gq_oracle_divided(lam, n, trunc=FULL) == gq_oracle_literal(lam, n)


@pytest.mark.parametrize("n", range(1, 7))
def test_bialternant_matches_divided_differences(n):
    for lam in strict_partitions_upto(6):
        for t in (n, n + 2):
            assert expand(gq_oracle(lam, n, t)) == gq_oracle_divided(lam, n, t), (lam, t)


@pytest.mark.parametrize("n", range(1, 8))
def test_tail_orbits_match_full_p0(n):
    # the head fold and the exponent-set state of the tail against P0 kept
    # monomial by monomial and a pass over every monomial
    for lam in strict_partitions_upto(7):
        for t in (n, n + 2):
            assert gq_oracle(lam, n, t) == gq_oracle_full(lam, n, t), (lam, t)


@pytest.mark.parametrize("n", range(1, 7))
def test_bitmask_pass_four_degrees_past_the_variables(n):
    # trunc = n + 4 keeps P0 terms of higher b-degree, whose heads and
    # tails reach exponents the default trunc never does
    for lam in strict_partitions_upto(n + 4):
        assert gq_oracle(lam, n, n + 4) == gq_oracle_full(lam, n, n + 4), lam


@pytest.mark.parametrize("lam, n, t", [
    ((3, 2, 1), 3, 7),  # every variable in the head: the tail is empty
    ((3, 2, 1), 3, 12),
    ((3, 2, 1), 8, 8),
    ((4, 2, 1), 8, 8),
    ((5, 2), 8, 8),
])
def test_bitmask_pass_at_its_edges(lam, n, t):
    got = gq_oracle(lam, n, t)
    assert got.terms
    assert got == gq_oracle_full(lam, n, t)


def test_bumps_are_pieri_on_alternants():
    # a_gamma e_j written out monomial by monomial, gamma every r-set of
    # exponents below 8, and folded back: each monomial with distinct
    # exponents onto its set, signed by its sort.  Each a_gamma' in the
    # product folds back to r! times itself, so the fold over r! is the
    # coefficient of a_gamma'
    for r in range(5):
        for gamma in combinations(range(7, -1, -1), r):  # each set sorted down
            alternant = {}
            for w in permutations(range(r)):
                odd = sum(w[i] > w[k] for i in range(r) for k in range(i + 1, r)) % 2
                alternant[tuple(gamma[i] for i in w)] = -1 if odd else 1
            for j in range(r + 1):
                folded = {}
                for exps, c in alternant.items():
                    for subset in combinations(range(r), j):
                        alpha = [e + (i in subset) for i, e in enumerate(exps)]
                        if len(set(alpha)) == r:
                            odd = sum(a < e for i, a in enumerate(alpha) for e in alpha[i + 1:]) % 2
                            mask = sum(1 << a for a in alpha)
                            folded[mask] = folded.get(mask, 0) + (-c if odd else c)
                want = {m: c // factorial(r) for m, c in folded.items() if c}
                got = _bumps(sum(1 << e for e in gamma), j)
                assert len(set(got)) == len(got)
                assert dict.fromkeys(got, 1) == want, (gamma, j)


@pytest.mark.parametrize("r", range(4))
@pytest.mark.parametrize("bcap", range(5))
def test_tail_terms_are_the_tail_factor(r, bcap):
    # G(t) = prod_i (x_i + t + b x_i t)(1 + b t) multiplied out factor by
    # factor, t in field r, against sum C(2r-k, s-k) b^{s-k} e_{r-k} t^s as
    # _tail_terms lists it for a state at b^kb, under the cap bcap - kb
    for kb, by_s in enumerate(_tail_terms(r, bcap)):
        got = {}
        for s, terms in by_s:
            assert terms
            for j, b, w in terms:
                for subset in combinations(range(r), j):
                    exps = [int(i in subset) for i in range(r)] + [s]
                    key = _mono(r + 1, b - kb, exps)
                    assert key not in got
                    got[key] = w
        assert got == tail_product_brute({0: 1}, r, 1, bcap - kb), kb


def test_oracle_allocation_stays_small():
    # P0 kept monomial by monomial peaks near 3 MB here, the exponent-set
    # state near 0.15 MB; the memo tables are cleared so that they count
    # too, and from_finite's characters run with the oracle, as kq verify
    # runs them
    _bumps.cache_clear()
    _character.cache_clear()
    tracemalloc.start()
    try:
        from_finite(gq_oracle((3, 1), 7), 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_truncation_is_exact_prefix():
    full = gq_oracle_literal((2, 1), 4)
    for t in (3, 4, 5, 6):
        assert expand(gq_oracle((2, 1), 4, trunc=t)) == truncated(full, t)


@pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 2, 1)])
def test_truncation_is_exact_prefix_in_six_variables(lam):
    # P0 is pruned by its b-degree alone, which must keep every monomial
    # the degree <= trunc part of the result comes from
    full = expand(gq_oracle(lam, 6, trunc=10))
    for t in (6, 7, 8, 9):
        assert expand(gq_oracle(lam, 6, trunc=t)) == truncated(full, t)


def swapped(poly, i):
    """s_i f: x_i and x_{i+1} trade exponents in every packed key."""
    lo, hi = _W * i, _W * (i + 1)
    out = {}
    for k, v in poly.items():
        a, c = (k >> lo) & _MASK, (k >> hi) & _MASK
        out[k + ((c - a) << lo) + ((a - c) << hi)] = v
    return out


def minus_swapped(poly, i):
    """f - s_i f."""
    out = dict(poly)
    _add_into(out, {k: -v for k, v in swapped(poly, i).items()})
    return out


@st.composite
def packed_polys(draw):
    n = draw(st.integers(3, 5))
    monomials = st.tuples(st.integers(0, 3), st.tuples(*[st.integers(0, 7)] * n))
    terms = draw(st.dictionaries(monomials, st.integers(-9, 9).filter(bool), max_size=12))
    return n, {_mono(n, b, exps): c for (b, exps), c in terms.items()}


@given(packed_polys(), st.data())
@settings(max_examples=60, deadline=None)
def test_divided_difference_kernel(case, data):
    n, f = case
    i = data.draw(st.integers(0, n - 3))
    dd = _divided_difference
    for j in (i, i + 1):
        quotient = dd(f, j)
        assert _mul(_pair_difference(n, j, j + 1), quotient, n, FULL) == minus_swapped(f, j)
        assert quotient == _divide_pair(minus_swapped(f, j), j, j + 1)
        assert dd(quotient, j) == {}
    assert dd(dd(dd(f, i), i + 1), i) == dd(dd(dd(f, i + 1), i), i + 1)


def all_partitions(bound):
    return [p for w in range(bound + 1) for p in partitions_of(w)]


def dominates(nu, mu):
    """nu_1 + .. + nu_i >= mu_1 + .. + mu_i for every i."""
    a = b = 0
    for i in range(max(len(nu), len(mu))):
        a += nu[i] if i < len(nu) else 0
        b += mu[i] if i < len(mu) else 0
        if a < b:
            return False
    return True


def kostka(nu, mu):
    """K_{nu mu}: the coefficient of x^mu in s_nu(x_1..x_n) as the referee
    writes it out, mu a composition and n the longer of the two lengths."""
    n = max(len(nu), len(mu))
    return _schur_poly(nu, n).get(tuple(mu) + (0,) * (n - len(mu)), 0)


def test_kostka_diagonal_is_one():
    for nu in all_partitions(8):
        assert kostka(nu, nu) == 1


def test_kostka_vanishes_off_dominance():
    for w in range(8):
        for nu in partitions_of(w):
            for mu in partitions_of(w):
                assert bool(kostka(nu, mu)) == dominates(nu, mu), (nu, mu)


def test_kostka_of_ones_counts_standard_tableaux():
    for nu in all_partitions(8):
        assert kostka(nu, (1,) * sum(nu)) == hook_count(nu)


def test_kostka_ignores_the_order_of_the_content():
    for w in range(6):
        for mu in partitions_of(w):
            orders = set(permutations(mu + (0,)))
            for nu in partitions_of(w):
                assert {kostka(nu, order) for order in orders} == {kostka(nu, mu)}


def test_a_head_class_that_cancels():
    # at (3,2,1), n = 3, trunc 6 the tail is empty and P0 is the head.  Its
    # monomials with exponent set {2, 3, 4} at b^0 sum, each signed by the
    # sort of its exponents, to zero, so the head fold leaves that alternant
    # out, and the answer is still the one of the referee that keeps P0
    # monomial by monomial
    lam, n, t = (3, 2, 1), 3, 6
    head = {0: 1}
    for i, part in enumerate(lam):
        head = _mul(head, _bracket_power(n, i, part), n, t - sum(lam))
    for i in range(n):
        for j in range(i + 1, n):
            head = _mul(head, _pair_factor(n, i, j), n, t - sum(lam))
    classes = {}
    for h, c in head.items():
        exps = [(h >> _W * i) & _MASK for i in range(n)]
        odd = sum(a < e for i, a in enumerate(exps) for e in exps[i + 1:]) % 2
        key = (frozenset(exps), h >> _W * n)
        classes.setdefault(key, []).append(-c if odd else c)
    heads = classes[(frozenset({2, 3, 4}), 0)]
    assert len(heads) > 1 and all(heads) and sum(heads) == 0
    got = gq_oracle(lam, n, t)
    assert got.terms
    assert got == gq_oracle_full(lam, n, t)


@given(st.integers(1, 4), st.lists(st.integers(0, 5), min_size=4, max_size=4))
@settings(max_examples=40, deadline=None)
def test_kostka_expands_the_bialternant(n, parts):
    # s_nu(x_1..x_n) as expand writes it out, by divided differences, is
    # A(x^{nu + delta}) / V with the division by each x_c - x_d done
    # exactly, and its coefficients are the Kostka numbers
    nu = tuple(p for p in sorted(parts[:n], reverse=True) if p)
    alpha = [p + n - 1 - i for i, p in enumerate(nu + (0,) * (n - len(nu)))]
    quotient = {}
    for w in permutations(range(n)):
        odd = sum(w[i] > w[j] for i in range(n) for j in range(i + 1, n)) % 2
        _add_into(quotient, {_mono(n, 0, [alpha[w[i]] for i in range(n)]): -1 if odd else 1})
    for c in range(n):
        for d in range(c + 1, n):
            quotient = _divide_pair(quotient, c, d)
    schur = expand(SymmetricPoly(n, {(nu, 0): 1}))
    assert quotient == {_mono(n, k, exps): c for (exps, k), c in schur.terms.items()}


@pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 2), (4, 1)])
def test_beta_zero_is_classical_q(lam):
    n = 5
    w = sum(lam)
    got = beta_zero(expand(gq_oracle(lam, n, trunc=w)))
    expect = truncated(eval_finite(classical_q(lam, w), n), w)
    assert got == expect


def test_symmetric_in_the_variables():
    got = expand(gq_oracle((2, 1), 3, trunc=6))
    for perm in permutations(range(3)):
        assert permuted(got, perm) == got


def test_stability_under_last_variable_zero():
    big = expand(gq_oracle((2, 1), 4, trunc=4))
    small = expand(gq_oracle((2, 1), 3, trunc=4))
    dropped = FinitePoly(
        3, {k[:3]: v for k, v in scalar_terms(big).items() if k[3] == 0}
    )
    assert dropped == small


def test_q_cancellation_property():
    # appending (t, tbar), tbar = -t/(1 + b t) the inverse of t under
    # x+y+bxy, changes nothing.  Multiplying by (1 + b t)^N, N the top
    # tbar degree, clears every denominator and keeps the check in Q[b].
    lam = (2, 1)
    inner = expand(gq_oracle(lam, 2, trunc=FULL))
    outer = expand(gq_oracle(lam, 4, trunc=FULL))
    top = max(k[1] for k in scalar_terms(outer))
    for t in (Fraction(1, 2), Fraction(2), Fraction(-1, 3)):
        clear = 1 + t * BETA
        for u, v in [(Fraction(1, 3), Fraction(5, 7)), (Fraction(2), Fraction(0))]:
            got = ZERO
            for (e1, e2, e3, e4), c in scalar_terms(outer).items():
                val = t ** e1 * (-t) ** e2 * u ** e3 * v ** e4
                got = got + c * val * clear ** (top - e2)
            want = ZERO
            for (e3, e4), c in scalar_terms(inner).items():
                want = want + c * (u ** e3 * v ** e4)
            assert got == want * clear ** top


def test_exponents_past_six_bits_answer():
    # b x^64 needs a 7-bit exponent; the oracle keeps exponent sets as
    # masks as wide as they need.  The stores are compared directly, since
    # the referees' expand keeps six bits per exponent
    assert gq_oracle((63,), 1, 64) == SymmetricPoly(1, {((63,), 0): 2, ((64,), 1): 1})
    assert expand(gq_oracle((62,), 1, 63)) == FinitePoly(1, {(62,): 2, (63,): BETA})


def test_field_carry_is_dropped_with_its_b_degree():
    # Q_(62)(x, y) at trunc 62: P0 reaches x-degree 66, and its terms past
    # x-degree 63, such as b x_0^64, must go for their b-degree alone.
    # expand writes the answer out in the referees' six-bit fields
    want = {(62, 0): 2, (0, 62): 2} | {(a, 62 - a): 4 for a in range(1, 62)}
    assert expand(gq_oracle((62,), 2, 62)) == FinitePoly(2, want)


def test_padding_row_of_zero_rejected():
    with pytest.raises(ValueError):
        gq_oracle((2, 0), 3)


@pytest.mark.parametrize("args, bad", [(((), 3, -2), "-2"), (((1,), -1), "-1"),
                                       (((1,), 2.5), r"2\.5")])
def test_bad_counts_rejected(args, bad):
    # GQ_empty is 1, so the zero of a negative bound would be a wrong answer
    with pytest.raises(ValueError, match=bad):
        gq_oracle(*args)


@pytest.mark.parametrize("trunc", [-2, 2.5, True])
def test_bad_trunc_is_named(trunc):
    with pytest.raises(ValueError, match="trunc"):
        gq_oracle((), 3, trunc)


def test_referees_share_nothing_with_the_oracle():
    # gq_oracle_full, gq_oracle_divided, gq_oracle_literal and expand
    # referee the oracle, so they build P0 and its layout on their own
    tree = ast.parse((Path(__file__).parent / "referees.py").read_text())
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {f"{node.module}.{alias.name}" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert not [name for name in imported if name.split(".")[:2] == ["kq", "oracle"]]
