from fractions import Fraction
from itertools import permutations

import pytest

from kq.finitevars import FinitePoly, eval_finite
from kq.hexpansion import classical_q
from kq.oracle import gq_oracle
from kq.scalars import BETA, ZERO
from referees import at_b, gq_oracle_literal, scalar_terms

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
    got = gq_oracle((1,), 1, trunc=FULL)
    assert got == FinitePoly(1, {(1,): 2, (2,): BETA})


def test_one_variable_two_rows_is_zero():
    assert gq_oracle((2, 1), 1, trunc=FULL) == FinitePoly.zero(1)
    assert gq_oracle((2, 1), 1) == FinitePoly.zero(1)


def test_more_rows_than_variables_vanishes():
    assert gq_oracle((3, 2, 1), 2) == FinitePoly.zero(2)


@pytest.mark.parametrize("lam", [(1,), (2,), (2, 1), (3, 1), (3, 2, 1)])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_divided_differences_match_literal(lam, n):
    if len(lam) > n:
        return
    assert gq_oracle(lam, n, trunc=FULL) == gq_oracle_literal(lam, n)


def test_truncation_is_exact_prefix():
    full = gq_oracle_literal((2, 1), 4)
    for t in (3, 4, 5, 6):
        assert gq_oracle((2, 1), 4, trunc=t) == truncated(full, t)


@pytest.mark.parametrize("lam", [(1,), (2, 1), (3, 2), (4, 1)])
def test_beta_zero_is_classical_q(lam):
    n = 5
    w = sum(lam)
    got = beta_zero(gq_oracle(lam, n, trunc=w))
    expect = truncated(eval_finite(classical_q(lam, w), n), w)
    assert got == expect


def test_symmetric_in_the_variables():
    got = gq_oracle((2, 1), 3, trunc=6)
    for perm in permutations(range(3)):
        assert permuted(got, perm) == got


def test_stability_under_last_variable_zero():
    big = gq_oracle((2, 1), 4, trunc=4)
    small = gq_oracle((2, 1), 3, trunc=4)
    dropped = FinitePoly(
        3, {k[:3]: v for k, v in scalar_terms(big).items() if k[3] == 0}
    )
    assert dropped == small


def test_q_cancellation_property():
    # appending (t, tbar), tbar = -t/(1 + b t) the inverse of t under
    # x+y+bxy, changes nothing.  Multiplying by (1 + b t)^N, N the top
    # tbar degree, clears every denominator and keeps the check in Q[b].
    lam = (2, 1)
    inner = gq_oracle(lam, 2, trunc=FULL)
    outer = gq_oracle(lam, 4, trunc=FULL)
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


def test_key_field_overflow_raises():
    # b x^64 needs a 7-bit exponent, which would carry into the b field
    with pytest.raises(ValueError):
        gq_oracle((63,), 1, 64)
    assert gq_oracle((62,), 1, 63) == FinitePoly(1, {(62,): 2, (63,): BETA})


def test_padding_row_of_zero_rejected():
    with pytest.raises(ValueError):
        gq_oracle((2, 0), 3)


@pytest.mark.parametrize("args, bad", [(((), 3, -2), "-2"), (((1,), -1), "-1"),
                                       (((1,), 2.5), r"2\.5")])
def test_bad_counts_rejected(args, bad):
    # GQ_empty is 1, so the zero of a negative bound would be a wrong answer
    with pytest.raises(ValueError, match=bad):
        gq_oracle(*args)
