import re
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kq.dualq import o_pfaffian_1, o_pfaffian_2
from kq.gq import gq_pfaffian_1, gq_pfaffian_2
from kq.pfaffian import check_pfaffian_length, pfaffian_from_upper
from kq.pseries import PSeries
from referees import BETA, ONE


def matchings(elements):
    """All perfect matchings of an (even) list, as lists of pairs."""
    if not elements:
        yield []
        return
    first = elements[0]
    for k in range(1, len(elements)):
        rest = elements[1:k] + elements[k + 1:]
        for m in matchings(rest):
            yield [(first, elements[k])] + m


def perm_sign(seq):
    sign = 1
    seq = list(seq)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                sign = -sign
    return sign


def pfaffian_oracle(matrix):
    """Independent definition: sum over perfect matchings with crossing signs."""
    n = len(matrix)
    total = 0
    for m in matchings(list(range(n))):
        flat = [x for pair in m for x in pair]
        term = perm_sign(flat)
        for i, j in m:
            term = term * matrix[i][j]
        total = total + term
    return total


def skew(entries):
    """Build a skew matrix from the strict upper triangle, row by row."""
    n = 1
    while n * (n - 1) // 2 < len(entries):
        n += 1
    assert n * (n - 1) // 2 == len(entries)
    it = iter(entries)
    m = [[0 * entries[0]] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = next(it)
            m[i][j] = v
            m[j][i] = -v
    return m


def upper(matrix):
    """The strict upper triangle of a square matrix, the library's input."""
    n = len(matrix)
    return {(i, j): matrix[i][j] for i in range(n) for j in range(i + 1, n)}


def pf(matrix, one=1):
    return pfaffian_from_upper(upper(matrix), one=one)


def test_small_closed_forms():
    assert pfaffian_from_upper({}) == 1
    a = Fraction(7, 3)
    assert pfaffian_from_upper({(0, 1): a}) == a
    m = skew([Fraction(x) for x in (1, 2, 3, 4, 5, 6)])
    # Pf = a12 a34 - a13 a24 + a14 a23
    assert pf(m) == 1 * 6 - 2 * 5 + 3 * 4


def test_linear_index_matrix_degenerates():
    for n in (4, 6, 8):
        m = [[Fraction(j - i) for j in range(n)] for i in range(n)]
        assert pf(m) == 0


@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                min_size=6, max_size=6))
@settings(max_examples=40, deadline=None)
def test_matches_matching_oracle_4x4(entries):
    m = skew(entries)
    assert pf(m) == pfaffian_oracle(m)


@given(st.lists(st.integers(-9, 9), min_size=15, max_size=15))
@settings(max_examples=15, deadline=None)
def test_matches_matching_oracle_6x6(entries):
    m = skew([Fraction(e) for e in entries])
    assert pf(m) == pfaffian_oracle(m)


def det_oracle(matrix):
    n = len(matrix)
    total = Fraction(0)
    for p in permutations(range(n)):
        term = Fraction(perm_sign(p))
        for i in range(n):
            term *= matrix[i][p[i]]
        total += term
    return total


@given(st.lists(st.integers(-6, 6), min_size=15, max_size=15))
@settings(max_examples=15, deadline=None)
def test_pfaffian_squared_is_determinant(entries):
    m = skew([Fraction(e) for e in entries])
    assert pf(m) ** 2 == det_oracle(m)


def test_row_swap_flips_sign():
    m = skew([Fraction(x) for x in (1, 2, 3, 4, 5, 6)])
    swapped = [row[:] for row in m]
    swapped[0], swapped[1] = swapped[1], swapped[0]
    for row in swapped:
        row[0], row[1] = row[1], row[0]
    assert pf(swapped) == -pf(m)


def test_symbolic_entries():
    # entries in Q(b): Pf([[0, x],[x, 0]] blocks) multiplies out exactly
    x = BETA + 1
    y = BETA ** 2
    m = skew([x, 0 * x, 0 * x, 0 * x, 0 * x, y])
    assert pf(m, one=ONE) == x * y


def test_validation():
    with pytest.raises(ValueError):
        pfaffian_from_upper({(1, 0): Fraction(1)})  # not above the diagonal
    with pytest.raises(ValueError):
        pfaffian_from_upper({(2, 2): Fraction(1)})  # on the diagonal
    with pytest.raises(ValueError):
        pf([[0] * 12 for _ in range(12)])  # beyond supported size


@pytest.mark.parametrize(
    "route", [gq_pfaffian_1, gq_pfaffian_2, o_pfaffian_1, o_pfaffian_2])
def test_routes_reject_long_partitions_before_building_tables(route):
    lam = tuple(range(11, 0, -1))  # weight 66 fits D = 66, length 11 does not
    with pytest.raises(ValueError, match=r"\(11, 10, 9"):
        route(lam, 66)
    check_pfaffian_length(tuple(range(10, 0, -1)))  # padded length 10 fits


def test_from_upper_pads_to_even():
    val = pfaffian_from_upper({(0, 1): Fraction(3)})
    assert val == 3
    # 3 indices pad to 4; lone pair (0,2) pairs index 1 with the padding zero
    assert pfaffian_from_upper({(0, 2): Fraction(5)}) == 0


def test_row_sums_start_at_their_first_term():
    # a 2 x 2 Pfaffian is its entry itself, a first partner at an even
    # position enters negated, and a row of zeros gives one * 0 in the
    # entries' ring
    D = 4
    f, g = gq_pfaffian_1((2,), D), gq_pfaffian_1((1,), D)
    assert pfaffian_from_upper({(0, 1): f}, one=PSeries.one(D)) is f
    assert pfaffian_from_upper({(0, 2): f, (1, 3): g}, one=PSeries.one(D)) == f * g * -1
    assert pfaffian_from_upper({(0, 2): Fraction(5), (1, 3): Fraction(2)}) == -10
    zero = pfaffian_from_upper({(1, 2): f, (2, 3): g}, one=PSeries.one(D))
    assert isinstance(zero, PSeries) and zero == PSeries.zero(D)


@pytest.mark.parametrize("key", [(-1, 0), (0, -1), (1, 0), (2, 2), (0, 1.0), (True, 2),
                                 (0, 1, 2), (0,), "01"])
def test_bad_keys_are_named(key):
    # a key the expansion would never read must not vanish silently:
    # {(-1, 0): 5, (0, 1): 3} once gave 3
    with pytest.raises(ValueError, match=re.escape(repr(key))):
        pfaffian_from_upper({key: Fraction(5), (0, 1): Fraction(3)})
