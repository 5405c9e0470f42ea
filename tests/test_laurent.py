from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from kq import dualq, gq, laurent
from kq.laurent import (_KERNEL_TABLES, _dual_kernel_rational, _kernel_entries, _kernel_table,
                        _univariate, f_table, g_table)
from kq.partitions import even_ceil
from kq.pseries import PSeries, combination
from referees import (
    BETA,
    ONE,
    ZERO,
    Qb,
    LaurentBlock,
    gq_coefficient,
    at_b,
    binom_general,
    binomial_block,
    contract_by_rows,
    dual_kernel_coefficient,
    dual_two_point_kernel,
    kernel_coefficient,
    kernel_entries_by_convolution,
    o_one_row,
    strict_partitions_upto,
    two_point_kernel,
)


def B(k, c=1):
    return Qb.beta_power(k, Fraction(c))


def value(table, *key):
    """Entry of a table as a scalar.  A kernel table stores the int
    coefficient of b^(x+y) under (x, y), and a univariate table that of
    b^p under p."""
    c = table.get(key[0] if len(key) == 1 else key, 0)
    return Qb.beta_power(sum(key), c) if c else ZERO


def poly_block(variables, terms):
    return LaurentBlock.from_polynomial(
        variables, {e: Qb(c) for e, c in terms.items()}, ZERO)


# ---------------------------------------------------------------- kernels

def test_kernel_coefficient_spot_values():
    # (z-w)/(z+w+b), |z| >> |w|, |b| small
    assert kernel_coefficient(0, 0) == ONE
    assert kernel_coefficient(-1, 0) == -BETA
    assert kernel_coefficient(-1, 1) == B(0, -2)
    assert kernel_coefficient(-2, 1) == B(1, 3)
    assert kernel_coefficient(-2, 2) == B(0, 2)
    assert kernel_coefficient(1, 0) == ZERO
    assert kernel_coefficient(0, 1) == ZERO       # q <= -p
    assert kernel_coefficient(-1, 2) == ZERO
    assert kernel_coefficient(-1, -1) == ZERO


def test_dual_kernel_coefficient_spot_values():
    # expansion of (z-w)/(z+w+bzw):
    #   1 - (2/z + b) w + (2/z^2 + 3b/z + b^2) w^2 - ...
    assert dual_kernel_coefficient(0, 0) == ONE
    assert dual_kernel_coefficient(-1, 1) == B(0, -2)
    assert dual_kernel_coefficient(0, 1) == -BETA
    assert dual_kernel_coefficient(-2, 2) == B(0, 2)
    assert dual_kernel_coefficient(-1, 2) == B(1, 3)
    assert dual_kernel_coefficient(0, 2) == B(2)
    assert dual_kernel_coefficient(1, 0) == ZERO
    assert dual_kernel_coefficient(0, -1) == ZERO
    assert dual_kernel_coefficient(-2, 1) == ZERO  # p >= -q


@given(st.integers(-8, 2), st.integers(-2, 8))
def test_kernel_recurrence(p, q):
    # multiplying back by z+w+b must reproduce z-w coefficientwise
    lhs = (kernel_coefficient(p - 1, q) + kernel_coefficient(p, q - 1)
           + BETA * kernel_coefficient(p, q))
    rhs = ONE if (p, q) == (1, 0) else (-ONE if (p, q) == (0, 1) else ZERO)
    assert lhs == rhs


@given(st.integers(-8, 2), st.integers(-2, 8))
def test_dual_kernel_recurrence(p, q):
    # multiplying back by z+w+bzw must reproduce z-w coefficientwise
    lhs = (dual_kernel_coefficient(p - 1, q) + dual_kernel_coefficient(p, q - 1)
           + BETA * dual_kernel_coefficient(p - 1, q - 1))
    rhs = ONE if (p, q) == (1, 0) else (-ONE if (p, q) == (0, 1) else ZERO)
    assert lhs == rhs


def test_kernel_is_the_dual_kernel_at_inverted_exponents():
    # (z-w)/(z+w+b) at (z, w) = (1/w', 1/z') is (z'-w')/(z'+w'+bz'w'), so
    # the referee's own closed form is the library's one kernel transposed
    for p in range(-8, 3):
        for q in range(-2, 9):
            c = _dual_kernel_rational(-q, -p)
            assert kernel_coefficient(p, q) == (B(-p - q, c) if c else ZERO), (p, q)


def test_kernels_specialize_to_classical_at_beta_zero():
    for kc in (kernel_coefficient, dual_kernel_coefficient):
        for p in range(-6, 1):
            for q in range(0, 7):
                v = at_b(kc(p, q), 0)
                if p == q == 0:
                    assert v == 1
                elif q == -p:
                    assert v == 2 * (-1) ** q
                else:
                    assert v == 0


# ---------------------------------------------------------------- blocks

def test_block_addition_and_window_intersection():
    a = poly_block(("z",), {(2,): 1, (0,): 3})
    b = LaurentBlock(("z",), ((0, 1),), {(0,): ONE}, ZERO,
                     known_below=(True,), known_above=(False,))
    s = a + b
    # b is unknown above exponent 1, so the sum only certifies [0, 1]
    assert s.window == ((0, 1),)
    assert s.coefficient((0,)) == B(0, 4)
    with pytest.raises(ValueError):
        s.coefficient((2,))
    assert s.coefficient((-3,)) == ZERO  # known zero below


def test_block_multiply_complete_blocks():
    z_plus_w = poly_block(("z", "w"), {(1, 0): 1, (0, 1): 1})
    z_minus_w = poly_block(("z", "w"), {(1, 0): 1, (0, 1): -1})
    prod = z_plus_w * z_minus_w
    assert prod.coefficient((2, 0)) == ONE
    assert prod.coefficient((0, 2)) == -ONE
    assert prod.coefficient((1, 1)) == ZERO
    assert prod.known_below == (True, True)
    assert prod.known_above == (True, True)


def test_block_multiply_empty_window_raises():
    # ascending-unbounded times descending-unbounded certifies nothing
    up = LaurentBlock(("z",), ((0, 3),), {(0,): ONE}, ZERO,
                      known_below=(True,), known_above=(False,))
    down = LaurentBlock(("z",), ((-3, 0),), {(0,): ONE}, ZERO,
                        known_below=(False,), known_above=(True,))
    with pytest.raises(ValueError):
        up * down


def test_kernel_identity_block_form():
    k = two_point_kernel("z", "w", ((-6, 0), (0, 6)))
    mult = poly_block(("z", "w"), {(1, 0): ONE, (0, 1): ONE, (0, 0): BETA})
    prod = k * mult
    target = poly_block(("z", "w"), {(1, 0): ONE, (0, 1): -ONE})
    (zlo, zhi), (wlo, whi) = prod.window
    assert zhi >= 1 and whi >= 1
    for p in range(zlo, zhi + 1):
        for q in range(wlo, whi + 1):
            assert prod.coefficient((p, q)) == target.coefficient((p, q))


def test_dual_kernel_identity_block_form():
    k = dual_two_point_kernel("z", "w", ((-6, 0), (0, 6)))
    mult = poly_block(("z", "w"),
                      {(1, 0): ONE, (0, 1): ONE, (1, 1): BETA})
    prod = k * mult
    target = poly_block(("z", "w"), {(1, 0): ONE, (0, 1): -ONE})
    (zlo, zhi), (wlo, whi) = prod.window
    for p in range(zlo, zhi + 1):
        for q in range(wlo, whi + 1):
            assert prod.coefficient((p, q)) == target.coefficient((p, q))


def test_kernel_window_guards():
    with pytest.raises(ValueError):
        two_point_kernel("z", "w", ((-2, 1), (0, 2)))
    with pytest.raises(ValueError):
        dual_two_point_kernel("z", "w", ((-2, 0), (-1, 2)))


def test_kernel_unknown_zone_errors():
    k = two_point_kernel("z", "w", ((-3, 0), (0, 2)))
    with pytest.raises(ValueError):
        k.coefficient((-4, 0))       # deeper than the window
    with pytest.raises(ValueError):
        k.coefficient((0, 3))        # w-tail not certified (2 < 3)
    wide = two_point_kernel("z", "w", ((-3, 0), (0, 3)))
    assert wide.coefficient((0, 4)) == ZERO   # certified zero tail


def test_kernel_blocks_stable_under_window_widening():
    small = two_point_kernel("z", "w", ((-3, 0), (0, 3)))
    large = two_point_kernel("z", "w", ((-7, 0), (0, 7)))
    for exps, c in small.terms.items():
        assert large.coefficient(exps) == c


def test_binomial_block_flags():
    conv = binomial_block(("z",), 0, -2, 4)         # (1+bz)^(-2), truncated
    assert conv.known_above == (False,)
    assert conv.coefficient((3,)) == B(3, -4)
    full = binomial_block(("z",), 0, 2, 5)          # honest polynomial
    assert full.known_above == (True,)
    assert full.coefficient((5,)) == ZERO
    inv = binomial_block(("z",), 0, 2, 5, inverse_powers=True)
    assert inv.coefficient((-1,)) == B(1, 2)
    assert inv.coefficient((-4,)) == ZERO


def test_restrict_cannot_widen():
    k = two_point_kernel("z", "w", ((-4, 0), (0, 4)))
    narrow = k.restrict(((-2, 0), (0, 2)))
    assert narrow.coefficient((-2, 2)) == B(0, 2)
    with pytest.raises(ValueError):
        k.restrict(((-5, 0), (0, 4)))


# ---------------------------------------------------------------- f-table

def test_f_table_one_row_prefactor():
    # r'-i = 1, r'-j = 0 (last two rows of an even-size array); keys (q, p)
    t = f_table(1, 2, 2, (4, 4))
    assert value(t, 0, 0) == ONE
    assert value(t, -1, 1) == B(0, -2)
    assert value(t, 0, 1) == B(1, -2)
    assert value(t, 1, 0) == ZERO
    # support constraints are structural
    assert all(p >= 0 and p + q >= 0 for (q, p) in t)


def test_f_table_padding_column():
    # formula I's padding column j = r' contracts GQ_{l_i+p} against the
    # univariate table of (1+bt)^(i+1-r'), at (i, r') = (1, 4) (1+bt)^(-2)
    D = 6
    for li in range(1, D + 1):
        want = sum((gq_coefficient(li + p, D) * B(p, (-1) ** p * (p + 1))
                    for p in range(D - li + 1)), PSeries.zero(D))
        assert gq._f_entry(1, 4, 4, li, None, D) == want, li


def test_f_table_beta_zero_is_classical():
    t = f_table(1, 2, 4, (5, 5))
    for q, p in t:
        v = at_b(value(t, q, p), 0)
        if p == q == 0:
            assert v == 1
        elif q == -p:
            assert v == 2 * (-1) ** p
        else:
            assert v == 0


def test_f_table_window_widening_consistent():
    small = f_table(1, 2, 4, (3, 3))
    large = f_table(1, 2, 4, (6, 6))
    for key, c in small.items():
        assert large[key] == c


def test_windows_are_cut_from_one_table_per_exponent_pair():
    # a window cut from a wider table, and a table rebuilt wider when a
    # window passes it, hold exactly what a build at that window holds;
    # past the memo of cuts, so every window is cut or rebuilt here
    for windows in ((3, 2), (6, 6), (2, 5), (4, 1), (7, 0)):
        assert dict(_kernel_table.__wrapped__(1, 2, windows)) == _kernel_entries(1, 2, *windows)
    x_top, y_top, _ = _KERNEL_TABLES[(1, 2)]
    assert x_top >= 7 and y_top >= 6


KERNEL_WINDOWS = ((0, 0), (3, 5), (7, 7), (12, 12))


@pytest.mark.parametrize("a", range(9))
def test_kernel_recurrences_match_convolution(a):
    # a + c first-order passes against the quartic convolution of the
    # closed form with both binomial series
    for c in range(9):
        for windows in KERNEL_WINDOWS:
            assert _kernel_entries(a, c, *windows) == kernel_entries_by_convolution(a, c, *windows)


def test_widened_kernel_table_matches_convolution(monkeypatch):
    # a narrow window builds the cached table, a wider one rebuilds it at
    # the union; each cut holds what the convolution holds at its window,
    # the last narrow one cut from the widened table, past the memo of cuts
    monkeypatch.setattr(laurent, "_KERNEL_TABLES", {})
    narrow, wide = (2, 3), (9, 6)
    for windows in (narrow, wide, narrow):
        cut = _kernel_table.__wrapped__(3, 4, windows)
        assert dict(cut) == kernel_entries_by_convolution(3, 4, *windows)
    assert laurent._KERNEL_TABLES[(3, 4)][:2] == wide


def test_tables_hold_ints():
    # the b-scaling keeps every entry an int, univariate tables included
    tables = [_univariate(6, n) for n in range(5)]
    for rp in (2, 4, 6):
        for i, j in combinations(range(1, rp + 1), 2):
            tables += [f_table(i, j, rp, (4, 5)), g_table(i, j, (4, 5))]
    assert all(type(v) is int for t in tables for v in t.values())


def test_univariate_tables_are_the_binomials():
    # {p: C(-n, p)} against the Fraction referee, no zero weight kept
    for n in range(9):
        for top in range(13):
            t = _univariate(top, n)
            want = {p: binom_general(-n, p) for p in range(top + 1)}
            assert dict(t) == {p: c for p, c in want.items() if c}, (top, n)
            assert all(type(c) is int and c for c in t.values()), (top, n)


# ---------------------------------------------------------------- g-table

def test_g_table_spot_values():
    t = g_table(1, 2, (4, 4))
    assert value(t, 0, 0) == ONE
    assert value(t, -1, 1) == B(0, -2)
    # prefactor cross-terms: -b - 2b + 2b and -b from (1+bz)^(-1)
    assert value(t, 0, 1) == B(1, -1)
    assert value(t, 1, 0) == B(1, -1)
    assert all(q >= 0 and p + q >= 0 for (p, q) in t)


def test_g_table_padding_column():
    # zeta's padding column contracts q^[b]_{l_i-p} against the univariate
    # table of (1+bz)^(-i), at i = 2 (1+bz)^(-2)
    D = 6
    qb = dualq.q_bracket_series(D)
    for li in range(1, D + 1):
        want = sum((qb[li - p] * B(p, (-1) ** p * (p + 1)) for p in range(li + 1)),
                   PSeries.zero(D))
        assert dualq._g_entry(2, 4, li, None, D) == want, li


def test_g_table_checks_indices_before_the_padding_column():
    # the index guard runs before any table is cut, also at the one-column
    # window a padding column would ask for
    for i in (3, 0):
        with pytest.raises(ValueError):
            g_table(i, 3, (4, 0))


def test_g_table_beta_zero_is_classical():
    t = g_table(1, 2, (5, 5))
    for p, q in t:
        v = at_b(value(t, p, q), 0)
        if p == q == 0:
            assert v == 1
        elif p == -q:
            assert v == 2 * (-1) ** q
        else:
            assert v == 0


# ------------------------------------------------- both tables, one identity

def kernel_cases():
    """Every f_table(i, j, r') with r' <= 6, and every g_table(i, j) with
    j <= 6."""
    for rp in (2, 4, 6):
        for i, j in combinations(range(1, rp + 1), 2):
            yield pytest.param("f", i, j, rp, id=f"f-{i}-{j}-{rp}")
    for i, j in combinations(range(1, 7), 2):
        yield pytest.param("g", i, j, 6, id=f"g-{i}-{j}")


def kernel_block(kind, i, j, rp, P):
    """The table as a block on (big, small) variables, and its exponents.

    f_table(i, j) expands (1+b t_j)^{-(r'-j)} (1+b t_i)^{-(r'-i)} times
    the kernel with t_j big, keyed (q, p); g_table(i, j) expands
    (1+bz)^{-i} (1+bw)^{-j} times the kernel with z big.  Either way the
    block reads z^x w^y.
    """
    if kind == "f":
        t = f_table(i, j, rp, (P, P))
        return ("tj", "ti"), {key: value(t, *key) for key in t}, rp - j, rp - i
    t = g_table(i, j, (P, P))
    return ("z", "w"), {key: value(t, *key) for key in t}, i, j


@pytest.mark.parametrize("kind, i, j, rp", kernel_cases())
def test_kernel_table_block_cross_check(kind, i, j, rp):
    # (1+bz)^a (1+bw)^c (z+w+bzw) T  ==  z - w, with z the big variable;
    # for f at j = r' the exponent a is 0 and its factor is 1
    P = 6
    variables, terms, a, c = kernel_block(kind, i, j, rp, P)
    block = LaurentBlock(
        variables, ((-P, P), (0, P)), terms,
        ZERO, known_below=(True, True), known_above=(False, False))
    prod = block * poly_block(variables,
                              {(1, 0): ONE, (0, 1): ONE, (1, 1): BETA})
    prod = prod * binomial_block(variables, 0, a, a)
    prod = prod * binomial_block(variables, 1, c, c)
    target = poly_block(variables, {(1, 0): ONE, (0, 1): -ONE})
    (zlo, zhi), (wlo, whi) = prod.window
    assert zhi >= 1 and whi >= 1
    for x in range(zlo, zhi + 1):
        for y in range(wlo, whi + 1):
            assert prod.coefficient((x, y)) == target.coefficient((x, y))


# ------------------------------------------------------------ contraction

@pytest.mark.parametrize("D", range(1, 11))
def test_generator_products_match_fresh_products(D):
    # each family's _pair(m, n) stands for s b^e f = A_m A_n, A read from a
    # fresh generator row: constants as b-shifts, and a GQ pair past the
    # bound, which is zero, as None
    row = gq._gq_series.__wrapped__(D)

    def fresh(n):
        return row[n] if 0 < n <= D else gq_coefficient(n, D)

    for m in range(-2, D + 2):
        for n in range(-2, D + 2):
            want = fresh(m) * fresh(n)
            got = gq._pair(m, n, D)
            if got is None:
                assert max(m + n, m, n) > D and not want.terms, (m, n)
            else:
                assert combination([got], D) == want, (m, n)
    shared = dualq._q_bracket_upto(D + 2, D)
    row = dualq._q_bracket_upto.__wrapped__(D + 2, D)
    for m in range(D + 3):
        for n in range(D + 3):
            assert combination([dualq._pair(shared, m, n, D)], D) == row[m] * row[n], (m, n)


def test_contract_matches_row_referee_on_route_tables(monkeypatch):
    # every table the four Pfaffian routes contract, for all strict lambda
    # at D <= 9, against the row-by-row contraction of the same table at
    # the same cap (the GQ routes cut their entries at b^(D - |lambda|))
    context, seen = [], {}

    def entering(family, entry):
        def wrapped(*args, **kwargs):  # ..., li, lj, degree_bound
            context.append((family, *args[-3:]))
            try:
                return entry(*args, **kwargs)
            finally:
                context.pop()
        return wrapped

    def recorded(table, pair, degree_bound, _cap=None):
        got = laurent.contract(table, pair, degree_bound, _cap)
        seen.setdefault((*context[-1], _cap, tuple(table.items())), got)
        return got

    monkeypatch.setattr(gq, "_f_entry", entering("gq", gq._f_entry))
    monkeypatch.setattr(dualq, "_g_entry", entering("dual", dualq._g_entry))
    monkeypatch.setattr(gq, "contract", recorded)
    monkeypatch.setattr(dualq, "contract", recorded)
    gq._gq_two_index.cache_clear()
    dualq._o_two_index.cache_clear()
    for D in range(1, 10):
        for lam in strict_partitions_upto(D):
            for route in (gq.gq_pfaffian_1, gq.gq_pfaffian_2,
                          dualq.o_pfaffian_1, dualq.o_pfaffian_2):
                route(lam, D)
    assert {key[0] for key in seen} == {"gq", "dual"}
    assert {key[4] is None for key in seen} == {True, False}
    for (family, li, lj, D, cap, items), got in seen.items():
        if family == "gq":  # f tables are keyed (q, p)
            left, right = ((lambda q: gq_coefficient(lj + q, D)),
                           (lambda p: gq_coefficient(li + p, D)))
        else:
            qb = dualq._q_bracket_upto(max(D, li + lj), D)
            left, right = (lambda p: qb[li - p]), (lambda q: qb[lj - q])
        assert contract_by_rows(dict(items), left, right, D, cap) == got, (family, li, lj, D, cap)


def test_memoised_products_survive_a_sweep():
    # no caller changes a shared product: after a sweep of the four
    # Pfaffian routes, every product memoised at any bound equals a fresh one
    D = 9
    for lam in strict_partitions_upto(D):
        for route in (gq.gq_pfaffian_1, gq.gq_pfaffian_2, dualq.o_pfaffian_1, dualq.o_pfaffian_2):
            route(lam, D)
    assert gq._PRODUCTS[D] and dualq._PRODUCTS[D]
    for bound, table in gq._PRODUCTS.items():
        fresh = gq._gq_series.__wrapped__(bound)
        for (m, n), f in table.items():
            assert f == fresh[m] * fresh[n], (bound, m, n)
    for bound, table in dualq._PRODUCTS.items():
        row = dualq._q_bracket_upto.__wrapped__(max(bound, *(n for _, n in table)), bound)
        for (m, n), f in table.items():
            assert f == row[m] * row[n], (bound, m, n)


# ------------------------------------------------- formula II is formula I

def formula_two_entries(D):
    """The distinct entries (i, j, r', lambda_i, lambda_j) of the Pfaffians
    of every strict lambda with |lambda| <= D, lambda_j None in the
    padding column j = r'."""
    entries = set()
    for lam in strict_partitions_upto(D):
        rp = even_ceil(len(lam))
        parts = (*lam, None) if len(lam) % 2 else lam
        for i, j in combinations(range(1, rp + 1), 2):
            entries.add((i, j, rp, parts[i - 1], parts[j - 1]))
    return entries


@pytest.mark.parametrize("D", range(1, 11))
def test_formula_two_is_formula_one_entry_by_entry(D):
    # formula II's twist times the r = 2 prefactor is formula I's
    # prefactor, so each of its entries, built here from the two-index
    # values with the referee's binomials, is formula I's entry: equal on
    # the GQ side, a quarter (two rows) or a half (padding) of zeta's on
    # the dual side
    for i, j, rp, li, lj in sorted(formula_two_entries(D), key=str):
        if lj is None:
            gq_want = sum((gq_coefficient(li + k, D) * B(k, binom_general(i + 1 - rp, k))
                           for k in range(D - li + 1)), PSeries.zero(D))
            o_want = sum((o_one_row(li - k, D) * B(k, binom_general(1 - i, k))
                          for k in range(li + 1)), PSeries.zero(D))
            o_scale = Fraction(1, 2)
        else:
            top = D - li - lj
            gq_want = combination(
                ((gq.gq_two_index(li + k, lj + l, D), k + l,
                  binom_general(i + 1 - rp, k) * binom_general(j - rp, l))
                 for k in range(top + 1) for l in range(top - k + 1)), D)
            o_want = combination(
                ((dualq.o_two_index(li - k, lj - l, D), k + l,
                  binom_general(1 - i, k) * binom_general(2 - j, l))
                 for l in range(lj + 1) for k in range(li + lj - l + 1)), D)
            o_scale = Fraction(1, 4)
        assert gq._f_entry(i, j, rp, li, lj, D) == gq_want, ("gq", i, j, rp, li, lj)
        assert dualq._g_entry(i, j, li, lj, D) * o_scale == o_want, ("o", i, j, rp, li, lj)
