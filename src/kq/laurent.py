"""The kernel of the Pfaffian formulas and its coefficient tables.

Both Pfaffian formulas, for GQ_lambda and for the duals, rest on one
kernel, (z-w)/(z+w+bzw), expanded on |z| >> |w|, ascending in w; the GQ
side uses it at t = 1/z.  _dual_kernel_rational is its only closed form,
and _kernel_entries the only table built from it: the coefficients of the
kernel times the prefactors (1+bz)^{-a} (1+bw)^{-c}.  g_table is that
table, and f_table is the same table at the complementary exponents, keyed
(q, p).  _univariate is the one-variable table of (1+bz)^{-n}.  Formula I
reads it in its padding column, and formula II for its binomial twists: a
twist times formula II's r = 2 prefactor is formula I's prefactor, so every
twist weight is some C(-n, k) with n >= 0.  So every Pfaffian coefficient
of either family is an int from this module.
tests/referees.py cross-checks the kernel tables against generic
region-committed block expansions, _kernel_entries against a direct
convolution, and _univariate against a Fraction binomial.

Every coefficient of z^x w^y here is e b^(x+y) with e an int, so a
table stores e.  Scaled so, dividing by 1+bz is the prefix recurrence
e'(x, y) = e(x, y) - e'(x-1, y) along a row and dividing by 1+bw is
e'(x, y) = e(x, y) - e'(x, y-1) down a column: a table is a + c passes
of int subtractions over the closed form.  A kernel table is a read-only
mapping from (x, y) to e, memoised and shared by every caller; a
univariate table maps p to e, read-only too, and is built per entry.
Entries do not depend on the window, so each exponent pair keeps one
kernel table, at the widest window asked for, and every window is cut
from it.

contract sums a Pfaffian entry against a table as one combination over
memoised generator products: each cell (x, y) reads the product of its two
one-row generators from a table that the family keeps per bound (gq for
GQ_m GQ_n, dualq for q^[b]_m q^[b]_n), so entries and partitions that
meet the same index pair share one series product, and cells that meet
the same product at the same b-power are summed before the combination.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from types import MappingProxyType

from .partitions import _check_int
from .pseries import combination

# (a, c) -> (x_max, y_max, entries): the widest kernel table built so far
_KERNEL_TABLES: dict = {}


def _dual_kernel_rational(p: int, q: int) -> int:
    """[z^p w^q] of (z-w)/(z+w+bzw) expanded on |z| >> |w|, ascending in w,
    divided by b^{p+q}.

    Support is q >= 0 and -q <= p <= 0; the closed form collapses to
    (-1)^q b^{p+q} (C(q,-p) + C(q-1,-p-1)), and is 0 off the support.
    """
    if q < 0 or p > 0 or p < -q:
        return 0
    c = comb(q, -p) + (comb(q - 1, -p - 1) if p else 0)
    return -c if q % 2 else c


def _kernel_entries(a: int, c: int, x_max: int, y_max: int) -> dict:
    """Coefficients of z^x w^y in (1+bz)^{-a} (1+bw)^{-c} (z-w)/(z+w+bzw).

    Kernel region as in _dual_kernel_rational; the table covers
    0 <= y <= y_max, -y <= x <= x_max, the whole support there.  Entry
    (x, y) is the int coefficient of b^{x+y}.  Row y holds x = -y..x_max
    at list index x + y, starting from the closed form; a passes of
    e(x, y) -= e(x-1, y) along each row divide by (1+bz)^a, then c passes
    of e(x, y) -= e(x, y-1), from the top row down, divide by (1+bw)^c.
    """
    rows = [[_dual_kernel_rational(x, y) for x in range(-y, x_max + 1)]
            for y in range(y_max + 1)]
    for row in rows:
        for _ in range(a):
            for k in range(1, len(row)):
                row[k] -= row[k - 1]
    for _ in range(c):
        for above, row in zip(rows, rows[1:]):
            # (x, y-1) sits at index k-1 of the row above
            for k in range(1, len(row)):
                row[k] -= above[k - 1]
    return {(k - y, y): e for y, row in enumerate(rows) for k, e in enumerate(row) if e}


@lru_cache(maxsize=None)
def _kernel_table(a: int, c: int, windows) -> MappingProxyType:
    """The kernel table at exponents (a, c) within windows = (x_max, y_max),
    cut from the widest one built so far; a wider window rebuilds that at
    the union of the two.  Each cut is memoised."""
    x_max, y_max = windows
    x_top, y_top, entries = _KERNEL_TABLES.get((a, c), (x_max, y_max, None))
    if entries is None or x_top < x_max or y_top < y_max:
        x_top, y_top = max(x_top, x_max), max(y_top, y_max)
        entries = _kernel_entries(a, c, x_top, y_top)
        _KERNEL_TABLES[(a, c)] = (x_top, y_top, entries)
    return MappingProxyType({(x, y): v for (x, y), v in entries.items()
                             if x <= x_max and y <= y_max})


def _check_windows(windows) -> tuple[int, int]:
    """windows as a tuple of two ints, never bools; ValueError naming it otherwise."""
    if not isinstance(windows, tuple) or len(windows) != 2:
        raise ValueError(f"windows must be a pair of integers, got {windows!r}")
    return _check_int(windows[0], "windows entry"), _check_int(windows[1], "windows entry")


def _univariate(top: int, n: int) -> MappingProxyType:
    """{p: C(-n, p)}, the int coefficient of b^p in (1+bz)^{-n}, n >= 0,
    for 0 <= p <= top, zeros left out."""
    if not n:
        return MappingProxyType({0: 1})
    return MappingProxyType({p: -comb(n + p - 1, p) if p % 2 else comb(n + p - 1, p)
                             for p in range(top + 1)})


def f_table(i: int, j: int, r_prime: int, windows) -> MappingProxyType:
    """Coefficients of t_j^q t_i^p in the GQ-side kernel product, keyed (q, p).

    The generating product is
        (1+b t_i)^{-(r'-i)} (1+b t_j)^{-(r'-j)} (t_j-t_i)/(t_i+t_j+b t_i t_j)
    expanded with t_i small, t_j large: the kernel table at exponents
    (r'-j, r'-i), z = t_j and w = t_i, as it is.  windows = (q_max, p_max),
    in key order.  Entry (q, p) is the int coefficient of b^{p+q}.
    """
    i, j, r_prime = _check_int(i, "i"), _check_int(j, "j"), _check_int(r_prime, "r'")
    if not 1 <= i < j <= r_prime:
        raise ValueError("need 1 <= i < j <= r'")
    return _kernel_table(r_prime - j, r_prime - i, _check_windows(windows))


def g_table(i: int, j: int, windows) -> MappingProxyType:
    """Coefficients of z^p w^q in the dual-side kernel product.

    The generating product is (1+b z)^{-i} (1+b w)^{-j} (z-w)/(z+w+bzw) with
    z large and w ascending, the kernel table at exponents (i, j).
    windows = (p_max, q_max); rows live on q >= 0, p+q >= 0, and entry
    (p, q) is the int coefficient of b^{p+q}.
    """
    i, j = _check_int(i, "i"), _check_int(j, "j")
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return _kernel_table(i, j, _check_windows(windows))


def contract(table, pair, degree_bound: int, _cap=None):
    """sum of c b^(x+y) A A' over the entries (x, y): c of a two-variable
    table, A A' the cell's product of one-row generators, in one
    pseries.combination over the distinct products.

    _cap, when not None, takes the sum mod b^(_cap+1), as combination
    does: products carry b-powers >= 0, so a cell with x + y > _cap is
    never read, and its product is never built.

    pair(x, y) gives the cell's generator product as a triple (f, e, s),
    standing for s b^e f, or None where the product is zero; the family
    memoises f per bound, so a product is built once, by the first cell
    that asks for it, and read by every later one.  Cells that read one f
    at one b-power are summed first, so the combination walks each
    product once per b-power (a sum that cancels to 0 it skips).
    """
    sums, products = {}, {}
    for (x, y), c in table.items():
        if _cap is not None and x + y > _cap:
            continue
        got = pair(x, y)
        if got is not None:
            f, e, s = got
            products[id(f)] = f
            key = (id(f), x + y + e)
            sums[key] = sums.get(key, 0) + c * s
    return combination(((products[i], k, c) for (i, k), c in sums.items()), degree_bound, _cap)
