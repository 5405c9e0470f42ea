"""The kernel of the Pfaffian formulas and its coefficient tables.

Both Pfaffian formulas, for GQ_lambda and for the duals, rest on one
kernel, (z-w)/(z+w+bzw), expanded on |z| >> |w|, ascending in w; the GQ
side uses it at t = 1/z.  _dual_kernel_rational is its only closed form,
and _kernel_entries the only table built from it: the coefficients of the
kernel times the prefactors (1+bz)^{-a} (1+bw)^{-c}.  g_table is that
table; f_table is the same table at the complementary exponents with its
keys transposed.  tests/referees.py cross-checks both against generic
region-committed block expansions.

Every coefficient here is c*b^(p+q), c an int, so a table is a read-only
mapping from (p, q), or p for the univariate padding column, to c; it is
memoised and shared by every caller.  Entries do not depend on the window,
so each exponent pair keeps one kernel table, at the widest window asked
for, and every window is cut from it.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .scalars import binom_general

# (a, c) -> (x_max, y_max, entries): the widest kernel table built so far
_KERNEL_TABLES: dict = {}


def _dual_kernel_rational(p: int, q: int):
    """[z^p w^q] of (z-w)/(z+w+bzw) expanded on |z| >> |w|, ascending in w,
    divided by b^{p+q}.

    Support is q >= 0 and -q <= p <= 0; the closed form collapses to
    (-1)^q b^{p+q} (C(q,-p) + C(q-1,-p-1)), and is 0 off the support.
    """
    if q < 0 or p > 0 or p < -q:
        return 0
    c = binom_general(q, -p) + binom_general(q - 1, -p - 1)
    return -c if q % 2 else c


def _kernel_entries(a: int, c: int, x_max: int, y_max: int) -> dict:
    """Coefficients of z^x w^y in (1+bz)^{-a} (1+bw)^{-c} (z-w)/(z+w+bzw).

    Kernel region as in _dual_kernel_rational; the table covers
    0 <= y <= y_max, -y <= x <= x_max, the whole support there.  Entry
    (x, y) is the int coefficient of b^{x+y}.
    """
    entries = {}
    for y in range(y_max + 1):
        for x in range(-y, x_max + 1):
            # z picks s from (1+bz)^{-a}, w picks l from (1+bw)^{-c}
            total = 0
            for s in range(max(0, x), x + y + 1):
                cs = binom_general(-a, s)
                if not cs:
                    continue
                for l in range(0, min(y, x + y - s) + 1):
                    cl = binom_general(-c, l)
                    if not cl:
                        continue
                    k = _dual_kernel_rational(x - s, y - l)
                    if k:
                        total += cs * cl * k
            if total:
                entries[(x, y)] = int(total)
    return entries


def _kernel_table(a: int, c: int, windows) -> MappingProxyType:
    """The kernel table at exponents (a, c) within windows = (x_max, y_max),
    cut from the widest one built so far; a wider window rebuilds that at
    the union of the two."""
    x_max, y_max = windows
    x_top, y_top, entries = _KERNEL_TABLES.get((a, c), (x_max, y_max, None))
    if entries is None or x_top < x_max or y_top < y_max:
        x_top, y_top = max(x_top, x_max), max(y_top, y_max)
        entries = _kernel_entries(a, c, x_top, y_top)
        _KERNEL_TABLES[(a, c)] = (x_top, y_top, entries)
    return MappingProxyType({(x, y): v for (x, y), v in entries.items()
                             if x <= x_max and y <= y_max})


def _univariate(top: int, a) -> MappingProxyType:
    """{p: C(a, p)}, the int coefficient of b^p, for 0 <= p <= top, zeros
    left out."""
    entries = {}
    for p in range(top + 1):
        c = binom_general(a, p)
        if c:
            entries[p] = int(c)
    return MappingProxyType(entries)


@lru_cache(maxsize=None)
def f_table(i: int, j: int, r: int, r_prime: int, windows) -> MappingProxyType:
    """Coefficients of t_i^p t_j^q in the GQ-side kernel product.

    The generating product is
        (1+b t_i)^{-(r'-i)} (1+b t_j)^{-(r'-j)} (t_j-t_i)/(t_i+t_j+b t_i t_j)
    expanded with t_i small, t_j large: the kernel table at exponents
    (r'-j, r'-i), z = t_j and w = t_i, with its keys transposed.  The
    padding column j = r+1 expands (1+b t_i)^{-(r'-i-1)} alone and is keyed
    by p.  windows = (p_max, q_max).  Entry (p, q) is the int coefficient
    of b^{p+q}.
    """
    if not 1 <= i < j <= r_prime:
        raise ValueError("need 1 <= i < j <= r'")
    p_max, q_max = windows
    if j == r + 1:
        return _univariate(p_max, i + 1 - r_prime)
    table = _kernel_table(r_prime - j, r_prime - i, (q_max, p_max))
    return MappingProxyType({(p, q): c for (q, p), c in table.items()})


@lru_cache(maxsize=None)
def g_table(i: int, j: int, r: int, windows) -> MappingProxyType:
    """Coefficients of z^p w^q in the dual-side kernel product.

    The generating product is (1+b z)^{-i} (1+b w)^{-j} (z-w)/(z+w+bzw) with
    z large and w ascending, the kernel table at exponents (i, j); the
    padding column j = r+1 expands (1+b z)^{-i} and is keyed by p.
    windows = (p_max, q_max); rows live on q >= 0, p+q >= 0, and entry
    (p, q) is the int coefficient of b^{p+q}.
    """
    p_max, q_max = windows
    if j == r + 1:
        return _univariate(p_max, -i)
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return _kernel_table(i, j, windows)
