"""The two kernels and the coefficient tables of the Pfaffian formulas.

A rational kernel like (z-w)/(z+w+b) has different Laurent expansions in
different regions; which one is meant is part of the object, not a detail.
Each kernel here is expanded in one fixed region, given with its closed
form.  The f/g coefficient tables that feed the Pfaffian formulas are
assembled from those closed forms; tests/referees.py cross-checks the
tables against generic region-committed block expansions.

Every coefficient here is a single monomial c*b^k whose b-power is known
from the exponents alone (-p-q, p+q), so the sums behind the tables add
Fractions and attach the power once.  A table is a read-only mapping from
(p, q), or p for the univariate padding column, to a BetaScalar; it is
memoised and shared by every caller.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .scalars import BetaScalar, ZERO, binom_general


# -- the two kernels -------------------------------------------------------

def kernel_coefficient(p: int, q: int) -> BetaScalar:
    """[z^p w^q] of (z-w)/(z+w+b) expanded on |z| >> |w| >> |b|.

    Derived from (z+w+b)^{-1} = sum_k (-1)^k (w+b)^k z^{-k-1}; support is
    p <= 0 <= q with q <= -p.  Both parts of the sum carry b^{-p-q}.
    """
    if p > 0 or q < 0 or q > -p:
        return ZERO
    k1 = -p
    total = 0
    if q <= k1:
        c = binom_general(k1, q)
        total = -c if k1 % 2 else c
    k2 = -p - 1
    if k2 >= 0 and 1 <= q <= k2 + 1:
        c = binom_general(k2, q - 1)
        total += c if k2 % 2 else -c
    return BetaScalar.beta_power(-p - q, total) if total else ZERO


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


# -- coefficient tables for the Pfaffian formulas ---------------------------

def _univariate(top: int, a) -> MappingProxyType:
    """{p: C(a, p) b^p} for 0 <= p <= top, zeros left out."""
    entries = {}
    for p in range(top + 1):
        c = binom_general(a, p)
        if c:
            entries[p] = BetaScalar.beta_power(p, c)
    return MappingProxyType(entries)


@lru_cache(maxsize=None)
def f_table(i: int, j: int, r: int, r_prime: int, windows) -> MappingProxyType:
    """Coefficients of t_i^p t_j^q in the GQ-side kernel product.

    The generating product is
        (1+b t_i)^{-(r'-i)} (1+b t_j)^{-(r'-j)} (t_j-t_i)/(t_i+t_j+b t_i t_j)
    expanded with t_i small, t_j large; the padding column j = r+1 expands
    (1+b t_i)^{-(r'-i-1)} alone and is keyed by p.  windows = (p_max,
    q_max).  Every entry (p, q) is a multiple of b^{p+q}.
    """
    if not 1 <= i < j <= r_prime:
        raise ValueError("need 1 <= i < j <= r'")
    p_max, q_max = windows
    if j == r + 1:
        return _univariate(p_max, i + 1 - r_prime)
    di = r_prime - i
    dj = r_prime - j
    entries = {}
    for p in range(p_max + 1):
        for q in range(-p, q_max + 1):
            # fold prefactor expansions into the kernel closed form:
            # t_i picks s from (1+b t_i)^{-di}, t_j picks l from the other
            total = 0
            for s in range(p + 1):
                cs = binom_general(-di, s)
                if not cs:
                    continue
                for l in range(max(0, q), p + q - s + 1):
                    cl = binom_general(-dj, l)
                    if not cl:
                        continue
                    k = _dual_kernel_rational(q - l, p - s)
                    if k:
                        total += cs * cl * k
            if total:
                entries[(p, q)] = BetaScalar.beta_power(p + q, total)
    return MappingProxyType(entries)


@lru_cache(maxsize=None)
def g_table(i: int, j: int, r: int, windows) -> MappingProxyType:
    """Coefficients of z^p w^q in the dual-side kernel product.

    The generating product is (1+b z)^{-i} (1+b w)^{-j} (z-w)/(z+w+bzw) with
    z large and w ascending; the padding column j = r+1 expands (1+b z)^{-i}
    and is keyed by p.  windows = (p_max, q_max); rows live on q >= 0,
    p+q >= 0, and every entry (p, q) is a multiple of b^{p+q}.
    """
    p_max, q_max = windows
    if j == r + 1:
        return _univariate(p_max, -i)
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    entries = {}
    for q in range(q_max + 1):
        for p in range(-q, p_max + 1):
            total = 0
            for s in range(max(0, p), p + q + 1):
                cs = binom_general(-i, s)
                if not cs:
                    continue
                for l in range(0, min(q, p + q - s) + 1):
                    cl = binom_general(-j, l)
                    if not cl:
                        continue
                    k = _dual_kernel_rational(p - s, q - l)
                    if k:
                        total += cs * cl * k
            if total:
                entries[(p, q)] = BetaScalar.beta_power(p + q, total)
    return MappingProxyType(entries)
