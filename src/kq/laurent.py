"""The two kernels and the coefficient tables of the Pfaffian formulas.

A rational kernel like (z-w)/(z+w+b) has different Laurent expansions in
different regions; which one is meant is part of the object, not a detail.
Each kernel here is expanded in one fixed region, given with its closed
form.  The f/g coefficient tables that feed the Pfaffian formulas are
assembled from those closed forms; tests/referees.py cross-checks the
tables against generic region-committed block expansions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import BetaScalar, ZERO, binom_general


# -- the two kernels -------------------------------------------------------

def kernel_coefficient(p: int, q: int) -> BetaScalar:
    """[z^p w^q] of (z-w)/(z+w+b) expanded on |z| >> |w| >> |b|.

    Derived from (z+w+b)^{-1} = sum_k (-1)^k (w+b)^k z^{-k-1}; support is
    p <= 0 <= q with q <= -p.
    """
    if p > 0 or q < 0 or q > -p:
        return ZERO
    k1 = -p
    total = ZERO
    if q <= k1:
        c = binom_general(k1, q)
        if k1 % 2:
            c = -c
        total = total + BetaScalar.beta_power(k1 - q, c)
    k2 = -p - 1
    if k2 >= 0 and 1 <= q <= k2 + 1:
        c = binom_general(k2, q - 1)
        if k2 % 2 == 0:
            c = -c
        total = total + BetaScalar.beta_power(k2 - q + 1, c)
    return total


def dual_kernel_coefficient(p: int, q: int) -> BetaScalar:
    """[z^p w^q] of (z-w)/(z+w+bzw) expanded on |z| >> |w|, ascending in w.

    Support is q >= 0 and -q <= p <= 0; the closed form collapses to
    (-1)^q b^{p+q} (C(q,-p) + C(q-1,-p-1)).
    """
    if q < 0 or p > 0 or p < -q:
        return ZERO
    c = binom_general(q, -p) + binom_general(q - 1, -p - 1)
    if q % 2:
        c = -c
    return BetaScalar.beta_power(p + q, c)


# -- coefficient tables for the Pfaffian formulas ---------------------------

@dataclass(frozen=True)
class KernelCoeffTable:
    """Window of f^{i,j}_{p,q} (kind "f") or g^{i,j}_{p,q} (kind "g").

    Univariate tables (the padding column j = r+1) store keys p; bivariate
    ones store (p, q).
    """
    kind: str
    i: int
    j: int
    univariate: bool
    entries: dict


@lru_cache(maxsize=None)
def f_table(i: int, j: int, r: int, r_prime: int, windows) -> KernelCoeffTable:
    """Coefficients of t_i^p t_j^q in the GQ-side kernel product.

    The generating product is
        (1+b t_i)^{-(r'-i)} (1+b t_j)^{-(r'-j)} (t_j-t_i)/(t_i+t_j+b t_i t_j)
    expanded with t_i small, t_j large; the padding column j = r+1 expands
    (1+b t_i)^{-(r'-i-1)} alone.  windows = (p_max, q_max).
    """
    if not 1 <= i < j <= r_prime:
        raise ValueError("need 1 <= i < j <= r'")
    p_max, q_max = windows
    if j == r + 1:
        entries = {}
        for p in range(p_max + 1):
            c = binom_general(i + 1 - r_prime, p)
            if c:
                entries[p] = BetaScalar.beta_power(p, c)
        return KernelCoeffTable("f", i, j, True, entries)
    di = r_prime - i
    dj = r_prime - j
    entries = {}
    for p in range(p_max + 1):
        for q in range(-p, q_max + 1):
            # fold prefactor expansions into the kernel closed form:
            # t_i picks s from (1+b t_i)^{-di}, t_j picks l from the other
            total = ZERO
            for s in range(p + 1):
                cs = binom_general(-di, s)
                if not cs:
                    continue
                for l in range(max(0, q), p + q - s + 1):
                    cl = binom_general(-dj, l)
                    if not cl:
                        continue
                    k = dual_kernel_coefficient(q - l, p - s)
                    if k:
                        total = total + (BetaScalar.beta_power(s + l, cs * cl) * k)
            if total:
                entries[(p, q)] = total
    return KernelCoeffTable("f", i, j, False, entries)


@lru_cache(maxsize=None)
def g_table(i: int, j: int, r: int, windows) -> KernelCoeffTable:
    """Coefficients of z^p w^q in the dual-side kernel product.

    The generating product is (1+b z)^{-i} (1+b w)^{-j} (z-w)/(z+w+bzw) with
    z large and w ascending; the padding column j = r+1 expands (1+b z)^{-i}.
    windows = (p_max, q_max); rows live on q >= 0, p+q >= 0.
    """
    p_max, q_max = windows
    if j == r + 1:
        entries = {}
        for p in range(p_max + 1):
            c = binom_general(-i, p)
            if c:
                entries[p] = BetaScalar.beta_power(p, c)
        return KernelCoeffTable("g", i, j, True, entries)
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    entries = {}
    for q in range(q_max + 1):
        for p in range(-q, p_max + 1):
            total = ZERO
            for s in range(max(0, p), p + q + 1):
                cs = binom_general(-i, s)
                if not cs:
                    continue
                for l in range(0, min(q, p + q - s) + 1):
                    cl = binom_general(-j, l)
                    if not cl:
                        continue
                    k = dual_kernel_coefficient(p - s, q - l)
                    if k:
                        total = total + (BetaScalar.beta_power(s + l, cs * cl) * k)
            if total:
                entries[(p, q)] = total
    return KernelCoeffTable("g", i, j, False, entries)
