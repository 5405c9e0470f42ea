"""Region-committed Laurent expansions and the kernel coefficient tables.

A rational kernel like (z-w)/(z+w+b) has different Laurent expansions in
different regions; which one is meant is part of the object, not a detail.
A LaurentBlock therefore fixes an ordered variable list (first variable
largest: |z_1| >> |z_2| >> ...) and per-variable exponent windows.  Outside
its window a block's coefficients are either known to vanish (flagged) or
unknown (truncated away); multiplication propagates exactness honestly, so
extracting a coefficient never silently uses a truncated tail.

The f/g coefficient tables that feed the Pfaffian formulas are assembled
from closed-form expansions of the two kernels; the generic block machinery
cross-checks them in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .scalars import BetaScalar, ZERO, binom_general

_INF = 10 ** 9


def _clip(v):
    return max(-_INF, min(_INF, v))


class LaurentBlock:
    """Truncated Laurent object in ordered variables.

    window[i] = (lo, hi) bounds the stored exponents of variable i.
    known_below[i] / known_above[i] record whether coefficients outside the
    window on that side are known to be zero (True) or merely not computed.
    """

    __slots__ = ("variables", "window", "known_below", "known_above",
                 "terms", "ring_zero")

    def __init__(self, variables, window, terms, ring_zero,
                 known_below=None, known_above=None):
        self.variables = tuple(variables)
        m = len(self.variables)
        self.window = tuple((int(lo), int(hi)) for lo, hi in window)
        if len(self.window) != m:
            raise ValueError("window arity mismatch")
        self.known_below = tuple(known_below or (False,) * m)
        self.known_above = tuple(known_above or (False,) * m)
        self.ring_zero = ring_zero
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != m:
                raise ValueError("exponent arity mismatch")
            for e, (lo, hi) in zip(exps, self.window):
                if not lo <= e <= hi:
                    raise ValueError(f"stored exponent {exps} outside window")
            if c != ring_zero:
                clean[exps] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_polynomial(cls, variables, terms, ring_zero):
        """A complete block: support is finite and fully stored."""
        m = len(tuple(variables))
        if terms:
            lo = [min(e[i] for e in terms) for i in range(m)]
            hi = [max(e[i] for e in terms) for i in range(m)]
        else:
            lo = [0] * m
            hi = [0] * m
        return cls(variables, list(zip(lo, hi)), terms, ring_zero,
                   known_below=(True,) * m, known_above=(True,) * m)

    # -- inspection ---------------------------------------------------------

    def coefficient(self, exps):
        """Exact coefficient at the exponent vector; errors if unknowable."""
        exps = tuple(int(e) for e in exps)
        for e, (lo, hi), kb, ka in zip(exps, self.window,
                                       self.known_below, self.known_above):
            if e < lo and not kb:
                raise ValueError(f"exponent {exps} below window, value unknown")
            if e > hi and not ka:
                raise ValueError(f"exponent {exps} above window, value unknown")
        return self.terms.get(exps, self.ring_zero)

    def _compatible(self, other):
        if self.variables != other.variables:
            raise ValueError("blocks must share the same ordered variables")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self._compatible(other)
        m = len(self.variables)
        window, kb, ka = [], [], []
        for i in range(m):
            alo, ahi = self.window[i]
            blo, bhi = other.window[i]
            akb, bkb = self.known_below[i], other.known_below[i]
            aka, bka = self.known_above[i], other.known_above[i]
            known_lo = max(-_INF if akb else alo, -_INF if bkb else blo)
            known_hi = min(_INF if aka else ahi, _INF if bka else bhi)
            new_kb = akb and bkb
            new_ka = aka and bka
            lo = min(alo, blo) if new_kb else known_lo
            hi = max(ahi, bhi) if new_ka else known_hi
            if lo > hi:
                raise ValueError("sum has an empty exactness window")
            window.append((lo, hi))
            kb.append(new_kb)
            ka.append(new_ka)
        terms = {}
        for src in (self.terms, other.terms):
            for exps, c in src.items():
                if all(lo <= e <= hi for e, (lo, hi) in zip(exps, window)):
                    prev = terms.get(exps)
                    terms[exps] = c if prev is None else prev + c
        return LaurentBlock(self.variables, window, terms, self.ring_zero, kb, ka)

    def __neg__(self):
        return LaurentBlock(self.variables, self.window,
                            {k: -v for k, v in self.terms.items()},
                            self.ring_zero, self.known_below, self.known_above)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return LaurentBlock(self.variables, self.window,
                            {k: v * c for k, v in self.terms.items()},
                            self.ring_zero, self.known_below, self.known_above)

    def __mul__(self, other):
        self._compatible(other)
        m = len(self.variables)
        window, kb, ka = [], [], []
        for i in range(m):
            alo, ahi = self.window[i]
            blo, bhi = other.window[i]
            akb, bkb = self.known_below[i], other.known_below[i]
            aka, bka = self.known_above[i], other.known_above[i]
            # possibly-nonzero ranges (unknown zones count as possibly nonzero)
            pa = (alo if akb else -_INF, ahi if aka else _INF)
            pb = (blo if bkb else -_INF, bhi if bka else _INF)
            bad_hi = -_INF  # top of the "poisoned from below" zone
            bad_lo = _INF   # bottom of the "poisoned from above" zone
            if not akb:
                bad_hi = max(bad_hi, _clip(alo - 1 + pb[1]))
            if not bkb:
                bad_hi = max(bad_hi, _clip(blo - 1 + pa[1]))
            if not aka:
                bad_lo = min(bad_lo, _clip(ahi + 1 + pb[0]))
            if not bka:
                bad_lo = min(bad_lo, _clip(bhi + 1 + pa[0]))
            new_kb = akb and bkb
            new_ka = aka and bka
            lo = alo + blo if new_kb else bad_hi + 1
            hi = ahi + bhi if new_ka else bad_lo - 1
            if lo > hi:
                raise ValueError(
                    f"product window empty for variable {self.variables[i]}")
            window.append((lo, hi))
            kb.append(new_kb)
            ka.append(new_ka)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if all(lo <= e <= hi for e, (lo, hi) in zip(exps, window)):
                    c = ca * cb
                    prev = terms.get(exps)
                    terms[exps] = c if prev is None else prev + c
        return LaurentBlock(self.variables, window, terms, self.ring_zero, kb, ka)

    def __eq__(self, other):
        return (isinstance(other, LaurentBlock)
                and self.variables == other.variables
                and self.terms == other.terms)

    def restrict(self, window):
        """Narrow the window (never widen); keeps exactness flags."""
        new = []
        for (lo, hi), (wlo, whi) in zip(self.window, window):
            if wlo < lo or whi > hi:
                raise ValueError("restrict cannot widen a window")
            new.append((wlo, whi))
        terms = {e: c for e, c in self.terms.items()
                 if all(lo <= x <= hi for x, (lo, hi) in zip(e, new))}
        return LaurentBlock(self.variables, new, terms, self.ring_zero,
                            self.known_below, self.known_above)

    def __repr__(self):
        win = ", ".join(f"{v}:[{lo},{hi}]" for v, (lo, hi)
                        in zip(self.variables, self.window))
        return f"LaurentBlock({win}; {len(self.terms)} terms)"


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


def two_point_kernel(big_var: str, small_var: str, window) -> LaurentBlock:
    """Block form of (z-w)/(z+w+b) on |big| >> |small|.

    window = ((z_lo, z_hi), (w_lo, w_hi)); the kernel has no positive powers
    of the big variable and no negative powers of the small one.
    """
    (zlo, zhi), (wlo, whi) = window
    if zhi > 0:
        raise ValueError("kernel has no positive powers of the big variable")
    if wlo < 0:
        raise ValueError("kernel has no negative powers of the small variable")
    terms = {}
    for p in range(zlo, zhi + 1):
        for q in range(wlo, min(whi, -p) + 1):
            c = kernel_coefficient(p, q)
            if c:
                terms[(p, q)] = c
    return LaurentBlock(
        (big_var, small_var), ((zlo, zhi), (wlo, whi)), terms, ZERO,
        known_below=(False, wlo <= 0),
        # w-coefficients above the window pair only with z below it
        known_above=(zhi >= 0, whi >= -zlo),
    )


def dual_two_point_kernel(big_var: str, small_var: str, window) -> LaurentBlock:
    """Block form of (z-w)/(z+w+bzw), ascending in the small variable."""
    (zlo, zhi), (wlo, whi) = window
    if zhi > 0:
        raise ValueError("kernel has no positive powers of the big variable")
    if wlo < 0:
        raise ValueError("kernel has no negative powers of the small variable")
    terms = {}
    for p in range(zlo, zhi + 1):
        for q in range(max(wlo, -p), whi + 1):
            c = dual_kernel_coefficient(p, q)
            if c:
                terms[(p, q)] = c
    return LaurentBlock(
        (big_var, small_var), ((zlo, zhi), (wlo, whi)), terms, ZERO,
        known_below=(False, wlo <= 0),
        known_above=(zhi >= 0, False),
    )


def binomial_block(variables, index: int, k: int, depth: int,
                   inverse_powers=False) -> LaurentBlock:
    """(1 + b v)^k (or (1 + b/v)^k) as a one-variable block embedded in
    a multi-variable layout, expanded to |exponent| <= depth."""
    m = len(tuple(variables))
    terms = {}
    top = k if (k >= 0 and k <= depth) else depth
    for j in range(top + 1):
        c = binom_general(k, j)
        if not c:
            continue
        exps = [0] * m
        exps[index] = -j if inverse_powers else j
        terms[tuple(exps)] = BetaScalar.beta_power(j, c)
    complete = 0 <= k <= depth  # a genuine polynomial fully captured
    window = []
    kb, ka = [], []
    for i in range(m):
        if i != index:
            window.append((0, 0))
            kb.append(True)
            ka.append(True)
        elif inverse_powers:
            window.append((-top, 0))
            kb.append(complete)
            ka.append(True)
        else:
            window.append((0, top))
            kb.append(True)
            ka.append(complete)
    return LaurentBlock(variables, window, terms, ZERO, kb, ka)


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

    def value(self, p: int, q: int | None = None) -> BetaScalar:
        if self.univariate:
            if q is not None:
                raise ValueError("univariate table takes a single exponent")
            return self.entries.get(p, ZERO)
        return self.entries.get((p, q), ZERO)


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
