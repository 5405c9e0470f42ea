"""Bridge between power-sum series and honest polynomials in x_1..x_n.

from_finite reads a symmetric polynomial back into power sums, inverting
the substitution p_k -> x_1^k + ... + x_n^k (eval_finite, which only the
tests need and tests/referees.py keeps), with one pass over the terms and a
triangular solve.  The pass checks symmetry and reads each class's
m-coordinate off its dominant monomial x^lam.  The solve uses that x^lam
occurs in p_mu only when lam coarsens mu, with coefficient prod m_i(mu)!
at lam = mu and an integer that does not depend on n otherwise (Macdonald,
Symmetric Functions and Hall Polynomials, I.6).

A FinitePoly keeps one Fraction per (exponent tuple, power of b); a PSeries
keeps an int per (partition, power of b).  Symmetry and the solve hold one
power of b at a time, so from_finite works on Fractions throughout; only
coefficient() and the constructor's input are BetaScalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

from .partitions import check_degree_bound, multiplicities, partitions_upto
from .pseries import PSeries
from .scalars import BetaScalar, _from_monomials, _grouped, _monomials


class FinitePoly:
    """Polynomial in x_0..x_{nvars-1} with coefficients in Q[b].

    terms is flat: it maps (exps, k), exps a full-length
    exponent tuple and k an int >= 0, to the nonzero Fraction c of the term
    c*b^k*x^exps.  The constructor takes {exps: int, Fraction or
    BetaScalar}, and coefficient() hands a coefficient out as a BetaScalar.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        flat = {}
        for exps, v in (terms or {}).items():
            for k, c in _monomials(v):
                flat[(tuple(exps), k)] = c
        self._fill(nvars, flat)

    @classmethod
    def _from_flat(cls, nvars: int, terms) -> "FinitePoly":
        """A polynomial from flat terms {(exps, k): Fraction}, checked as
        the constructor checks; zero values are dropped."""
        out = object.__new__(cls)
        out._fill(nvars, terms)
        return out

    def _fill(self, nvars, flat):
        nvars = check_degree_bound(nvars, "variable count")
        for exps, k in flat:
            if len(exps) != nvars or any(e < 0 for e in exps) or k < 0:
                raise ValueError(f"bad term x^{exps} b^{k} for {nvars} variables")
        self.nvars = nvars
        self.terms = {key: c for key, c in flat.items() if c}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        if isinstance(other, FinitePoly):
            self._check(other)
            out = dict(self.terms)
            for key, c in other.terms.items():
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            return FinitePoly._from_flat(self.nvars, out)
        return NotImplemented

    def __neg__(self):
        return FinitePoly._from_flat(self.nvars, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FinitePoly):
            self._check(other)
            pairs = [(kb, eb, cb) for (kb, eb), cb in other.terms.items()]
            out: dict = {}
            for (ka, ea), ca in self.terms.items():
                for kb, eb, cb in pairs:
                    key = (tuple(a + b for a, b in zip(ka, kb)), ea + eb)
                    s = out.get(key, 0) + ca * cb
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
            return FinitePoly._from_flat(self.nvars, out)
        if isinstance(other, (int, Fraction, BetaScalar)):
            out = {}
            for e, c in _monomials(other):
                for (exps, k), v in self.terms.items():
                    key = (exps, k + e)
                    out[key] = out.get(key, 0) + v * c
            return FinitePoly._from_flat(self.nvars, out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FinitePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(exps) for exps, _ in self.terms), default=None)

    def coefficient(self, exps) -> BetaScalar:
        exps = tuple(exps)
        return _from_monomials((k, c) for (e, k), c in self.terms.items() if e == exps)

    def __str__(self):
        if not self.terms:
            return "0"
        coeffs = _grouped(self.terms)
        bits = []
        for k in sorted(coeffs, key=lambda t: (sum(t), t), reverse=True):
            mon = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                           for i, e in enumerate(k) if e) or "1"
            bits.append(f"({coeffs[k]})*{mon}")
        return " + ".join(bits)

    __repr__ = __str__


def _class_of(exps) -> tuple[int, ...]:
    """The partition of a monomial: its nonzero exponents, sorted down."""
    return tuple(sorted((e for e in exps if e), reverse=True))


@lru_cache(maxsize=None)
def _orbit_size(lam: tuple[int, ...], nvars: int) -> int:
    """Monomials in the class of lam: nvars! / prod m_i!, zeros counted."""
    out = factorial(nvars) // factorial(nvars - len(lam))
    for m in multiplicities(lam).values():
        out //= factorial(m)
    return out


@lru_cache(maxsize=None)
def _p_to_m(mu: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """{lam: coefficient of x^lam in p_mu}, for any number of variables.

    Only the first len(mu) variables can be reached, so the count does not
    depend on nvars.  The DP assigns parts of mu to slots one at a time and
    keeps sorted slot-sum tuples: a sorted state stands for its whole orbit,
    and from any member of it each slot holding value v leads to the same
    sorted successor.  The count reaching a sorted state is spread evenly
    over its orbit, so dividing by the orbit size leaves the count of the
    single monomial x^lam.
    """
    r = len(mu)
    states = {(0,) * r: 1}
    for part in mu:
        grown: dict[tuple[int, ...], int] = {}
        for state, count in states.items():
            for v, m in multiplicities(state).items():
                i = state.index(v)
                nxt = tuple(sorted(state[:i] + (v + part,) + state[i + 1:],
                                   reverse=True))
                grown[nxt] = grown.get(nxt, 0) + count * m
        states = grown
    out = {}
    for state, count in states.items():
        lam = _class_of(state)
        out[lam] = count // _orbit_size(lam, r)
    return out


def from_finite(g: FinitePoly, degree_bound: int) -> PSeries:
    """Recover power-sum coordinates of a symmetric polynomial.

    Requires nvars >= degree_bound so the p_lambda with |lambda| <= bound
    stay linearly independent, and total degree <= bound.  g is symmetric
    exactly when each monomial class lam (nonzero exponents sorted down) has
    all of its nvars! / prod m_i! members, zeros counted as a part, and each
    carries the coefficient of x^lam; anything else raises ValueError.
    """
    n = g.nvars
    if n < degree_bound:
        raise ValueError(f"need at least {degree_bound} variables, have {n}")
    top = g.total_degree()
    if top is not None and top > degree_bound:
        raise ValueError(f"degree {top} exceeds the requested bound {degree_bound}")

    # symmetry holds one power of b at a time, so classes are (lam, k);
    # rest[lam][k] starts as the coefficient of x^lam b^k
    seen: dict = {}
    rest: dict = {}
    terms = g.terms
    for (exps, k), c in terms.items():
        lam = _class_of(exps)
        if (lam, k) not in seen:
            seen[(lam, k)] = 0
            dominant = terms.get((lam + (0,) * (n - len(lam)), k), 0)
            rest.setdefault(lam, {})[k] = dominant
        if c != rest[lam][k]:
            raise ValueError("input is not a symmetric polynomial")
        seen[(lam, k)] += 1
    if any(count != _orbit_size(lam, n) for (lam, _), count in seen.items()):
        raise ValueError("input is not a symmetric polynomial")

    # p_mu meets m_lam only for lam = mu or lam coarser (so shorter), hence
    # a_mu is final once every longer partition has been solved.  A class
    # absent from g has m-coordinate 0, yet finer p_mu can leave a nonzero
    # remainder there, so the walk covers every partition up to the bound.
    coeffs: dict = {}
    for mu in sorted(partitions_upto(degree_bound), key=len, reverse=True):
        powers = rest.pop(mu, None)
        if not powers:
            continue
        row = _p_to_m(mu)
        lead = row[mu]
        for k, r in powers.items():
            if not r:
                continue
            c = r / lead
            coeffs[(mu, k)] = c
            for lam, count in row.items():
                if lam != mu:
                    got = rest.setdefault(lam, {})
                    got[k] = got.get(k, 0) - c * count
    return PSeries._from_flat(coeffs, degree_bound)
