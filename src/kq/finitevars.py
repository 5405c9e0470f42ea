"""Bridge between power-sum series and honest polynomials in x_1..x_n.

eval_finite substitutes p_k -> x_1^k + ... + x_n^k.  from_finite inverts it:
given a symmetric polynomial in enough variables (n >= degree bound, so that
no partition of the target degree is cut off), it recovers the power-sum
coordinates by eliminating monomial classes from the refinement-minimal end.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import multiplicities
from .pseries import PSeries
from .scalars import BetaScalar, ONE, ZERO


class FinitePoly:
    """Polynomial in x_0..x_{nvars-1} with BetaScalar coefficients.

    terms maps full-length exponent tuples to coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        clean = {}
        for k, v in (terms or {}).items():
            if len(k) != nvars or any(e < 0 for e in k):
                raise ValueError(f"bad exponent tuple {k} for {nvars} variables")
            v = v if isinstance(v, BetaScalar) else BetaScalar(v)
            if v:
                clean[tuple(k)] = v
        self.terms = clean

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, nvars, i, power=1):
        e = [0] * nvars
        e[i] = power
        return cls(nvars, {tuple(e): ONE})

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        if isinstance(other, FinitePoly):
            self._check(other)
            out = dict(self.terms)
            for k, v in other.terms.items():
                s = out.get(k, ZERO) + v
                if s:
                    out[k] = s
                else:
                    out.pop(k, None)
            return FinitePoly(self.nvars, out)
        return NotImplemented

    def __neg__(self):
        return FinitePoly(self.nvars, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FinitePoly):
            self._check(other)
            out: dict[tuple[int, ...], BetaScalar] = {}
            for ka, va in self.terms.items():
                for kb, vb in other.terms.items():
                    k = tuple(a + b for a, b in zip(ka, kb))
                    s = out.get(k, ZERO) + va * vb
                    if s:
                        out[k] = s
                    else:
                        out.pop(k, None)
            return FinitePoly(self.nvars, out)
        if isinstance(other, (int, BetaScalar)):
            c = other if isinstance(other, BetaScalar) else BetaScalar(other)
            return FinitePoly(self.nvars, {k: v * c for k, v in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FinitePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(k) for k in self.terms), default=None)

    def truncate_degree(self, bound: int) -> "FinitePoly":
        return FinitePoly(self.nvars,
                          {k: v for k, v in self.terms.items() if sum(k) <= bound})

    def coefficient(self, exps) -> BetaScalar:
        return self.terms.get(tuple(exps), ZERO)

    def specialize_vars(self, values) -> BetaScalar:
        """Evaluate at x_i = values[i] (BetaScalar or rational)."""
        if len(values) != self.nvars:
            raise ValueError("wrong number of values")
        vals = [v if isinstance(v, BetaScalar) else BetaScalar(v) for v in values]
        total = ZERO
        for k, c in self.terms.items():
            term = c
            for v, e in zip(vals, k):
                if e:
                    term = term * v ** e
            total = total + term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            mon = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                           for i, e in enumerate(k) if e) or "1"
            bits.append(f"({self.terms[k]})*{mon}")
        return " + ".join(bits)

    __repr__ = __str__


def power_sum_poly(k: int, nvars: int) -> FinitePoly:
    if k < 1:
        raise ValueError("power sums are indexed by positive integers")
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        terms[tuple(e)] = ONE
    return FinitePoly(nvars, terms)


@lru_cache(maxsize=None)
def _partition_power_poly(lam: tuple[int, ...], nvars: int) -> FinitePoly:
    # prefix recursion so (2,1,1) reuses the poly cached for (2,1)
    if not lam:
        return FinitePoly.constant(nvars, 1)
    return _partition_power_poly(lam[:-1], nvars) * power_sum_poly(lam[-1], nvars)


def eval_finite(f: PSeries, nvars: int) -> FinitePoly:
    """Substitute each p_k by the k-th power sum in nvars variables."""
    out = FinitePoly.zero(nvars)
    for key, val in f.terms.items():
        out = out + _partition_power_poly(key, nvars) * val
    return out


def _monomial_for(partition, nvars) -> tuple[int, ...]:
    return tuple(partition) + (0,) * (nvars - len(partition))


def from_finite(g: FinitePoly, degree_bound: int) -> PSeries:
    """Recover power-sum coordinates of a symmetric polynomial.

    Requires nvars >= degree_bound so the p_lambda with |lambda| <= bound stay
    linearly independent.  Raises ValueError when g has degrees above the
    bound or is not symmetric (the elimination then cannot terminate cleanly).
    """
    n = g.nvars
    if n < degree_bound:
        raise ValueError(f"need at least {degree_bound} variables, have {n}")
    top = g.total_degree()
    if top is not None and top > degree_bound:
        raise ValueError(f"degree {top} exceeds the requested bound {degree_bound}")

    residual = g
    coeffs: dict[tuple[int, ...], BetaScalar] = {}
    # Monomial classes of p_mu are mergings of mu, so each class's finest
    # (longest, then lex-smallest) surviving partition can only come from
    # p of that exact shape.  Peel those off until nothing remains.
    while residual:
        candidates = set()
        for exps in residual.terms:
            lam = tuple(sorted((e for e in exps if e), reverse=True))
            candidates.add(lam)
        lam = max(candidates, key=lambda t: (len(t), tuple(-x for x in t)))
        mono = _monomial_for(lam, n)
        c = residual.coefficient(mono)
        if not c:
            raise ValueError("input is not a symmetric polynomial")
        scale = 1
        for m in multiplicities(lam).values():
            scale *= factorial(m)
        c = c / scale
        coeffs[lam] = c
        residual = residual - eval_finite(PSeries({lam: c}, degree_bound), n)
        if any(tuple(sorted((e for e in k if e), reverse=True)) == lam
               for k in residual.terms):
            raise ValueError("input is not a symmetric polynomial")
    return PSeries(coeffs, degree_bound)
