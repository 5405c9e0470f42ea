"""Truncated symmetric functions in the power-sum basis over Q[b].

A PSeries stores finitely many coefficients c_lambda of sum c_lambda p_lambda
together with a degree bound D: the object represents its class modulo
(terms of degree > D), where deg p_lambda = |lambda|.  All arithmetic
truncates at D, so the bound is part of the value and mixed-bound arithmetic
is a bug (it raises).  Coefficients are polynomials in b: no operation here
divides by anything but a rational constant (the 1/m of z_exp).

The terms are flat: terms maps (lambda, k) to the nonzero Fraction c of the
term c*b^k*p_lambda, so a coefficient with several powers of b occupies
several keys.  A product or sum of two terms is then one Fraction operation
and an int add for the b-power; no BetaScalar is built inside the ring
operations.  BetaScalar appears only at the boundary: the public constructor
and the scalar operands of +, - and * accept int, Fraction or BetaScalar,
and coefficient() and sorted_items() hand coefficients out as BetaScalars.
A series times a BetaScalar walks the scalar's monomials, one shift of the
b-powers each.

Invariant: degree_bound is an int >= 0, and terms maps pairs (lambda, k),
lambda a partition in the canonical form of check_partition of weight <=
degree_bound and k an int >= 0, to nonzero Fractions.  The public
constructor enforces it on any input.  Sums, negation and products of series
that meet it build term dicts that meet it too: merge keeps keys canonical,
the product skips pairs above the bound, zero sums are dropped, and a
product of two nonzero Fractions is nonzero.  So those results are wrapped
by the private PSeries._trusted, which skips the checks.

A series is a value: terms must not be mutated after construction.  Shared
tables (gq_series, the lru_cached generators, the rows of HBraExpansion)
hand the same object to every caller, and each series carries a private
memo, the _deformed slot, that bases.to_deformed_basis fills with the
series' deformed-basis coordinates per flavor.  The memo lives exactly as
long as the series object; it is never part of == or hash, and only
pseries and bases touch it.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .partitions import check_degree_bound, check_partition, graded_key, merge
from .scalars import BetaScalar, _from_monomials, _grouped, _monomials

_SCALARS = (int, Fraction, BetaScalar)


def _by_partition(terms):
    """{lambda: [(k, c), ...]} from flat terms."""
    groups: dict = {}
    for (mu, k), c in terms.items():
        got = groups.get(mu)
        if got is None:
            groups[mu] = [(k, c)]
        else:
            got.append((k, c))
    return groups


class PSeries:
    __slots__ = ("terms", "degree_bound", "_deformed")

    def __init__(self, terms, degree_bound: int):
        """terms maps partitions to int, Fraction or BetaScalar values."""
        degree_bound = check_degree_bound(degree_bound)
        self.degree_bound = degree_bound
        clean: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for key, val in terms.items():
            key = check_partition(key)
            if sum(key) > degree_bound:
                continue
            for k, c in _monomials(val):
                clean[(key, k)] = c
        self.terms = clean
        self._deformed = None

    @classmethod
    def _trusted(cls, terms, degree_bound: int) -> "PSeries":
        """Wrap terms and degree_bound, which must already meet the invariant.

        Only this module calls it, on dicts its own arithmetic built.
        """
        out = object.__new__(cls)
        out.terms = terms
        out.degree_bound = degree_bound
        out._deformed = None
        return out

    @classmethod
    def _from_flat(cls, terms, degree_bound: int) -> "PSeries":
        """A series from flat terms {(lambda, k): rational}, checked as the
        public constructor checks: keys canonical, k >= 0, terms above the
        bound and zero values dropped."""
        degree_bound = check_degree_bound(degree_bound)
        clean = {}
        for (key, k), c in terms.items():
            key = check_partition(key)
            k = operator.index(k)
            if k < 0:
                raise ValueError(f"b^{k} is not in Q[b]")
            if sum(key) <= degree_bound and c:
                clean[(key, k)] = Fraction(c)
        return cls._trusted(clean, degree_bound)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, degree_bound: int) -> "PSeries":
        return cls({}, degree_bound)

    @classmethod
    def one(cls, degree_bound: int) -> "PSeries":
        return cls({(): 1}, degree_bound)

    @classmethod
    def p(cls, n: int, degree_bound: int) -> "PSeries":
        """The power sum p_n."""
        if n < 1:
            raise ValueError("power sums are indexed by positive integers")
        return cls({(n,): 1}, degree_bound)

    @classmethod
    def constant(cls, c, degree_bound: int) -> "PSeries":
        return cls({(): c}, degree_bound)

    # -- structure ------------------------------------------------------

    def coefficient(self, key) -> BetaScalar:
        key = check_partition(key)
        return _from_monomials((k, c) for (mu, k), c in self.terms.items() if mu == key)

    def is_zero(self) -> bool:
        return not self.terms

    def top_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(mu) for mu, _ in self.terms)

    def truncate(self, new_bound: int) -> "PSeries":
        new_bound = check_degree_bound(new_bound)
        if new_bound > self.degree_bound:
            raise ValueError("cannot raise a degree bound after the fact")
        return PSeries._trusted({key: c for key, c in self.terms.items()
                                 if sum(key[0]) <= new_bound}, new_bound)

    def _check_bound(self, other: "PSeries"):
        if self.degree_bound != other.degree_bound:
            raise ValueError(
                f"degree bounds differ: {self.degree_bound} vs {other.degree_bound}")

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = PSeries.constant(other, self.degree_bound)
        if not isinstance(other, PSeries):
            return NotImplemented
        self._check_bound(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            prev = out.get(key)
            if prev is None:
                out[key] = c
            else:
                s = prev + c
                if s:
                    out[key] = s
                else:
                    del out[key]
        return PSeries._trusted(out, self.degree_bound)

    __radd__ = __add__

    def __neg__(self):
        return PSeries._trusted({key: -c for key, c in self.terms.items()},
                                self.degree_bound)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = PSeries.constant(other, self.degree_bound)
        if not isinstance(other, PSeries):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return self._scaled(_monomials(other))
        if not isinstance(other, PSeries):
            return NotImplemented
        self._check_bound(other)
        bound = self.degree_bound
        # the right operand's partitions by degree, once: each left
        # partition then stops at the first degree that would pass the
        # bound (keys are distinct, so the sort never compares the lists)
        right = sorted((sum(kb), kb, vb) for kb, vb in _by_partition(other.terms).items())
        out: dict[tuple[tuple[int, ...], int], Fraction] = {}
        for ka, va in _by_partition(self.terms).items():
            room = bound - sum(ka)
            for db, kb, vb in right:
                if db > room:
                    break
                mu = merge(ka, kb)
                for ea, ca in va:
                    for eb, cb in vb:
                        key = (mu, ea + eb)
                        p = ca * cb
                        prev = out.get(key)
                        if prev is None:
                            out[key] = p
                        else:
                            s = prev + p
                            if s:
                                out[key] = s
                            else:
                                del out[key]
        return PSeries._trusted(out, bound)

    __rmul__ = __mul__

    def _scaled(self, monomials) -> "PSeries":
        """self * sum c*b^e over the (e, c) pairs, one shift per pair."""
        terms = self.terms
        if len(monomials) == 1:
            e, c = monomials[0]
            return PSeries._trusted({(mu, k + e): v * c for (mu, k), v in terms.items()},
                                    self.degree_bound)
        out = {}
        for e, c in monomials:
            for (mu, k), v in terms.items():
                key = (mu, k + e)
                s = out.get(key, 0) + v * c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return PSeries._trusted(out, self.degree_bound)

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative powers of a series are not defined here")
        out = PSeries.one(self.degree_bound)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = PSeries.constant(other, self.degree_bound)
        if not isinstance(other, PSeries):
            return NotImplemented
        return self.degree_bound == other.degree_bound and self.terms == other.terms

    def __hash__(self):
        return hash((self.degree_bound, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- ordered view and display ---------------------------------------------

    def sorted_items(self):
        """(lambda, BetaScalar coefficient) pairs, graded lex in lambda."""
        return sorted(_grouped(self.terms).items(), key=lambda kv: graded_key(kv[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for k, v in self.sorted_items():
            mon = "1" if not k else "p" + "".join(f"[{i}]" for i in k)
            vs = str(v)
            if ("+" in vs[1:]) or ("-" in vs[1:]) or "/" in vs:
                vs = f"({vs})"
            bits.append(vs + ("" if not k else "*" + mon))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def z_exp(parts):
    """Exponentiate sum_j parts[j] z^j within the same z-window.

    parts is a nonempty list of PSeries at one degree bound, each with zero
    constant term so the sum is nilpotent modulo the bound.  Returns the
    list of z^0..z^cap coefficients of the exponential, cap = len(parts)-1.
    """
    if not parts:
        raise ValueError("z_exp needs at least the z^0 slot")
    bound = parts[0].degree_bound
    cap = len(parts) - 1
    for f in parts:
        if any(not mu for mu, _ in f.terms):
            raise ValueError("z_exp needs coefficients with zero constant term")
    out = [PSeries.one(bound)] + [PSeries.zero(bound) for _ in range(cap)]
    term = list(out)
    for m in range(1, bound + 1):
        nxt = [PSeries.zero(bound) for _ in range(cap + 1)]
        for a, t in enumerate(term):
            if t.is_zero():
                continue
            for b in range(cap + 1 - a):
                if not parts[b].is_zero():
                    nxt[a + b] = nxt[a + b] + t * parts[b]
        term = [t * Fraction(1, m) for t in nxt]
        if all(t.is_zero() for t in term):
            break
        out = [s + t for s, t in zip(out, term)]
    return out
