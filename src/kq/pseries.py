"""Truncated symmetric functions in the power-sum basis over Q[b].

A PSeries stands for sum c_lambda p_lambda together with a degree bound D:
the object represents its class modulo (terms of degree > D), where
deg p_lambda = |lambda|.  All arithmetic truncates at D, so the bound is
part of the value and mixed-bound arithmetic is a bug (it raises).

The store is integral, in the basis p~_lambda = p_lambda / z_lambda, where
GQ_lambda, gp_lambda and the one-row tables have coordinates in Z[b], and
o_lambda and the deformed images a power of 2 below them: terms maps
(lambda, k) to the nonzero int n of the term (n / den) b^k p~_lambda, with
one int den >= 1 per series.  There p~_mu p~_nu = prod_i C(m_i(mu) +
m_i(nu), m_i(mu)) p~_(mu u nu), a multiplicity cached once per pair of
partitions, so a product multiplies ints; a sum of two series rescales to
the lcm of their dens; every other sum c b^e f, a scalar multiple included,
is one pass of combination with one running den; and exponentials are
closed forms (exp_power_sums).  Fractions and BetaScalars appear only at
the boundary: the public constructor and _from_flat take coefficients of
p_lambda, and coefficient() and sorted_items() hand them out as BetaScalars.

Invariant: degree_bound is an int >= 0; terms maps pairs (lambda, k),
lambda a partition in the canonical form of check_partition of weight <=
degree_bound and k an int >= 0, to nonzero ints; den is an int >= 1 with
gcd(den, *numerators) == 1, so 1 for the zero series, and == and hash
compare values.  The public constructor enforces it on any input.  The
ring operations keep it, once _reduced has divided out a common factor:
the pair cache keeps keys canonical, the product skips pairs above the
bound, and zero sums are dropped; combination too.  So their results are
wrapped by the private PSeries._trusted, which skips the checks.

A series is a value: terms must not be mutated after construction.  Shared
tables (gq_series, the lru_cached generators, the Q_mu of hexpansion)
hand the same object to every caller, and each series carries a private
memo, the _deformed slot, that bases.to_deformed_basis fills with the
series' deformed-basis coordinates per flavor.  The memo lives exactly as
long as the series object; it is never part of == or hash, and only
pseries and bases touch it.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from math import gcd, lcm

from .partitions import (check_degree_bound, check_partition, graded_key, merge,
                         partitions_upto, z_lambda)
from .scalars import BetaScalar, _from_monomials, _monomials

_SCALARS = (int, Fraction, BetaScalar)

# mu -> {nu: (mu u nu, z_(mu u nu) / (z_mu z_nu))}, filled by products
_PAIRS: dict = {}


def _by_partition(terms):
    """{lambda: [(k, n), ...]} from flat terms."""
    groups: dict = {}
    for (mu, k), c in terms.items():
        groups.setdefault(mu, []).append((k, c))
    return groups


def _reduced(terms, den):
    """(terms, den) divided by gcd(den, *terms); the zero series gets den 1."""
    if den == 1 or not terms:
        return terms, 1
    g = den
    for v in terms.values():
        g = gcd(g, v)
        if g == 1:
            return terms, den
    return {key: v // g for key, v in terms.items()}, den // g


class PSeries:
    __slots__ = ("terms", "den", "degree_bound", "_deformed")

    def __init__(self, terms, degree_bound: int):
        """terms maps partitions to int, Fraction or BetaScalar values."""
        flat = {(check_partition(key), k): c
                for key, val in terms.items() for k, c in _monomials(val)}
        made = PSeries._from_flat(flat, degree_bound)
        self.terms, self.den, self.degree_bound = made.terms, made.den, made.degree_bound
        self._deformed = None

    @classmethod
    def _trusted(cls, terms, den: int, degree_bound: int) -> "PSeries":
        """Wrap terms, den and degree_bound, which must already meet the
        invariant; only this module calls it, on dicts its own arithmetic built."""
        out = object.__new__(cls)
        out.terms = terms
        out.den = den
        out.degree_bound = degree_bound
        out._deformed = None
        return out

    @classmethod
    def _from_flat(cls, terms, degree_bound: int) -> "PSeries":
        """A series from flat terms {(lambda, k): rational coefficient of
        b^k p_lambda}, checked as the public constructor checks: keys
        canonical, k >= 0, terms above the bound and zero values dropped."""
        degree_bound = check_degree_bound(degree_bound)
        scaled = {}
        for (key, k), c in terms.items():
            key = check_partition(key)
            k = operator.index(k)
            if k < 0:
                raise ValueError(f"b^{k} is not in Q[b]")
            if sum(key) <= degree_bound and c:
                scaled[(key, k)] = Fraction(c) * z_lambda(key)
        den = lcm(*(c.denominator for c in scaled.values()))
        terms = {key: c.numerator * (den // c.denominator) for key, c in scaled.items()}
        return cls._trusted(*_reduced(terms, den), degree_bound)

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
        scale = self.den * z_lambda(key)
        return _from_monomials((k, Fraction(n, scale))
                               for (mu, k), n in self.terms.items() if mu == key)

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
        kept = {key: c for key, c in self.terms.items() if sum(key[0]) <= new_bound}
        return PSeries._trusted(*_reduced(kept, self.den), new_bound)

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
        den, out, theirs = self.den, dict(self.terms), other.terms
        if other.den != den:
            den = lcm(den, other.den)
            mine, scale = den // self.den, den // other.den
            out = {key: c * mine for key, c in out.items()}
            theirs = {key: c * scale for key, c in theirs.items()}
        for key, c in theirs.items():
            s = out.get(key, 0) + c  # c is nonzero, so s == 0 only on a stored key
            if s:
                out[key] = s
            else:
                del out[key]
        return PSeries._trusted(*_reduced(out, den), self.degree_bound)

    __radd__ = __add__

    def __neg__(self):
        return PSeries._trusted({key: -c for key, c in self.terms.items()},
                                self.den, self.degree_bound)

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
            return combination(((self, e, c) for e, c in _monomials(other)), self.degree_bound)
        if not isinstance(other, PSeries):
            return NotImplemented
        self._check_bound(other)
        bound = self.degree_bound
        # the right operand's partitions by degree, once: each left
        # partition then stops at the first degree that would pass the
        # bound (keys are distinct, so the sort never compares the lists)
        right = sorted((sum(kb), kb, vb) for kb, vb in _by_partition(other.terms).items())
        out: dict[tuple[tuple[int, ...], int], int] = {}
        for ka, va in _by_partition(self.terms).items():
            room = bound - sum(ka)
            pairs = _PAIRS.setdefault(ka, {})
            for db, kb, vb in right:
                if db > room:
                    break
                got = pairs.get(kb)
                if got is None:
                    mu = merge(ka, kb)
                    got = pairs[kb] = (mu, z_lambda(mu) // (z_lambda(ka) * z_lambda(kb)))
                mu, m = got
                for ea, ca in va:
                    ca *= m
                    for eb, cb in vb:
                        key = (mu, ea + eb)
                        s = out.get(key, 0) + ca * cb
                        if s:
                            out[key] = s
                        else:
                            del out[key]
        return PSeries._trusted(*_reduced(out, self.den * other.den), bound)

    __rmul__ = __mul__

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
        return (self.degree_bound == other.degree_bound and self.den == other.den
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.degree_bound, self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # -- ordered view and display ---------------------------------------------

    def sorted_items(self):
        """(lambda, BetaScalar coefficient) pairs, graded lex in lambda."""
        return [(mu, _from_monomials((k, Fraction(n, self.den * z_lambda(mu)))
                                     for k, n in got))
                for mu, got in sorted(_by_partition(self.terms).items(),
                                      key=lambda kv: graded_key(kv[0]))]

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


def combination(parts, degree_bound: int) -> PSeries:
    """sum c b^e f over the triples (f, e, c) of parts, in one pass.

    f is a PSeries at degree_bound, e an int >= 0 and c an int or a
    Fraction; parts may be any iterable, and a zero c or a zero f is
    skipped.  The sum keeps one running den and rescales what it holds only
    when a part's f.den * c.denominator does not divide it.
    """
    den, out = 1, {}
    for f, e, c in parts:
        if f.degree_bound != degree_bound:
            raise ValueError(f"degree bounds differ: {degree_bound} vs {f.degree_bound}")
        if e < 0:
            raise ValueError(f"b^{e} is not in Q[b]")
        if not c or not f.terms:
            continue
        part_den = f.den * c.denominator
        if den % part_den:
            grown = lcm(den, part_den)
            up, den = grown // den, grown
            for key in out:
                out[key] *= up
        scale = c.numerator * (den // part_den)
        for (mu, k), v in f.terms.items():
            key = (mu, k + e)
            s = out.get(key, 0) + v * scale
            if s:
                out[key] = s
            else:
                del out[key]
    return PSeries._trusted(*_reduced(out, den), degree_bound)


def exp_power_sums(logs, cap: int, degree_bound: int) -> list[PSeries]:
    """The z^0..z^cap coefficients of exp(sum_n c_n p_n / n), at degree_bound.

    logs maps n to c_n as {(j, e): int coefficient of z^j b^e}, j, e >= 0, or
    leaves c_n = 0 out.  The closed form is sum_mu (prod_i c_(mu_i)) p~_mu
    (Macdonald, Symmetric Functions and Hall Polynomials, I (2.14)); each
    product extends that of mu without its last part, cut at z^cap.
    """
    degree_bound = check_degree_bound(degree_bound)
    slots: list[dict] = [{} for _ in range(cap + 1)]
    products = {(): {(0, 0): 1}}
    for mu in partitions_upto(degree_bound):
        if mu:
            prod: dict = {}
            for (j, e), u in products[mu[:-1]].items():
                for (jn, en), v in logs.get(mu[-1], {}).items():
                    if j + jn <= cap:
                        prod[(j + jn, e + en)] = prod.get((j + jn, e + en), 0) + u * v
            products[mu] = {key: v for key, v in prod.items() if v}
        for (j, e), u in products[mu].items():
            slots[j][(mu, e)] = u
    return [PSeries._trusted(terms, 1, degree_bound) for terms in slots]
