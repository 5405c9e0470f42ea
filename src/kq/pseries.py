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
partitions, so a product multiplies ints; every sum of terms c b^e f, a
sum or difference of two series and a scalar multiple included, is one
pass of combination with one running den; and the one-row tables of gq
and dualq read their coordinates off the closed form of an exponential,
one int row of z-coefficients per partition (_exp_products).  Fractions
appear only at the boundary: the public constructor takes coefficients of
p_lambda, and sorted_items() hands each out as a BetaScalar, a value that
holds the coefficient's b-power terms and does no arithmetic.

Series add to and subtract series only, so f + 1 raises TypeError; an
int, Fraction or BetaScalar scales a series, and f == c compares f with
the constant c.  A series has no printer: sorted_items() is its one
ordered view.

One store class, _Store, holds this format for series, Fock states
(fock.FockState) and Schur coordinates (finitevars.SymmetricPoly); each
adds its own key checks and fields, the slots it declares that are not
private.  _Store's invariant: terms maps (key, k), k an int >= 0, to
nonzero ints, and den is an int >= 1 with gcd(den, *numerators) == 1, so 1
for the zero value; == and hash compare the class, the fields, den and
terms.  There are two ways into each store.  Its public constructor, the
one checked entry, enforces the invariant on any input: it checks each key
once and makes each coefficient a Fraction once (scalars._coefficient, the
one rule for an outside coefficient), and _Store._settle clears their
denominators.  The one trusted entry, _Store._reduced(terms, den,
*fields), checks nothing else but drops zero numerators and divides out
the common factor; it wraps what the library's own arithmetic built, whose
terms meet the invariant bar zeros and that factor, and takes the store's
own slots after den.  So a builder only accumulates: a sum that cancels
leaves the store through the trusted entry, in one place.

A series adds: degree_bound is an int >= 0, and each key lambda is a
partition in the canonical form of check_partition of weight <=
degree_bound.  Its trusted entry is _reduced(terms, den, degree_bound,
rings), rings the memo's verdict below, empty by default.  The pair cache
keeps the keys of a product canonical and the product skips pairs above
the bound.  Every builder hands its sums, zero ones included, to that
entry: combination, the product, zero and one (which check their bound)
here, and the one-row tables of gq and dualq, bases._image_sum and
finitevars.from_finite, which sum ints of their own.

A series is a value: terms must not be mutated after construction.  Shared
tables (gq_series, the lru_cached generators) hand the same object to
every caller; the deformed images of bases are int rows, not series.
Each series carries a private memo, the _rings slot: the frozenset of
flavors whose deformed ring it is known to lie in.  A series gets its
verdict when it is built, as the rings argument of _reduced: a product
keeps the paren verdict that both its factors carry, and bases._image_sum
gives the image it makes its flavor; after that only bases._check_ring
adds to it, when it finds the series in a ring.  The memo lives exactly
as long as the series object; it is never part of == or hash, and only
pseries and bases touch it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .partitions import (check_degree_bound, check_partition, graded_key, merge,
                         partitions_upto, z_lambda)
from .scalars import BetaScalar, _from_monomials, _monomials

_SCALARS = (int, Fraction, BetaScalar)
_PAREN = frozenset(("paren",))

# mu -> {nu: (mu u nu, z_(mu u nu) / (z_mu z_nu))}, filled by products
_PAIRS: dict = {}


def _by_partition(terms):
    """{lambda: [(k, n), ...]} from flat terms."""
    groups: dict = {}
    for (mu, k), c in terms.items():
        groups.setdefault(mu, []).append((k, c))
    return groups


def _reduced(terms, den):
    """(terms, den) without its zero numerators and divided by g =
    gcd(den, *terms), which zeros leave as it is; the zero series gets
    den 1, as there g = den."""
    g = gcd(den, *terms.values())
    if g > 1 or 0 in terms.values():
        terms = {key: v // g for key, v in terms.items() if v}
    return terms, den // g


class _Store:
    """Nonzero ints per (key, b-power) over one den, as the module docstring
    sets out: the class of series, Fock states and Schur coordinates, whose
    trusted entry _reduced alone drops zero numerators.  A value: terms must
    not be mutated after construction."""

    __slots__ = ("terms", "den")

    def _settle(self, fracs):
        """The checked entry's last step: terms and den from fracs {(key, k):
        Fraction}, as ints over the lcm of their denominators, handed to
        _reduced, which drops the zeros."""
        den = lcm(*(c.denominator for c in fracs.values()))
        self.terms, self.den = _reduced(
            {key: c.numerator * (den // c.denominator) for key, c in fracs.items()}, den)

    @classmethod
    def _reduced(cls, terms, den, *fields):
        """The trusted entry: terms {(key, k): n} over den, without its zero
        numerators and divided by the common factor, with the store's own
        slots set to fields in order.  terms must meet the invariant bar
        zeros and that factor, as what the library's own arithmetic builds
        does."""
        out = object.__new__(cls)
        out.terms, out.den = _reduced(terms, den)
        for name, value in zip(cls.__slots__, fields):
            setattr(out, name, value)
        return out

    def _fields(self):
        """The store's fields: the values of its own slots that are not
        private (degree_bound for a series, nvars for Schur coordinates)."""
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        return type(other) is type(self) and (
            (self._fields(), self.den, self.terms) == (other._fields(), other.den, other.terms))

    def __hash__(self):
        return hash((*self._fields(), self.den, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)


class PSeries(_Store):
    __slots__ = ("degree_bound", "_rings")

    def __init__(self, terms, degree_bound: int):
        """The series sum c_lambda p_lambda over terms {lambda: c_lambda},
        each c_lambda an int, a Fraction, a BetaScalar or BetaScalar's
        tuple form, at degree_bound: the one checked entry.  Each key is
        checked once and each coefficient made a Fraction once; terms above
        the bound and zero values are dropped.  A bad key or coefficient
        raises ValueError, a bool coefficient named with its key."""
        degree_bound = check_degree_bound(degree_bound)
        scaled = {}
        for key, val in terms.items():
            if isinstance(val, bool):
                raise ValueError(f"bad term {val!r} p_{key!r}: a bool is not a coefficient")
            key, pairs = check_partition(key), _monomials(val)
            if sum(key) <= degree_bound:
                scaled.update(((key, k), c * z_lambda(key)) for k, c in pairs)
        self._settle(scaled)
        self.degree_bound = degree_bound
        self._rings = frozenset()

    @classmethod
    def _reduced(cls, terms, den, degree_bound, rings=frozenset()):
        """_Store._reduced with the memo's verdict rings, none by default:
        the series sum (n / den) b^k p~_lambda over terms {(lambda, k): n}
        at degree_bound."""
        return super()._reduced(terms, den, degree_bound, rings)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, degree_bound: int) -> "PSeries":
        return cls._reduced({}, 1, check_degree_bound(degree_bound))

    @classmethod
    def one(cls, degree_bound: int) -> "PSeries":
        return cls._reduced({((), 0): 1}, 1, check_degree_bound(degree_bound))

    # -- structure ------------------------------------------------------

    def top_degree(self) -> int | None:
        if not self.terms:
            return None
        return max(sum(mu) for mu, _ in self.terms)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return combination(((self, 0, 1), (other, 0, 1)), self.degree_bound)

    def __sub__(self, other):
        if not isinstance(other, PSeries):
            return NotImplemented
        return combination(((self, 0, 1), (other, 0, -1)), self.degree_bound)

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return combination(((self, e, c) for e, c in _monomials(other)), self.degree_bound)
        if not isinstance(other, PSeries):
            return NotImplemented
        bound = self.degree_bound
        _check_bound(bound, other)
        # the right operand's terms by degree, once: each left term then
        # stops at the first degree that would pass the bound; sums that
        # cancel leave through the trusted entry
        right = sorted((sum(kb), kb, eb, cb) for (kb, eb), cb in other.terms.items())
        out: dict[tuple[tuple[int, ...], int], int] = {}
        for (ka, ea), ca in self.terms.items():
            room = bound - sum(ka)
            pairs = _PAIRS.setdefault(ka, {})
            for db, kb, eb, cb in right:
                if db > room:
                    break
                got = pairs.get(kb)
                if got is None:
                    mu = merge(ka, kb)
                    got = pairs[kb] = (mu, z_lambda(mu) // (z_lambda(ka) * z_lambda(kb)))
                mu, m = got
                key = (mu, ea + eb)
                out[key] = out.get(key, 0) + ca * cb * m
        # paren images only raise the degree, so the truncated product of
        # two images is the image of the product; bracket ones lower it
        return PSeries._reduced(out, self.den * other.den, bound,
                                self._rings & other._rings & _PAREN)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, _SCALARS) and not isinstance(other, bool):
            other = PSeries({(): other}, self.degree_bound)
        return _Store.__eq__(self, other)

    def __hash__(self):
        # a constant series equals its coefficient, so it hashes as that
        if any(mu for mu, _ in self.terms):
            return _Store.__hash__(self)
        return hash(dict(self.sorted_items()).get((), 0))

    # -- ordered view ----------------------------------------------------------

    def sorted_items(self):
        """(lambda, BetaScalar coefficient) pairs, graded lex in lambda."""
        return [(mu, _from_monomials((k, Fraction(n, self.den * z_lambda(mu)))
                                     for k, n in got))
                for mu, got in sorted(_by_partition(self.terms).items(),
                                      key=lambda kv: graded_key(kv[0]))]


def _check_bound(degree_bound, f):
    """Raise ValueError unless f is at degree_bound: mixed-bound arithmetic
    is a bug, in a product as in a sum."""
    if f.degree_bound != degree_bound:
        raise ValueError(f"degree bounds differ: {degree_bound} vs {f.degree_bound}")


def combination(parts, degree_bound: int, _cap=None) -> PSeries:
    """sum c b^e f over the triples (f, e, c) of parts, in one pass.

    f is a PSeries at degree_bound, e an int >= 0 and c an int or a
    Fraction; parts may be any iterable, and a zero c or a zero f is
    skipped.  The sum keeps one running den and rescales what it holds only
    when a part's f.den * c.denominator does not divide it.

    _cap, when not None, is the sum mod b^(_cap+1): every term whose
    b-power, the part's shift e included, passes _cap is skipped.  None is
    no cap at all, not a cap at the degree bound, since b-powers are not
    bounded by it (GQ_n for n < 0 is (-b)^(-n)).
    """
    den, out = 1, {}
    for f, e, c in parts:
        _check_bound(degree_bound, f)
        if e < 0:
            raise ValueError(f"b^{e} is not in Q[b]")
        room = None if _cap is None else _cap - e
        if not c or not f.terms or room is not None and room < 0:
            continue
        part_den = f.den * c.denominator
        if den % part_den:
            grown = lcm(den, part_den)
            up, den = grown // den, grown
            for key in out:
                out[key] *= up
        scale = c.numerator * (den // part_den)
        for (mu, k), v in f.terms.items():
            if room is not None and k > room:
                continue
            key = (mu, k + e)
            out[key] = out.get(key, 0) + v * scale
    return PSeries._reduced(out, den, degree_bound)


def _exp_products(logs, cap: int, degree_bound: int):
    """(mu, row) for every partition mu of weight <= degree_bound, row the
    int coefficients of z^0..z^cap of prod_i c_(mu_i) at b = 1.

    exp(sum_n c_n p_n / n) = sum_mu (prod_i c_(mu_i)) p~_mu (Macdonald,
    Symmetric Functions and Hall Polynomials, I (2.14)).  logs maps n to
    c_n at b = 1 as {j: int coefficient of z^j}, j ascending, or leaves
    c_n = 0 out.  Each c_n of the library is homogeneous in z and b, so
    b = 1 loses nothing: the reader puts the b-power back, b^|j - |mu||
    on the z^j coefficient.  Each row extends that of mu without its last
    part, cut at z^cap; a row is shared, so it is read, not changed.
    """
    rows = {(): [1] + [0] * cap}
    for mu in partitions_upto(degree_bound):
        if mu:
            row, log = [0] * (cap + 1), logs.get(mu[-1], {}).items()
            for j, u in enumerate(rows[mu[:-1]]):
                if u:
                    for jn, v in log:
                        if j + jn > cap:
                            break
                        row[j + jn] += u * v
            rows[mu] = row
        yield mu, rows[mu]
