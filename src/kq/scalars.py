"""The public scalar: an element of Q[b], as a value handed out.

The ground ring for everything in this package is Q[b]: polynomials with
rational coefficients in a single formal parameter b (the K-theory
deformation).  Setting b = 0 recovers the classical (cohomological) objects,
b = -1 the connective ones.  Q[b] is enough because no library path divides
by a polynomial in b: every object computed here is a polynomial in b, and
the only divisions are by nonzero rational constants.

No library path does arithmetic on scalars.  Series, Fock states and Schur
coordinates keep one int per (key, b-power) over one denominator per
object (pseries._Store), the term (n/den)*b^k*X under the key (X, k), so a
product or sum of two terms is an int operation, and a route sums c*b^e*f
as (f, e, c) triples through pseries.combination.

BetaScalar is only a boundary value: constructor input, a coefficient once
it leaves a series (sorted_items, the value of bilinear_pair), and BETA,
ONE and ZERO.  It stores the sparse terms {k: c} of sum c*b^k, the form in
which the series hand coefficients out, and has equality (with ints and
Fractions too), hashing, printing and as_polynomial, the dense coefficient
tuple that leaves the package; it has no ring operations.  The private
helpers _monomials and _from_monomials convert between scalars and
(b-power, Fraction) pairs, in one pass each: the only bridge.

Invariant: terms maps ints k >= 0 to nonzero Fractions, so equality is
structural and hashing is safe.  The public constructor enforces it on any
input, and _from_monomials keeps it on the pairs it is handed.  An outside
coefficient, here and in every store, is an int or a Fraction and never a
bool (_coefficient): a float, a str or a Decimal raises ValueError, as a
bool does, rather than entering as an inexact or parsed Fraction.
"""

from __future__ import annotations

from fractions import Fraction

_F0 = Fraction(0)


def _coefficient(c, whole=None) -> Fraction:
    """c as a Fraction, c an int or a Fraction and never a bool: the one
    check of an outside coefficient, in BetaScalar (and so PSeries),
    FockState and SymmetricPoly.  Anything else raises ValueError, naming
    whole, the value c came in, or c itself."""
    if isinstance(c, (int, Fraction)) and not isinstance(c, bool):
        return Fraction(c)
    raise ValueError(f"bad coefficient {c if whole is None else whole!r}:"
                     " an int or a Fraction, never a bool")


class BetaScalar:
    """sum c*b^k over terms {k: c}, each c a nonzero Fraction."""

    __slots__ = ("terms",)

    def __init__(self, num=0):
        """num is an int, a Fraction, a BetaScalar, or the tuple of the
        coefficients of b^0, b^1, ..., each an int or a Fraction; any other
        value raises ValueError (_coefficient)."""
        if isinstance(num, BetaScalar):
            self.terms = num.terms
            return
        dense = num if isinstance(num, tuple) else (num,)
        self.terms = {k: c for k, c in enumerate(_coefficient(c, num) for c in dense) if c}

    def __bool__(self) -> bool:
        return bool(self.terms)

    def as_polynomial(self) -> tuple[Fraction, ...]:
        """The coefficients of b^0, b^1, ... up to the top nonzero one."""
        dense = [_F0] * (max(self.terms, default=-1) + 1)
        for k, c in self.terms.items():
            dense[k] = c
        return tuple(dense)

    def __eq__(self, other):
        if isinstance(other, BetaScalar):
            return self.terms == other.terms
        if isinstance(other, bool) or not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.terms == ({0: other} if other else {})

    def __hash__(self):
        # a constant equals its int or Fraction, so it hashes as that
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        bits = []
        for k, c in sorted(self.terms.items()):
            if k == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                bits.append(f"{head}b" + (f"^{k}" if k > 1 else ""))
        return " + ".join(bits).replace("+ -", "- ") or "0"

    __repr__ = __str__


ZERO = BetaScalar(0)
ONE = BetaScalar(1)
BETA = BetaScalar((0, 1))


# -- the bridge to the flat (key, b-power) form ---------------------------------

def _monomials(v) -> list[tuple[int, Fraction]]:
    """The (k, c) pairs, c nonzero, of a scalar v = sum c*b^k.

    v is an int, a Fraction, a BetaScalar or what the constructor takes;
    anything else raises ValueError (_coefficient).
    """
    if isinstance(v, (BetaScalar, tuple)):
        return list(BetaScalar(v).terms.items())
    c = _coefficient(v)
    return [(0, c)] if c else []


def _from_monomials(pairs) -> BetaScalar:
    """sum c*b^k over (k, c) pairs of distinct ints k >= 0 and Fractions c;
    zero c are dropped, and a zero sum is the shared ZERO, as most pairings
    are.  Built through BetaScalar.__new__, as every scalar is."""
    out = BetaScalar.__new__(BetaScalar)
    out.terms = {k: c for k, c in pairs if c}
    return out if out.terms else ZERO
