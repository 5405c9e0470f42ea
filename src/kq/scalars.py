"""Exact scalar arithmetic in the deformation parameter.

The ground ring for everything in this package is Q[b]: polynomials with
rational coefficients in a single formal parameter b (the K-theory
deformation).  Setting b = 0 recovers the classical (cohomological) objects,
b = -1 the connective ones.

Q[b] is enough because no library path divides by a polynomial in b: every
object computed here is a polynomial in b, and the only divisions are by
nonzero rational constants.  Dividing by a scalar that depends on b, or
raising one to a negative power, raises instead of leaving the ring.

Series and Fock states store no BetaScalar: they keep one int per (key,
b-power) over one denominator per object, the term (n/den)*b^k*X under the
key (X, k), so a product or sum of two terms is an int operation.  A route
sums c*b^e*f as (f, e, c) triples through pseries.combination.

BetaScalar is the public scalar, and only a boundary type: constructor
input, a coefficient once it leaves a series (coefficient, sorted_items,
the value of bilinear_pair), and BETA, ONE and ZERO.  No binomial lives
here: the Pfaffian coefficients are laurent's int tables, and the basis
images (bases) read math.comb.
The private helpers _monomials and _from_monomials convert between
BetaScalars and (b-power, Fraction) pairs: the only bridge.

A BetaScalar is a dense coefficient tuple with no trailing zeros, so
equality is structural and hashing is safe.

Invariant: num is a tuple of Fraction whose last entry, if any, is nonzero.
The public constructor enforces it on any input.  The ring operations build
tuples that already meet it: _padd and _pmul keep Fraction entries and
trim, and negation or division by a nonzero constant cannot make the top
entry zero.  So they wrap their results with the private
BetaScalar._trusted, which skips the checks.
"""

from __future__ import annotations

from fractions import Fraction

# -- dense Q[b] helpers ------------------------------------------------------
# polynomials are tuples of Fraction, index = exponent, no trailing zeros

_ZERO: tuple[Fraction, ...] = ()
_F0 = Fraction(0)


def _trim(c: list[Fraction]) -> tuple[Fraction, ...]:
    while c and not c[-1]:
        c.pop()
    return tuple(c)


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _trim(out)


def _pmul(a, b):
    if not a or not b:
        return _ZERO
    out = [_F0] * (len(a) + len(b) - 1)
    # coefficients kq returns are mostly single powers of b: skip the zeros
    b = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b:
                out[i + j] += x * y
    return _trim(out)


class BetaScalar:
    """An element of Q[b], stored as its coefficient tuple num."""

    __slots__ = ("num",)

    def __init__(self, num=0):
        if isinstance(num, BetaScalar):
            self.num = num.num
        elif isinstance(num, tuple):
            self.num = _trim([Fraction(x) for x in num])
        elif isinstance(num, (int, Fraction)):
            num = Fraction(num)
            self.num = (num,) if num else _ZERO
        else:
            raise TypeError(f"cannot build BetaScalar from {type(num).__name__}")

    @classmethod
    def _trusted(cls, num: tuple[Fraction, ...]) -> "BetaScalar":
        """Wrap num, which must already be a trimmed tuple of Fraction.

        Only this module calls it, on tuples its own arithmetic built.
        """
        out = object.__new__(cls)
        out.num = num
        return out

    @classmethod
    def beta_power(cls, k: int, coeff=1) -> "BetaScalar":
        """coeff * b^k as a scalar; k must be >= 0."""
        if k < 0:
            raise ValueError(f"b^{k} is not in Q[b]")
        c = Fraction(coeff)
        if not c:
            return ZERO
        return cls._trusted((_F0,) * k + (c,))

    def __bool__(self) -> bool:
        return bool(self.num)

    def as_polynomial(self) -> tuple[Fraction, ...]:
        return self.num

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BetaScalar._trusted(_padd(self.num, other.num))

    __radd__ = __add__

    def __neg__(self):
        return BetaScalar._trusted(tuple(-x for x in self.num))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return BetaScalar._trusted(_pmul(self.num, other.num))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational constant, the only one Q[b] needs."""
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other.num:
            raise ZeroDivisionError("division by zero BetaScalar")
        if len(other.num) > 1:
            raise ArithmeticError(f"cannot divide by {other}: it depends on b")
        inv = 1 / other.num[0]
        return BetaScalar._trusted(tuple(x * inv for x in self.num))

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} is not in Q[b]")
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num

    def __hash__(self):
        return hash(self.num)

    # -- display ------------------------------------------------------------

    def __str__(self):
        if not self.num:
            return "0"
        bits = []
        for e, c in enumerate(self.num):
            if not c:
                continue
            if e == 0:
                bits.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                bits.append(f"{head}b" + (f"^{e}" if e > 1 else ""))
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = __str__


def _coerce(v):
    if isinstance(v, BetaScalar):
        return v
    if isinstance(v, (int, Fraction)):
        return BetaScalar(v)
    return NotImplemented


ZERO = BetaScalar(0)
ONE = BetaScalar(1)
BETA = BetaScalar.beta_power(1)


# -- the bridge to the flat (key, b-power) form ---------------------------------

def _monomials(v) -> list[tuple[int, Fraction]]:
    """The (k, c) pairs, c nonzero, of a scalar v = sum c*b^k.

    v is an int, a Fraction or a BetaScalar; anything else raises TypeError.
    """
    if isinstance(v, (int, Fraction)):
        v = Fraction(v)
        return [(0, v)] if v else []
    if not isinstance(v, BetaScalar):
        v = BetaScalar(v)
    return [(k, c) for k, c in enumerate(v.num) if c]


def _from_monomials(pairs) -> BetaScalar:
    """sum c*b^k over (k, c) pairs of an int k >= 0 and a Fraction c."""
    dense: list[Fraction] = []
    for k, c in pairs:
        if k >= len(dense):
            dense.extend([_F0] * (k + 1 - len(dense)))
        dense[k] += c
    return BetaScalar._trusted(_trim(dense))

