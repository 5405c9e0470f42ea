"""Symmetric polynomials in x_1..x_n, in monomial coordinates, and the way
back to power sums.

A SymmetricPoly stands for sum a b^k m_mu(x_1..x_n) over its terms
{(mu, k): a}, m_mu the monomial symmetric polynomial: the sum of the
n! / prod m_i! distinct monomials whose nonzero exponents, sorted down, are
mu, zeros counted as a part.  Only partitions with at most n parts give a
nonzero m_mu, so those are the only keys.  The symmetrization oracle
answers in this form, one value per orbit, and no exponent tuple is ever
written out.

from_finite solves those coordinates for power sums, inverting the
substitution p_k -> x_1^k + ... + x_n^k.  The solve uses that x^lam occurs
in p_mu only when lam coarsens mu, with coefficient prod m_i(mu)! at
lam = mu and an integer that does not depend on n otherwise (Macdonald,
Symmetric Functions and Hall Polynomials, I.6), so it walks the partitions
by decreasing length.  It solves in ints, for the coordinates on
p~_mu = p_mu / z_mu that PSeries stores, which are integral whenever the
input is: f = sum_mu <f, p_mu> p~_mu, and <m_lam, p_mu> is the coefficient
of h_lam in p_mu, an integer since p_n = n h_n - sum_{i<n} h_i p_(n-i)
lies in Z[h_1, h_2, ...] (I.4, I.2).  With n >= D variables the m_lam of
degree <= D are independent, so the polynomial is that f.  So the input is
scaled by den, the lcm of its denominators, and by L, the lcm of z_mu over
|mu| <= D.  The remainder r at mu, once every longer partition is solved,
is then den L times the m_mu coordinate of what they leave, and den times
the p~_mu coordinate is r (z_mu / prod m_i(mu)!) / L, an exact division
by the theorem; a remainder there raises ValueError instead of truncating.
Each coarser class loses that coordinate times (L / z_mu) times its count
in p_mu, all ints.

Writing the orbits out as monomials, and reading a polynomial given
monomial by monomial back into this form with a symmetry check, serve only
the tests (tests/referees.py), as does the same solve in Fractions.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm

from .partitions import (check_degree_bound, check_partition, multiplicities, partitions_upto,
                         z_lambda)
from .pseries import PSeries, _integral


class SymmetricPoly:
    """sum a b^k m_mu(x_1..x_nvars) over terms {(mu, k): a}.

    mu is a partition in the canonical form of check_partition with at most
    nvars parts, k an int >= 0 and a an int or Fraction, neither a bool;
    anything else raises ValueError.  Zero values are dropped, so ==
    compares values.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms):
        nvars = check_degree_bound(nvars, "variable count")
        for (mu, k), a in terms.items():
            try:
                ok = check_partition(mu) == mu and len(mu) <= nvars and operator.index(k) >= 0
            except (TypeError, ValueError):
                ok = False
            if not ok or bool in (type(k), type(a)) or not isinstance(a, (int, Fraction)):
                raise ValueError(f"bad term {a!r} m_{mu!r} b^{k!r} for {nvars} variables")
        self.nvars = nvars
        self.terms = {key: a for key, a in terms.items() if a}

    def __eq__(self, other):
        return (isinstance(other, SymmetricPoly) and self.nvars == other.nvars
                and self.terms == other.terms)


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
        lam = tuple(v for v in state if v)
        out[lam] = count // _orbit_size(lam, r)
    return out


def from_finite(g: SymmetricPoly, degree_bound: int) -> PSeries:
    """Recover power-sum coordinates of a symmetric polynomial.

    Requires nvars >= degree_bound so the p_lambda with |lambda| <= bound
    stay linearly independent, and total degree <= bound.
    """
    degree_bound = check_degree_bound(degree_bound)
    if not isinstance(g, SymmetricPoly):
        raise TypeError(f"from_finite needs a SymmetricPoly, got {type(g).__name__}")
    n = g.nvars
    if n < degree_bound:
        raise ValueError(f"need at least {degree_bound} variables, have {n}")
    top = max((sum(mu) for mu, _ in g.terms), default=0)
    if top > degree_bound:
        raise ValueError(f"degree {top} exceeds the requested bound {degree_bound}")

    # rest[lam][k] starts as the m-coordinate of b^k m_lam times den * scale,
    # scale the lcm of z_mu up to the bound (L above).  p_mu meets m_lam
    # only for lam = mu or lam coarser (so shorter), hence the p~_mu
    # coordinate is final once every longer partition has been solved.  A
    # class absent from g has m-coordinate 0, yet finer p_mu can leave a
    # nonzero remainder there, so the walk covers every partition up to the
    # bound.
    den = lcm(*(a.denominator for a in g.terms.values()))
    parts = sorted(partitions_upto(degree_bound), key=len, reverse=True)
    scale = lcm(*map(z_lambda, parts))
    rest: dict = {}
    for (lam, k), a in g.terms.items():
        rest.setdefault(lam, {})[k] = a.numerator * (den // a.denominator) * scale
    coeffs: dict = {}
    for mu in parts:
        row, z = _p_to_m(mu), z_lambda(mu)
        for k, r in rest.pop(mu, {}).items():
            c, left = divmod(r * (z // row[mu]), scale)  # prod m_i(mu)! divides z_mu
            if left:
                raise ValueError(f"the p~_{mu!r} b^{k} coordinate is not integral")
            if c:
                coeffs[(mu, k)] = c
                c *= scale // z
                for lam, count in row.items():
                    if lam != mu:
                        got = rest.setdefault(lam, {})
                        got[k] = got.get(k, 0) - c * count
    return _integral(coeffs, den, degree_bound)
