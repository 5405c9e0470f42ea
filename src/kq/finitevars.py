"""Symmetric polynomials in x_1..x_n, in Schur coordinates, and the way
back to power sums.

A SymmetricPoly stands for sum a b^k s_nu(x_1..x_n) over its terms
{(nu, k): a}, s_nu the Schur polynomial.  Only partitions with at most n
parts give a nonzero s_nu, and those s_nu are a basis of the symmetric
polynomials in n variables (Macdonald, Symmetric Functions and Hall
Polynomials, I.3), so those are the only keys.  The symmetrization oracle
answers in this form: its bialternant pass lands on the s_nu directly, and
no monomial is ever written out.

from_finite reads those coordinates as power sums, inverting the
substitution p_k -> x_1^k + ... + x_n^k.  With n >= D variables the s_nu of
degree <= D are independent, so the polynomial is one symmetric function
f = sum_nu a_nu s_nu, and s_nu = sum_mu chi^nu(mu) p_mu / z_mu (I (7.8)),
chi^nu(mu) the irreducible character of S_|nu| at cycle type mu.  The
coordinate on p~_mu = p_mu / z_mu that PSeries stores is therefore
sum_nu a_nu chi^nu(mu), an integer whenever the a_nu are: characters are
integers.  A SymmetricPoly keeps its a_nu as ints over one den, in the
store of series (pseries._Store), so from_finite sums ints and hands the
series the same den.  Its public constructor is the checked entry, and
SymmetricPoly._reduced the trusted one, through which the oracle answers.

The characters come from the Murnaghan-Nakayama rule (I.7 Ex. 5), on
beads: nu + delta as the set bits of a mask, delta = (l-1, ..., 1, 0) for
l = len(nu), the oracle's own idiom.  Removing a rim hook of k boxes is
moving one bead k places down onto a free place, with sign -1 to the
number of beads it passes, so chi^nu(mu) is the signed sum over the moves
for the last part of mu of the character of what is left at mu without
it.

Writing the Schur polynomials out monomial by monomial, and reading a
polynomial given monomial by monomial back into this form with a symmetry
check, serve only the tests (tests/referees.py), as does a solve in
Fractions on the monomial coordinates.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .partitions import check_degree_bound, check_partition, partitions_of
from .pseries import PSeries, _Store
from .scalars import _coefficient


class SymmetricPoly(_Store):
    """sum (n / den) b^k s_nu(x_1..x_nvars) over terms {(nu, k): n}, in the
    integral store of series (pseries._Store).

    nu is a partition in the canonical form of check_partition with at most
    nvars parts and k an int >= 0.  The checked entry takes values that are
    ints or Fractions, none a bool, and anything else raises ValueError
    naming the term; _reduced(terms, den, nvars) is the trusted entry.
    """

    __slots__ = ("nvars",)

    def __init__(self, nvars: int, terms):
        nvars = check_degree_bound(nvars, "variable count")
        fracs = {}
        for key, a in terms.items():
            try:
                nu, k = key
                if check_partition(nu) != nu or len(nu) > nvars or type(k) is bool or k < 0:
                    raise ValueError
                fracs[(nu, operator.index(k))] = _coefficient(a)
            except (TypeError, ValueError):
                term = (f"s_{key[0]!r} b^{key[1]!r}" if type(key) is tuple and len(key) == 2
                        else f"at the key {key!r}")
                raise ValueError(f"bad term {a!r} {term} for {nvars} variables") from None
        self._settle(fracs)
        self.nvars = nvars


@lru_cache(maxsize=None)
def _character(beads: int, mu: tuple[int, ...]) -> int:
    """chi^nu(mu), nu + delta the set bits of beads and mu a partition of
    |nu|: each bead k = mu[-1] places above a free place moves down onto
    it, signed by the beads it passes, and what is left is read at
    mu[:-1].  Every move takes k boxes, so mu runs out at nu = ()."""
    if not mu:
        return 1
    k, rest = mu[-1], mu[:-1]
    out = 0
    for top in range(k, beads.bit_length()):
        if beads >> top & 1 and not beads >> top - k & 1:
            chi = _character(beads ^ (1 << top | 1 << top - k), rest)
            out += -chi if (beads >> top - k + 1 & (1 << k - 1) - 1).bit_count() & 1 else chi
    return out


def from_finite(g: SymmetricPoly, degree_bound: int) -> PSeries:
    """Recover power-sum coordinates of a symmetric polynomial.

    Requires nvars >= degree_bound so the p_lambda with |lambda| <= bound
    stay linearly independent, and total degree <= bound.  The character sums
    of g's ints are handed over g's den to PSeries._reduced, the trusted
    entry, as they meet the store's invariant but for the zero sums, which
    that entry drops: canonical keys of weight <= bound and k >= 0.
    """
    degree_bound = check_degree_bound(degree_bound)
    if not isinstance(g, SymmetricPoly):
        raise TypeError(f"from_finite needs a SymmetricPoly, got {type(g).__name__}")
    n = g.nvars
    if n < degree_bound:
        raise ValueError(f"need at least {degree_bound} variables, have {n}")
    top = max((sum(nu) for nu, _ in g.terms), default=0)
    if top > degree_bound:
        raise ValueError(f"degree {top} exceeds the requested bound {degree_bound}")

    coeffs: dict = {}
    for (nu, k), a in g.terms.items():
        beads = sum(1 << part + len(nu) - 1 - i for i, part in enumerate(nu))
        for mu in partitions_of(sum(nu)):
            if chi := _character(beads, mu):
                coeffs[(mu, k)] = coeffs.get((mu, k), 0) + a * chi
    return PSeries._reduced(coeffs, g.den, degree_bound)
