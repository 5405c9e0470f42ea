"""The vacuum row <0|e^H in the padded fermion basis, in closed form.

H is the half-boson Hamiltonian 2 sum_{n>=1} (p_n/n) b_n^flavor built from
either deformed family; reorganized over plain generators it reads
2 sum_{k odd} (p_k^flavor / k) b_k, so <0|e^H only involves even-length
words and the coefficient of the word dual to a strict partition mu is a
classical Schur Q-function evaluated at the deformed power sums:

    <0|e^H = sum_mu (-1)^{|mu|} 2^{-l(mu)} Q_mu(p^flavor) <word(mu)|

with word(mu) the reversed negated padding of mu.  Pairing a ket against
this row is a finite weight lookup: every symmetric function leaves Fock
space there, as one pseries.combination of the Q_mu(p^flavor).

Memoised for the life of the process: the q_n row and Q_mu per bound,
Q_mu(p^flavor) per (mu, flavor, bound), and the rows of <0|e^H per
(row_bound, flavor, bound).  Every caller gets the same series objects, so
none may mutate them; the q_n row is a tuple and the rows come as a
read-only mapping.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .bases import _image_sum, check_flavor, q_series
from .partitions import check_degree_bound, check_partition, strict_partitions_upto
from .pfaffian import padded_pfaffian
from .pseries import PSeries, combination


@lru_cache(maxsize=None)
def _q_row(degree_bound: int):
    return tuple(q_series(degree_bound))


@lru_cache(maxsize=None)
def two_row_q(a: int, b: int, degree_bound: int) -> PSeries:
    """Classical Q_{(a,b)} in the power-sum basis, for a > b >= 0."""
    if not a > b >= 0:
        raise ValueError("two-row entries need a > b >= 0")
    q = _q_row(degree_bound)
    # Q_(a,b) = q_a q_b + 2 sum_(i>=1) (-1)^i q_(a+i) q_(b-i), q_n = 0 past the bound
    return combination(((q[a + i] * q[b - i], 0, (-2 if i % 2 else 2) if i else 1)
                        for i in range(min(b, degree_bound - a) + 1)), degree_bound)


@lru_cache(maxsize=None)
def classical_q(mu, degree_bound: int) -> PSeries:
    """Schur Q_mu in the power-sum basis via the two-row Pfaffian."""
    mu = check_partition(mu, strict=True)
    return padded_pfaffian(
        mu, PSeries.one(degree_bound),
        lambda i, j, li, lj: two_row_q(li, lj or 0, degree_bound))


def deformed_q(mu, flavor: str, degree_bound: int) -> PSeries:
    """Q_mu with every power sum replaced by its deformed image.

    Bracket images push weight downward, so the substitution must run at
    degree max(bound, |mu|) before truncating; paren images only feed
    upward and need no widening.
    """
    return _deformed_q(check_partition(mu, strict=True), flavor,
                       check_degree_bound(degree_bound))


@lru_cache(maxsize=None)
def _deformed_q(mu, flavor: str, degree_bound: int) -> PSeries:
    inner = degree_bound
    if flavor == "bracket":
        inner = max(degree_bound, sum(mu))
    q = classical_q(mu, inner)
    image = _image_sum(q.terms, q.den, flavor, inner)
    return image.truncate(degree_bound) if inner > degree_bound else image


def _strip_padding(word):
    return word[:-1] if word and word[-1] == 0 else word


def vacuum_expectation(ket_state, flavor: str, degree_bound: int) -> PSeries:
    """<0| e^H |v> for a flat ket state {(word, k): c} in the canonical
    padded basis.

    Odd-length words pair to zero; an even word w contributes
    c b^k Q_{mu(w)}(p^flavor), mu(w) the word with its padding removed.
    The flavor is checked first, so a ket with no even word cannot hide
    a bad one.
    """
    check_flavor(flavor)
    return combination(((deformed_q(_strip_padding(word), flavor, degree_bound), k, c)
                        for (word, k), c in ket_state.items() if len(word) % 2 == 0),
                       degree_bound)


class HBraExpansion:
    """Rows of <0|e^H with weight |mu| <= row_bound, coefficients truncated.

    row_bound caps which basis rows are kept and degree_bound caps the
    power-sum degree of each coefficient; they agree for the upward-feeding
    paren flavor but the bracket flavor pushes weight downward, so exact
    low-degree output can require rows far above the degree bound.  The
    rows are built once per (row_bound, flavor, degree_bound) and shared,
    read-only, by every expansion with those arguments.
    """

    def __init__(self, row_bound: int, flavor: str, degree_bound: int | None = None):
        row_bound = check_degree_bound(row_bound)
        degree_bound = row_bound if degree_bound is None else check_degree_bound(degree_bound)
        self.row_bound = row_bound
        self.flavor = flavor
        self.degree_bound = degree_bound
        self.rows = _h_rows(row_bound, flavor, degree_bound)

    def coefficient(self, word) -> PSeries:
        got = self.rows.get(tuple(word))
        return PSeries.zero(self.degree_bound) if got is None else got


@lru_cache(maxsize=None)
def _h_rows(row_bound: int, flavor: str, degree_bound: int):
    rows = {}
    for mu in strict_partitions_upto(row_bound):
        padded = mu if len(mu) % 2 == 0 else mu + (0,)
        word = tuple(-m for m in reversed(padded))
        sign = -1 if sum(mu) % 2 else 1
        rows[word] = deformed_q(mu, flavor, degree_bound) * Fraction(sign, 2 ** len(mu))
    return MappingProxyType(rows)
