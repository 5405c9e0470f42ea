"""The vacuum row <0|e^H in the padded fermion basis, in closed form.

H is the half-boson Hamiltonian 2 sum_{n>=1} (p_n/n) b_n^flavor built from
either deformed family; reorganized over plain generators it reads
2 sum_{k odd} (p_k^flavor / k) b_k, so <0|e^H only involves even-length
words and the coefficient of the word dual to a strict partition mu is a
classical Schur Q-function evaluated at the deformed power sums:

    <0|e^H = sum_mu (-1)^{|mu|} 2^{-l(mu)} Q_mu(p^flavor) <word(mu)|

with word(mu) the reversed negated padding of mu.  Pairing a ket against
this row is a finite weight lookup: both fermionic routes leave Fock space
there and only there, as one pseries.combination of the Q_mu(p^flavor)
over the state's int numerators, divided once by its den.

Memoised for the life of the process: the q_n row and Q_mu per bound, and
Q_mu(p^flavor) per (mu, flavor, bound).  Every caller gets the same series
objects, so none may mutate them; the q_n row is a tuple.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .bases import _image_sum, check_flavor, q_series
from .partitions import check_degree_bound, check_partition
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
    """<0| e^H |v> for a ket fock.FockState v in the canonical padded basis.

    Odd-length words pair to zero; an even word w with the int numerator n
    contributes n b^k Q_{mu(w)}(p^flavor), mu(w) the word with its padding
    removed, and the sum is divided by the state's den once.  The flavor
    and the bound are checked first, so a ket with no even word cannot hide
    a bad one.
    """
    check_flavor(flavor)
    degree_bound = check_degree_bound(degree_bound)
    return combination(((deformed_q(_strip_padding(word), flavor, degree_bound), k, n)
                        for (word, k), n in ket_state.terms.items() if len(word) % 2 == 0),
                       degree_bound) * Fraction(1, ket_state.den)
