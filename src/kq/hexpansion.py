"""The vacuum row <0|e^H, as one int row per partition into odd parts.

H is the half-boson Hamiltonian 2 sum_{n>=1} (p_n/n) b_n^flavor built from
either deformed family; reorganized over plain generators it reads
sum_{k odd} (p_k^flavor / k) 2 b_k.  The odd b_k commute, so the
exponential has the closed form of Macdonald, Symmetric Functions and Hall
Polynomials, I (2.14), as pseries._exp_products uses it:

    <0|e^H = sum_nu p~_nu^flavor R_nu,    R_nu = <0| prod_i 2 b_(nu_i),

over the partitions nu into odd parts, p~_nu^flavor the image of p_nu/z_nu
(one int row over 2^D each, bases._image_row).  Each row R_nu is an int
bra state, built from the row of nu without its last part by one action
of fock._bra_word_b.
Its entry at the word dual to a strict partition mu (the reversed negated
padding of mu) is [p~_nu] (-1)^{|mu|} 2^{-l(mu)} Q_mu, so only even words
pair, and the ket of mu pairs to the classical Q_mu once weighted by
(-1)^{|mu|} 2^{l(mu)}.

The routes build their kets in bra form, and a ket is the star of its bra:
the bra word u stands for the ket word dual to it with the sign
(-1)^{|u|}, which cancels the (-1)^{|mu|} above.  So vacuum_expectation
takes the bra, reads the rows at its own words, and weighs a word by
2^{l(mu)} alone.  It collects the classical coordinates {(nu, k): c} in
ints over the bra's den, in one pass over the bra, and deforms them once
(bases._image_sum) at the caller's bound: one more int pass, over the den
(bra den) 2^D, whose output carries its flavor's ring verdict.  A bra
that is not a FockState raises TypeError.

A word heavier than the bound raises: bracket images push weight down,
so its value would need rows and an image past the bound.  No library
ket carries one.  gq_fermionic drops the grades below -top at every
step, and top ends at D.  Each row of a dual ket (fock._phihat_row)
lowers the grade by at most lambda_i, from a word of grade 0, so every
word has weight <= |lambda| <= D.

Memoised for the life of the process: each R_nu (_state), and the rows of
each weight (_rows), keyed by bra word, each word mapped to its (nu,
entry) pairs.  R_nu only reaches words of weight |nu|, so the rows of a
weight are those of the nu of that weight, and a word reads the rows of
its own weight.  Every caller gets a read-only view of them.
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType

from .bases import _image_sum, check_flavor
from .fock import FockState, _act, _bra_word_b, vacuum
from .partitions import check_degree_bound, partitions_of
from .pseries import PSeries


@lru_cache(maxsize=None)
def _state(nu):
    """R_nu as an int bra state: one action of 2 b_m, m the last part of nu,
    on R of nu without it."""
    if not nu:
        return vacuum()
    twice_b = ((nu[-1], 0, 1),)
    return _act(_state(nu[:-1]), _bra_word_b, lambda g: twice_b, 1)


@lru_cache(maxsize=None)
def _rows(weight: int):
    """{bra word u of the weight: ((nu, R_nu at u), ...)} over the
    partitions nu of the weight into odd parts, every entry a nonzero int."""
    rows: dict = {}
    for nu in partitions_of(weight):
        if all(part % 2 for part in nu):
            for (word, _), r in _state(nu).terms.items():
                rows.setdefault(word, []).append((nu, r))
    return MappingProxyType({word: tuple(entries) for word, entries in rows.items()})


def vacuum_expectation(bra_state, flavor: str, degree_bound: int) -> PSeries:
    """<0| e^H |v> for the ket |v> whose bra is the fock.FockState
    bra_state, in the canonical padded basis.

    |v> is the star of bra_state, so the bra is paired as the ket it
    stands for.  Odd-length words pair to zero; an even word u with the int
    numerator n contributes n b^k Q_{mu(u)}(p^flavor), mu(u) the word
    reversed and negated, its padding removed, and the sum is divided by the state's
    den once.  The flavor and the bound are checked first, so a state with
    no even word cannot hide a bad one; a word with a positive mode, odd
    or even, is a ket word and raises, and so does a word heavier than the
    bound, before the odd words are dropped.
    """
    if not isinstance(bra_state, FockState):
        raise TypeError(f"vacuum_expectation needs a FockState, got {type(bra_state).__name__}")
    check_flavor(flavor)
    degree_bound = check_degree_bound(degree_bound)
    coords = {}
    for (word, k), n in bra_state.terms.items():
        if word and word[0] > 0:
            raise ValueError(f"{word} is a ket word, not a bra word")
        weight = -sum(word)
        if weight > degree_bound:
            raise ValueError(f"{word} has weight {weight}, past the bound {degree_bound}")
        if len(word) % 2:
            continue
        # the bra of mu against its row: 2^{l(mu)}, l without the padding
        n <<= len(word) - (0 in word)
        for nu, r in _rows(weight).get(word, ()):
            coords[(nu, k)] = coords.get((nu, k), 0) + n * r  # _image_sum skips zeros
    return _image_sum(coords, bra_state.den, flavor, degree_bound)
