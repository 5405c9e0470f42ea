"""Neutral fermions phi_n with [phi_m, phi_n]_+ = 2(-1)^m delta_{m+n,0}.

States are sparse dicts mapping canonical words to scalars.  A bra word is a
strictly decreasing tuple of nonpositive integers (<0| phi_{m_1} ... phi_{m_k}
with 0 >= m_1 > ... > m_k); a ket word is strictly decreasing nonnegative
(phi_{n_1} ... phi_{n_k} |0> with n_1 > ... > n_k >= 0).  phi_0 squares to 1,
every other mode squares to 0, <0|phi_n = 0 for n > 0 and phi_{-n}|0> = 0 for
n > 0; <0|phi_0|0> = 0.

Normal ordering is written once, for bras.  Kets are computed as star images
of bras: star sends <0|phi_{m_1}..phi_{m_k} to (-1)^{sum m}
phi_{-m_k}..phi_{-m_1}|0>, is its own inverse, and turns a right action on
bras into the starred left action on kets, as every ket_apply_* does:

    ket_apply_phihat(v, n)    = star(bra_apply_phihat_star(star(v), n))
    ket_apply_theta_exp(v, s) = star(bra_apply_theta_exp(star(v), s))

The normal-ordering tables (_bra_insert, _bra_word_b) are memoised and
shared, so they are handed out read-only.

Infinite operator tails (the beta-deformed modes, the theta exponentials)
truncate exactly by grading: a bra word of grade s is killed by any phi_m
with s + m > 0.  On kets phi^(beta)_n and e^Theta raise the grade without
bound, so their ket actions drop every word above a grade ceiling top that
the caller picks.  Heisenberg generators b_m enter only through Theta and
theta, which use odd m; b_0 is not normal-ordered and never built.

States are flat: a state maps (word, k) to the nonzero Fraction c of the
term c*b^k*word; series keep ints instead (module pseries).  Every
coefficient an operator here contributes is a single monomial c*b^e or a
rational constant (normal ordering, b_m), so applying it to a term is one
Fraction product and an int add.  No BetaScalar is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .scalars import binom_general

BraState = dict  # (canonical bra word, b-power) -> Fraction
KetState = dict  # (canonical ket word, b-power) -> Fraction

_HALF = Fraction(1, 2)
_ONE = Fraction(1)


def _merge(target, key, coeff):
    if not coeff:
        return
    prev = target.get(key)
    total = coeff if prev is None else prev + coeff
    if total:
        target[key] = total
    elif prev is not None:
        del target[key]


def vacuum_ket() -> KetState:
    return {((), 0): _ONE}


def grade(word) -> int:
    return sum(word)


# -- canonical insertions ---------------------------------------------------

@lru_cache(maxsize=None)
def _bra_insert(word, n):
    """<0| word phi_n in canonical form, as {word: rational coefficient}."""
    if not word:
        out = {(n,): 1} if n <= 0 else {}
    elif word[-1] > n:
        out = {word + (n,): 1}
    elif word[-1] == n:
        out = {word[:-1]: 1} if n == 0 else {}
    else:
        m = word[-1]
        out = {w + (m,): -c for w, c in _bra_insert(word[:-1], n).items()}
        if m + n == 0:
            out[word[:-1]] = out.get(word[:-1], 0) + (2 if m % 2 == 0 else -2)
            out = {w: c for w, c in out.items() if c}
    return MappingProxyType(out)


# -- beta-deformed modes ----------------------------------------------------

@lru_cache(maxsize=None)
def _phi_beta_modes(n, cutoff, sign):
    """(index, b-power, coefficient) of phi^(beta)_n, plain modes <= cutoff.

    For n >= 0 the series sum_{m>=n} C(m,n) (b/2)^{m-n} phi_m ascends without
    bound; the caller supplies the grading cutoff.  sign=-1 flips beta.
    """
    half = _HALF if sign > 0 else -_HALF
    if n >= 0:
        return tuple((m, m - n, binom_general(m, n) * half ** (m - n))
                     for m in range(n, cutoff + 1))
    out = []
    for m in range(1, -n + 1):
        c = binom_general(-m, -n - m)
        if c:
            out.append((-m, -n - m, c * half ** (-n - m)))
    return tuple(out)


@lru_cache(maxsize=None)
def _ket_phi_beta_modes(n, cutoff):
    """Modes of (phi^(beta)_n)^* = sum_{m>=n} C(m,n) (b/2)^{m-n} (-1)^m phi_{-m}."""
    return tuple((-m, e, -c if m % 2 else c) for m, e, c in _phi_beta_modes(n, cutoff, 1))


def _bra_apply(state, table, modes):
    """Right action of sum c b^e X_m over the (m, e, c) of modes(grade of
    the word), with <0| word X_m read from table(word, m)."""
    out = {}
    for (word, k), coeff in state.items():
        for m, e, scal in modes(grade(word)):
            c0 = coeff * scal
            for w, c in table(word, m).items():
                _merge(out, (w, k + e), c0 * c)
    return out


def bra_apply_phi_beta(state: BraState, n: int, sign: int = 1) -> BraState:
    """Right action of phi^(beta)_n (or phi^(-beta)_n with sign=-1)."""
    return _bra_apply(state, _bra_insert, lambda g: _phi_beta_modes(n, -g, sign))


def ket_apply_phi_beta(state: KetState, n: int, top: int) -> KetState:
    """Left action of phi^(beta)_n, n >= 0, on kets; grades > top dropped."""
    bra = _bra_apply(star_ket(state), _bra_insert, lambda g: _ket_phi_beta_modes(n, top + g))
    return star_bra(bra)


def bra_apply_phihat_star(state: BraState, n: int) -> BraState:
    """(phi-hat_n)^* = (-1)^n phi^(-beta)_{-n} acting on bra states."""
    out = bra_apply_phi_beta(state, -n, sign=-1)
    if n % 2:
        out = {key: -c for key, c in out.items()}
    return out


def ket_apply_phihat(state: KetState, n: int) -> KetState:
    """Left action of the dual deformed mode phi-hat_n on ket states."""
    return star_bra(bra_apply_phihat_star(star_ket(state), n))


# -- Heisenberg generators --------------------------------------------------

@lru_cache(maxsize=None)
def _bra_vacuum_b(m):
    """<0| b_m as {word: Fraction}; (1/4) sum_{i=-m}^{0} (-1)^i <0| phi_{-i-m} phi_i."""
    out = {}
    quarter = Fraction(1, 4)
    for i in range(-m, 1):
        sgn = quarter if i % 2 == 0 else -quarter
        for w, c in _bra_insert((), -i - m).items():
            for w2, c2 in _bra_insert(w, i).items():
                _merge(out, w2, sgn * c * c2)
    return MappingProxyType(out)


@lru_cache(maxsize=None)
def _bra_word_b(word, m):
    """<0| word b_m as {word: Fraction}, via [b_m, phi_n] = phi_{n-m},
    peeling from the right."""
    if not word:
        return _bra_vacuum_b(m)
    head, n = word[:-1], word[-1]
    out = {}
    for w, c in _bra_word_b(head, m).items():
        for w2, c2 in _bra_insert(w, n).items():
            _merge(out, w2, c * c2)
    for w, c in _bra_insert(head, n - m).items():
        _merge(out, w, Fraction(-c))
    return MappingProxyType(out)


# -- theta exponentials -----------------------------------------------------
#
# Theta = 2 sum_{n odd>0} (beta/2)^n b_{-n}/n raises bra grades toward zero,
# so its exponential terminates on every bra state; its adjoint theta =
# Theta^* lowers them, and terminates once cut.  Each acts on kets as the
# star of the other.

@lru_cache(maxsize=None)
def _theta_modes(sign, reach, lower):
    """(index m, b-power, coefficient) of the b_m of sign*Theta, or of
    sign*theta when lower, for odd n <= reach."""
    return tuple((n if lower else -n, n, Fraction(sign, n * 2 ** (n - 1)))
                 for n in range(1, reach + 1, 2))


def _theta_exp(state, sign, top):
    """Right action of e^{sign*Theta} (top None) or of e^{sign*theta}, cut
    at grade -top."""
    lower = top is not None
    total = dict(state)
    term = state
    k = 1
    while term:
        term = _bra_apply(term, _bra_word_b,
                          lambda g: _theta_modes(sign, top + g if lower else -g, lower))
        if not term:
            break
        term = {key: c / k for key, c in term.items()}
        for key, c in term.items():
            _merge(total, key, c)
        k += 1
    return total


def bra_apply_theta_exp(state: BraState, sign: int = 1) -> BraState:
    """Right action of e^{Theta} (sign=+1) or e^{-Theta} (sign=-1)."""
    return _theta_exp(state, sign, None)


def ket_apply_Theta_exp(state: KetState, top: int) -> KetState:
    """Left action of e^{Theta} on kets; grades > top dropped."""
    return star_bra(_theta_exp(star_ket(state), 1, top))


def ket_apply_theta_exp(state: KetState, sign: int = 1) -> KetState:
    """Left action of e^{theta} (sign=+1) or e^{-theta} (sign=-1)."""
    return star_bra(bra_apply_theta_exp(star_ket(state), sign))


# -- duality ----------------------------------------------------------------

def star_bra(state: BraState) -> KetState:
    """<0|phi_{m_1}..phi_{m_k}  |->  (-1)^{sum m} phi_{-m_k}..phi_{-m_1}|0>."""
    out = {}
    for (word, k), coeff in state.items():
        new = tuple(-m for m in reversed(word))
        _merge(out, (new, k), -coeff if grade(word) % 2 else coeff)
    return out


# the same formula sends a ket back to its bra
star_ket = star_bra
