"""Neutral fermions phi_n with [phi_m, phi_n]_+ = 2(-1)^m delta_{m+n,0}.

A state is a sparse sum over canonical words.  A bra word is a strictly
decreasing tuple of nonpositive integers (<0| phi_{m_1} ... phi_{m_k} with
0 >= m_1 > ... > m_k); a ket word is strictly decreasing nonnegative
(phi_{n_1} ... phi_{n_k} |0> with n_1 > ... > n_k >= 0).  phi_0 squares to 1,
every other mode squares to 0, <0|phi_n = 0 for n > 0 and phi_{-n}|0> = 0 for
n > 0; <0|phi_0|0> = 0.

Normal ordering is written once, for bras, and every operator acts on bras
from the right.  Kets are star images of bras: star sends
<0|phi_{m_1}..phi_{m_k} to (-1)^{sum m} phi_{-m_k}..phi_{-m_1}|0>, is its
own inverse, and turns a right action of X* on bras into the left action of
X on kets.  So the ket A B ... |0> is star(<0| ... B* A*): a chain of ket
actions runs in bra form from the vacuum.  The routes build their kets this
way and hand the bra to hexpansion.vacuum_expectation, which pairs it as
the ket it stands for, so no state is ever starred here (the star itself
lives in tests/referees.py).  These are the only operators here, each
written once:

  * o_lambda and gp_lambda: _phihat_row, a weighted sum of (phihat_c)^*
    over a range of c (a single mode at low = n), conjugated by
    e^{i Theta}: the i-th row of a dual ket with the e^{-Theta} of every
    row folded in, one list of plain modes per grade;
  * GQ_lambda: bra_apply_phi_beta_star, n >= 0, and
    bra_apply_Theta_exp_star, the star of e^{Theta}, the two public
    actions, which refuse a state that is not a FockState (TypeError) and
    a grade cut top that is not an int >= 0 (ValueError).

The other signs of beta and of the exponents (e^{-Theta} on bras among
them), phihat_c at general c and phi^(beta)_n on bras live in
tests/referees.py, in Fraction form.

The normal-ordering tables (_bra_insert, _bra_word_b) are memoised and
shared, so they are handed out read-only.

Infinite operator tails (the beta-deformed modes, the conjugated rows, the
theta exponential) truncate exactly by grading: a bra word of grade s is
killed by any phi_m with s + m > 0.  On kets phi^(beta)_n and e^Theta raise
the grade without bound, so the bra sides of their ket actions drop every
word below a grade floor -top that the caller picks, input words included.
Heisenberg generators b_m enter through theta and through the vacuum rows
<0| prod 2 b_m of hexpansion, all with odd m (Theta only through its
commutator with the modes); b_0 is not normal-ordered and never built.

States are flat and integral, in the store of series (pseries._Store): a
FockState maps (word, k) to the nonzero int n of the term (n / den) b^k
word, over one int den >= 1 with gcd(den, *numerators) == 1, so == compares
values.  The public constructor is the checked entry, and the store's
FockState._reduced the trusted one, through which every action, vacuum(),
the first word of gq's ket and the dual kets of dualq build their states:
the actions only accumulate, and that entry drops the sums that cancel.
Every operator here is (1/d) sum c b^e X_m over int c, one d per action:
binomials times powers of 1/2 for phi^(beta) and the rows, 1/(n 2^n) for
the b_n of theta (the 1/2 of b_n included, since _bra_word_b tables twice
<0| word b_n), and the 1/k of the exponential's k-th term.  Applying one
multiplies ints and multiplies den once.  Fractions enter only through
the public constructor; hexpansion.vacuum_expectation divides by den once
on the way out.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import comb, lcm
from types import MappingProxyType

from . import pseries
from .partitions import check_degree_bound
from .scalars import _coefficient


class FockState(pseries._Store):
    """A bra or ket state: terms maps (word, k) to the nonzero int n of the
    term (n / den) b^k word, in the integral store of series
    (pseries._Store), whose _reduced is its trusted entry."""

    __slots__ = ()

    def __init__(self, terms):
        """terms maps (canonical word, b-power) to int or Fraction values:
        the checked entry.  A key that is not such a pair, a mode or
        b-power that is not an int or is a bool, and a value that is not an
        int or a Fraction raise ValueError, naming the term."""
        fracs = {}
        for key, c in terms.items():
            try:
                word, k = key
                if bool in (type(k), *map(type, word)):
                    raise ValueError
                word, k = tuple(map(operator.index, word)), operator.index(k)
                fracs[(word, k)] = _coefficient(c)
            except (TypeError, ValueError):
                raise ValueError(f"bad term {c!r} {key!r}: keys are (word, b-power) pairs of"
                                 " ints and values ints or Fractions, none a bool") from None
            if (k < 0 or any(a <= b for a, b in zip(word, word[1:]))
                    or word and word[0] > 0 > word[-1]):
                raise ValueError(f"{word} b^{k} is not a canonical word over Q[b]")
        self._settle(fracs)


def vacuum() -> FockState:
    """<0|, whose star is |0>."""
    return FockState._reduced({((), 0): 1}, 1)


def _lowest_grade(state):
    return min((sum(word) for word, _ in state.terms), default=0)


def _act(state, table, modes, den):
    """Right action of (1/den) sum c b^e X_m over the int (m, e, c) of
    modes(grade of the word), with <0| word X_m read from table(word, m)."""
    out = {}
    for (word, k), coeff in state.terms.items():
        for m, e, scal in modes(sum(word)):
            c0 = coeff * scal
            for w, c in table(word, m).items():
                key = (w, k + e)
                out[key] = out.get(key, 0) + c0 * c
    return FockState._reduced(out, state.den * den)


# -- canonical insertions ---------------------------------------------------

@lru_cache(maxsize=None)
def _bra_insert(word, n):
    """<0| word phi_n in canonical form, as {word: int coefficient}."""
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
def _phi_beta_modes(n, top):
    """(d, modes): (phi^(beta)_n)^*, n >= 0, is (1/d) sum c b^e phi_{-m}
    over the int (-m, e, c) of modes, n <= m <= top.

    (phi^(beta)_n)^* = sum_{m>=n} C(m,n) (b/2)^{m-n} (-1)^m phi_{-m}
    descends without bound; the caller supplies the grading cutoff top, and
    as m ascends a prefix of the modes serves any lower one.
    """
    shift = max(top - n, 0)
    return 1 << shift, tuple((-m, m - n, (-1) ** m * comb(m, n) << shift - m + n)
                             for m in range(n, top + 1))


@lru_cache(maxsize=None)
def _row_modes(n, low, i, reach):
    """(d, modes, cuts): e^{i Theta} R^* e^{-i Theta}, R^* the row of
    _phihat_row, is (1/d) sum c b^e phi_j over the int (j, e, c) of
    modes[:cuts[-g]] on a word of grade g, -reach <= g <= 0.

    R^* = sum_m k_m (b/2)^{n-m} phi_{-m}, 1 <= m <= n, with
    k_m = (-1)^n (C(n-1, m-1) - C(n-1, m) + C(low'-1, m)), low' =
    max(low, 1): phi_{-m} carries (-1)^n (b/2)^{n-m} times C(n-1, m-1)
    minus sum_{c=max(low,m)}^{n-1} C(c-1, m-1), since (phihat_c)^* =
    (-1)^c sum_{m=1}^{c} C(c-1, m-1) (b/2)^{c-m} phi_{-m} for c >= 1, and
    the hockey stick sums the C(c-1, m-1).  At low = 0 it also has
    2 w(0) (phihat_0)^*, which meets grade 0 as k_0 (b/2)^n phi_0,
    k_0 = 2 (-1)^{n+1}.

    Conjugation: [b_{-t}, phi_j] = phi_{j+t}, so ad Theta is
    log((1+x)/(1-x)) = 2 sum_{t odd} x^t / t in the shift x = (b/2) S,
    S phi_j = phi_{j+1}, and e^{i Theta} phi_j e^{-i Theta} = sum_t
    a_t (b/2)^t phi_{j+t} with a_t = [x^t] ((1+x)/(1-x))^i.  Hence
    phi_j carries (b/2)^{n+j} K_j, K_j = sum_m k_m a_{j+m} (k_0 at j = 0
    alone, since a row down to 0 meets grade 0 only), and on a word of
    grade g every phi_j with g + j > 0 dies: the modes are finite, and
    those of grade g a prefix of j ascending.  At i = 0, a_t = [t == 0]
    and the row is R^* itself.
    """
    sign, floor = (-1) ** n, max(low, 1) - 1
    k = [-2 * sign if low == 0 else 0] + [
        sign * (comb(n - 1, m - 1) - comb(n - 1, m) + comb(floor, m)) for m in range(1, n + 1)]
    a = [1] + [0] * (n + reach)
    for _ in range(i):  # times (1+x)/(1-x) = 1 + 2x + 2x^2 + ...
        run = 0
        for t, v in enumerate(a):
            a[t], run = v + 2 * run, run + v
    weights = [(j, c) for j in range(-n, reach + 1)
               if (c := sum(k[m] * a[j + m] for m in range(max(0, -j), n + 1)))]
    top = weights[-1][0]  # over d = 2^{n+top}: (b/2)^{n+j} is 2^{top-j} b^{n+j} / d
    modes = tuple((j, n + j, c << top - j) for j, c in weights)
    return 1 << n + top, modes, tuple(sum(j <= r for j, _ in weights) for r in range(reach + 1))


def _phihat_row(state, n, low, i):
    """Right action of e^{i Theta} R^* e^{-i Theta}, i >= 0, with R^* =
    sum_{c=low}^{n} w(c) (phihat_c)^*, 0 <= low <= n, n >= 1, w(n) = 1,
    w(c) = -(-b/2)^{n-c} below n, and w(0) doubled (modes in _row_modes).

    At low = n and i = 0 the row is (phihat_n)^* alone.  (phihat_0)^* =
    sum_{m>=0} (-b/2)^m phi_m meets a word of grade 0 as phi_0 alone, and
    so does its conjugate, so a row down to 0 acts on grade-0 bras only
    and raises on any other.
    """
    reach = -_lowest_grade(state)
    if low == 0 and reach:
        raise ValueError("a row down to phihat_0 acts on grade-0 bras only")
    d, modes, cuts = _row_modes(n, low, i, reach)
    return _act(state, _bra_insert, lambda g: modes[:cuts[-g]], d)


def _check_action(state, top):
    """top as an int >= 0, once state is a FockState: the misuse of a
    public action raises, a state of another type TypeError and a bad top
    ValueError, never an answer."""
    if not isinstance(state, FockState):
        raise TypeError(f"a Fock action needs a FockState, got {type(state).__name__}")
    return check_degree_bound(top, "top")


def bra_apply_phi_beta_star(state: FockState, n: int, top: int) -> FockState:
    """Right action of (phi^(beta)_n)^*, n >= 0, on bras, whose star is the
    left action of phi^(beta)_n on kets; grades < -top dropped.  A state
    that is not a FockState raises TypeError, and an n or top that is not
    an int >= 0 ValueError."""
    top, n = _check_action(state, top), check_degree_bound(n, "n")
    d, modes = _phi_beta_modes(n, top)
    return _act(state, _bra_insert, lambda g: modes[:max(0, top + g - n + 1)], d)


# -- Heisenberg generators --------------------------------------------------

@lru_cache(maxsize=None)
def _bra_word_b(word, m):
    """2 <0| word b_m as {word: int}, m odd, via [b_m, phi_n] = phi_{n-m},
    peeling from the right.

    On the vacuum, <0| b_m = (1/4) sum_{i=-m}^{0} (-1)^i <0| phi_{-i-m}
    phi_i, and for odd m the terms i and -m-i are equal, so twice it is the
    sum over i > -m/2.
    """
    out = {}
    if not word:
        for i in range(-(m // 2), 1):
            for w, c in _bra_insert((), -i - m).items():
                for w2, c2 in _bra_insert(w, i).items():
                    out[w2] = out.get(w2, 0) + (-c * c2 if i % 2 else c * c2)
    else:
        head, n = word[:-1], word[-1]
        for w, c in _bra_word_b(head, m).items():
            for w2, c2 in _bra_insert(w, n).items():
                out[w2] = out.get(w2, 0) + c * c2
        for w, c in _bra_insert(head, n - m).items():
            out[w] = out.get(w, 0) - 2 * c
    return MappingProxyType({w: c for w, c in out.items() if c})


# -- theta exponentials -----------------------------------------------------
#
# Theta = 2 sum_{n odd>0} (beta/2)^n b_{-n}/n raises bra grades toward zero,
# so its exponential terminates on every bra state; its adjoint theta =
# Theta^* lowers them, and terminates once cut.  Each acts on kets as the
# star of the other.  The dual kets fold their e^{-Theta} into the rows
# (_row_modes), so the routes exponentiate on bras only e^{theta}, for the
# GQ ket, and only between its parts: at the vacuum end <0| e^theta and
# <0| phi_0 e^theta are one (phi^(beta)_0)^* action on one word
# (gq.gq_fermionic has the proof).

@lru_cache(maxsize=None)
def _theta_modes(reach):
    """(d, modes): theta is (1/d) sum c b^n X_m over the int (m, n, c) of
    modes, odd n <= reach ascending, with X_m the twice b_m that
    _bra_word_b tables."""
    odd = range(1, reach + 1, 2)
    d = lcm(*(n << n for n in odd))
    return d, tuple((n, n, d // (n << n)) for n in odd)


def bra_apply_Theta_exp_star(state: FockState, top: int) -> FockState:
    """Right action of (e^{Theta})^* = e^{theta} on bras, whose star is the
    left action of e^{Theta} on kets; grades < -top dropped, input included.
    A state that is not a FockState raises TypeError, and a top that is not
    an int >= 0 ValueError."""
    top = _check_action(state, top)
    state = FockState._reduced({key: c for key, c in state.terms.items()
                                if sum(key[0]) >= -top}, state.den)
    d, modes = _theta_modes(top)
    terms = [state]  # the k-th term is the (k-1)-th times theta, over k
    while terms[-1]:  # a word of grade g meets the odd n <= top + g
        terms.append(_act(terms[-1], _bra_word_b,
                          lambda g: modes[:max(0, top + g + 1) // 2], d * len(terms)))
    den, total = lcm(*(term.den for term in terms)), {}
    for term in terms:
        scale = den // term.den
        for key, c in term.terms.items():
            total[key] = total.get(key, 0) + c * scale
    return FockState._reduced(total, den)
