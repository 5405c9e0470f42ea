"""K-theoretic Q-functions GQ_lambda in the truncated power-sum ring.

Everything is computed modulo total degree > D with coefficients in Q[beta],
starting from the one-row generating function

    GQ(z) = sum_{n in Z} GQ_n z^n
          = theta(z) / ((1 + beta z^{-1}) theta(-beta) theta(-z-beta)),

where theta(a) = exp(sum_{n>=1} p_n a^n / n).  Three routes produce
GQ_lambda for a strict partition lambda:

  * gq_pfaffian_1 (formula I) contracts pairs of one-row coefficients
    through the f-coefficient tables of module laurent and takes a
    Pfaffian;
  * gq_pfaffian_2 (formula II) takes a Pfaffian of binomially twisted
    two-index values GQ_(a,b), each of them the r = 2 entry of formula I,
    computed by the same contraction;
  * gq_fermionic evaluates <0| e^{H^(beta)} prod_i (phi^(beta)_{lambda_i}
    e^Theta) |0> on the neutral-fermion Fock space, as one ket paired
    through hexpansion.vacuum_expectation.

Each sum over one-row coefficients or table entries is one
pseries.combination of (series, b-power, rational) triples.

The finite-variable symmetrization oracle (module oracle) referees all of
them through from_finite, and tests/test_gq.py re-expands GQ_(a,b) from
its definition, independently of the f-tables.  Note that GQ_emptyset is
the constant 1 by the empty-Pfaffian convention, while the z^0
coefficient of GQ(z) is a separate object, (-beta)^0 in closed form; the
two are never interchanged even though both are 1.
"""

import operator
from functools import lru_cache
from math import comb
from types import MappingProxyType

from . import fock
from .hexpansion import vacuum_expectation
from .laurent import f_table
from .partitions import check_degree_bound, check_strict_weight, even_ceil
from .pfaffian import padded_pfaffian
from .pseries import PSeries, combination, exp_power_sums
from .scalars import binom_general


@lru_cache(maxsize=None)
def _exp_parts(degree_bound):
    """z^0..z^D coefficients of theta(z) / (theta(-beta) theta(-z-beta)).

    The log is sum_n (p_n/n) c_n with c_n = z^n - (-beta)^n - (-z-beta)^n,
    homogeneous of degree n in z and beta, so the closed form of
    exp_power_sums applies.  The z^j part has lowest p-weight >= j, so
    cutting z-degrees and p-weights at D together loses nothing that the
    assembled GQ_n (n <= D) could see.
    """
    logs = {}
    for n in range(1, degree_bound + 1):
        sign = 1 if n % 2 else -1  # (-1)^(n+1)
        c = {(j, n - j): sign * comb(n, j) for j in range(n + 1)}
        c[(0, n)] += sign
        c[(n, 0)] += 1
        logs[n] = c
    return tuple(exp_power_sums(logs, degree_bound, degree_bound))


class GQSeries:
    """Laurent coefficients of GQ(z), one PSeries per exponent.

    coefficients maps n -> GQ_n for 1 <= n <= degree_bound, built once and
    handed out read-only, so one instance can be shared.  Above the bound
    GQ_n has lowest degree n > D and truncates to zero, so coefficient()
    answers zero; for n <= 0 GQ_n is the constant (-beta)^{-n}, which
    coefficient() answers in closed form.  Invariants, checked in tests:
    lowest degree of GQ_n is >= n for n >= 1, and _assemble(n) equals the
    closed form for n <= 0.
    """

    __slots__ = ("degree_bound", "coefficients")

    def __init__(self, degree_bound):
        degree_bound = check_degree_bound(degree_bound)
        self.degree_bound = degree_bound
        self.coefficients = MappingProxyType(
            {n: self._assemble(n) for n in range(1, degree_bound + 1)})

    def _assemble(self, n):
        # GQ_n = sum_k (-beta)^k Exp_{n+k}, k from max(0, -n); Exp_j for
        # j > D has lowest p-weight > D, so the sum stops at k = D - n.
        D = self.degree_bound
        parts = _exp_parts(D)
        return combination(((parts[n + k], k, -1 if k % 2 else 1)
                            for k in range(max(0, -n), D - n + 1)), D)

    def coefficient(self, n):
        n = operator.index(n)
        if n > self.degree_bound:
            return PSeries.zero(self.degree_bound)
        if n <= 0:
            return _minus_beta_power(-n, self.degree_bound)
        return self.coefficients[n]


@lru_cache(maxsize=None)
def _minus_beta_power(e, degree_bound):
    """The constant series (-beta)^e."""
    return PSeries._from_flat({((), e): -1 if e % 2 else 1}, degree_bound)


@lru_cache(maxsize=None)
def gq_series(degree_bound):
    """The GQSeries at this bound, one shared instance per bound.

    Its table spans 1..degree_bound; every other index the Pfaffian windows
    reach is zero or a power of -beta.
    """
    return GQSeries(degree_bound)


def _f_entry(i, j, r, r_prime, li, lj, degree_bound):
    """Entry (i, j) of formula I: GQ_{li+p} GQ_{lj+q} contracted against
    f_table(i, j, r, r').

    lj is None in the padding column, which contracts GQ_{li+p} against
    the univariate table.  The window p <= D - li (and q <= D - lj) is
    exact because GQ_n is zero past the bound; tests re-run one entry with
    a doubled window to confirm that.
    """
    D = degree_bound
    get = gq_series(D).coefficient
    if lj is None:
        tab = f_table(i, j, r, r_prime, (D - li, 0))
        return combination(((get(li + p), p, c) for p, c in tab.items()), D)
    tab = f_table(i, j, r, r_prime, (D - li, D - lj))
    # GQ_{lj+q} is not looked up, nor the product taken, when GQ_{li+p} is zero
    return combination(((gi * gj, p + q, c) for (p, q), c in tab.items()
                        if (gi := get(li + p)) and (gj := get(lj + q))), D)


@lru_cache(maxsize=None)
def gq_two_index(a, b, degree_bound):
    """Two-index function GQ_(a,b), the r = 2 entry of Pfaffian formula I.

    Defined as [z1^a z2^b] of

        (1 + beta z1^{-1})^{-1} GQ(z1) GQ(z2) (z1 - z2)/(z1 + z2 + beta)

    expanded with |z1| > |z2|.  At t = 1/z this is the f-table product at
    (i, j, r, r') = (1, 2, 2, 2), so GQ_(a,b) is formula I's entry at
    lambda = (a, b).  For a > b >= 1 it is GQ_{(a,b)}; for general
    integers it is the raw entry the second Pfaffian formula consumes.
    Every summand has lowest degree >= a + b, so the result vanishes once
    a + b > D.  tests/test_gq.py keeps the direct expansion of the
    definition as an independent check.
    """
    if a + b > degree_bound:
        return PSeries.zero(degree_bound)
    return _f_entry(1, 2, 2, 2, a, b, degree_bound)


def gq_pfaffian_1(lam, degree_bound):
    """GQ_lambda as a Pfaffian of f-table contractions of one-row series.

    Rows of odd-length partitions are padded with a zero part; the extra
    column contracts against the univariate table.
    """
    lam = check_strict_weight(lam, degree_bound)
    r = len(lam)
    rp = even_ceil(r)
    return padded_pfaffian(
        lam, PSeries.one(degree_bound),
        lambda i, j, li, lj: _f_entry(i, j, r, rp, li, lj, degree_bound))


def gq_pfaffian_2(lam, degree_bound):
    """GQ_lambda as a Pfaffian over binomially twisted two-index values.

    Entry (i, j) is sum_{k,l >= 0} C(i+1-r', k) C(j-r', l) beta^{k+l}
    GQ_(lambda_i+k, lambda_j+l); the padding column drops the second
    factor.  Since GQ_(a,b) vanishes for a + b > D, the window stops at
    k + l = D - lambda_i - lambda_j.
    """
    lam = check_strict_weight(lam, degree_bound)
    D = degree_bound
    rp = even_ceil(len(lam))

    def entry(i, j, li, lj):
        if lj is None:
            get = gq_series(D).coefficient
            return combination(((get(li + k), k, binom_general(i + 1 - rp, k))
                                for k in range(D - li + 1)), D)
        # no two-index value is computed under a zero binomial weight
        top = D - li - lj
        return combination(
            ((gq_two_index(li + k, lj + l, D), k + l, ck * cl)
             for k in range(top + 1) if (ck := binom_general(i + 1 - rp, k))
             for l in range(top - k + 1) if (cl := binom_general(j - rp, l))), D)

    return padded_pfaffian(lam, PSeries.one(D), entry)


def gq_fermionic(lam, degree_bound):
    """GQ_lambda = <0| e^{H^(beta)} prod_i phi^(beta)_{lambda_i} e^Theta |0>.

    The ket is built once, innermost factor first, and paired through
    vacuum_expectation in the paren flavor; odd-length partitions get the
    usual phi^(beta)_0 e^Theta padding factor on the right.  Every factor
    only raises the ket grade, phi^(beta)_n by at least n, and a word of
    grade > D pairs to degree > D: so each step drops grades above D minus
    the parts still to apply (and, for the e^Theta before part n, minus n).
    """
    lam = check_strict_weight(lam, degree_bound)
    ops = list(lam) + ([0] if len(lam) % 2 else [])
    top = degree_bound - sum(lam)
    state = fock.vacuum_ket()
    for n in reversed(ops):
        state = fock.ket_apply_Theta_exp(state, top)
        top += n
        state = fock.ket_apply_phi_beta(state, n, top)
    return vacuum_expectation(state, "paren", degree_bound)
