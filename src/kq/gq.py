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
    computed by the same contraction; its twists and its padding column
    are laurent's univariate tables, as formula I's padding column is;
  * gq_fermionic evaluates <0| e^{H^(beta)} prod_i (phi^(beta)_{lambda_i}
    e^Theta) |0> on the neutral-fermion Fock space, as one ket, built in
    bra form and handed as that bra to hexpansion.vacuum_expectation.

The one-row coefficients are a plain row, gq_series(D) = (GQ_0, ...,
GQ_D), as dualq keeps q^[b]: GQ_n for n < 0 is the constant (-beta)^{-n},
a b-shift that the readers apply themselves, and GQ_n past D truncates to
zero.  Each sum over one-row coefficients or table entries is one
pseries.combination of (series, b-power, rational) triples; a two-index
sum reads each GQ_m GQ_n from one memoised table per bound (_pair).

Both Pfaffian routes work modulo b^(s+1), s = D - |lambda|.  With deg
p_n = n and deg b = -1, GQ_lambda is homogeneous of degree |lambda|
(Ikeda-Naruse), so a term b^k p_mu of it has |mu| = |lambda| + k, and at
the bound D only k <= s survives.  Every entry, generator product and
b-shift of the expansion has b-powers >= 0, so reducing mod b^(s+1) is a
ring map and commutes with the expansion: the routes cut each entry at b^s
(combination's and contract's _cap; the padding column and formula II's
twist window stop at s) and the Pfaffian is GQ_lambda mod b^(s+1).  The
cut entries are still homogeneous, entry (i, j) of degree lambda_i +
lambda_j, so every product of them is homogeneous of degree |lambda| and
its terms within the bound have k <= s: nothing above b^s is left over,
and the result is GQ_lambda itself.  gq_two_index, a public value, is
never cut; formula II cuts its twisted sums of them.

The finite-variable symmetrization oracle (module oracle) referees all of
them through from_finite, and tests/test_gq.py re-expands GQ_(a,b) from
its definition, independently of the f-tables.  Note that GQ_emptyset is
the constant 1 by the empty-Pfaffian convention, while GQ_0, the z^0
coefficient of GQ(z), is assembled like every other entry of the row; the
two are never interchanged even though both are 1.
"""

from functools import lru_cache
from math import comb

from . import fock
from .hexpansion import vacuum_expectation
from .laurent import _univariate, contract, f_table
from .partitions import _check_int, check_degree_bound, check_strict_weight, even_ceil
from .pfaffian import padded_pfaffian
from .pseries import PSeries, combination, exp_power_sums


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


def gq_series(degree_bound):
    """The row (GQ_0, GQ_1, ..., GQ_D) of Laurent coefficients of GQ(z),
    one shared tuple per bound.

    GQ_n = sum_k (-beta)^k Exp_{n+k}, Exp_j the z^j part of _exp_parts;
    Exp_j for j > D has lowest p-weight > D, so the sum stops at k = D - n,
    and GQ_D = Exp_D, GQ_n = Exp_n - beta GQ_{n+1} below it.  GQ_0
    assembles to 1.  The row stops at both ends: GQ_n for n < 0 is the
    constant (-beta)^{-n}, a b-shift that its readers apply, and GQ_n for
    n > D has lowest degree n and truncates to zero.
    """
    return _gq_series(check_degree_bound(degree_bound))


@lru_cache(maxsize=None)
def _gq_series(D):
    """gq_series at a checked bound, by the recurrence, from GQ_D down."""
    parts = _exp_parts(D)
    row = [parts[D]]
    for n in range(D - 1, -1, -1):
        row.append(combination(((parts[n], 0, 1), (row[-1], 1, -1)), D))
    return tuple(reversed(row))


# degree_bound -> {(m, n): GQ_m GQ_n} for 1 <= m <= n, m + n <= degree_bound,
# each product built when a Pfaffian cell first asks for it
_PRODUCTS: dict = {}


def _pair(m, n, degree_bound):
    """GQ_m GQ_n as a triple (f, e, s) standing for s b^e f, or None.

    The product commutes, so m <= n after a swap.  GQ_m for m <= 0 is the
    constant (-b)^{-m}: a b-shift of GQ_n, or of GQ_0 = 1 when n <= 0 too,
    not a product.  GQ_n past the bound is zero, and for m >= 1 GQ_m GQ_n
    has lowest degree m + n, so past the bound it is zero and is never
    multiplied; the rest come from the memoised table of the bound.
    """
    if m > n:
        m, n = n, m
    if m <= 0:
        if n > degree_bound:
            return None
        e = -m - min(n, 0)
        return gq_series(degree_bound)[max(n, 0)], e, -1 if e % 2 else 1
    if m + n > degree_bound:
        return None
    table = _PRODUCTS.setdefault(degree_bound, {})
    f = table.get((m, n))
    if f is None:
        row = gq_series(degree_bound)
        f = table[(m, n)] = row[m] * row[n]
    return f, 0, 1


def _f_entry(i, j, r_prime, li, lj, degree_bound, cap=None):
    """Entry (i, j) of formula I: GQ_{li+p} GQ_{lj+q} contracted against
    f_table(i, j, r'), whose cells are keyed (q, p).

    lj is None in the padding column j = r', which contracts GQ_{li+p}
    against the univariate table of (1+b t_i)^{-(r'-i-1)}.  Otherwise
    laurent.contract takes one combination over memoised generator
    products, GQ_{li+p} GQ_{lj+q} from _pair.  The window p <= D - li (and
    q <= D - lj) is exact because GQ_n is zero past the bound; tests re-run
    one entry with a doubled window to confirm that.  cap, the route's
    D - |lambda|, takes the entry mod b^(cap+1) (module docstring), so the
    padding column stops at p = cap too; None takes it whole.
    """
    D = degree_bound
    if lj is None:
        row = gq_series(D)
        top = D - li if cap is None else cap  # a route's cap is <= D - li
        return combination(((row[li + p], p, c)
                            for p, c in _univariate(top, r_prime - i - 1).items()), D, cap)
    return contract(f_table(i, j, r_prime, (D - lj, D - li)),
                    lambda q, p: _pair(li + p, lj + q, D), D, cap)


def gq_two_index(a, b, degree_bound):
    """Two-index function GQ_(a,b), the r = 2 entry of Pfaffian formula I.

    Defined as [z1^a z2^b] of

        (1 + beta z1^{-1})^{-1} GQ(z1) GQ(z2) (z1 - z2)/(z1 + z2 + beta)

    expanded with |z1| > |z2|.  At t = 1/z this is the f-table product at
    (i, j, r') = (1, 2, 2), so GQ_(a,b) is formula I's entry at
    lambda = (a, b).  For a > b >= 1 it is GQ_{(a,b)}; for general
    integers it is the raw entry the second Pfaffian formula consumes.
    Every summand has lowest degree >= a + b, so the result vanishes once
    a + b > D.  Below that it is one combination over memoised generator
    products, shared with formula I's entries.  tests/test_gq.py keeps the
    direct expansion of the definition as an independent check.
    """
    return _gq_two_index(_check_int(a, "a"), _check_int(b, "b"), check_degree_bound(degree_bound))


@lru_cache(maxsize=None)
def _gq_two_index(a, b, degree_bound):
    """gq_two_index on checked arguments."""
    if a + b > degree_bound:
        return PSeries.zero(degree_bound)
    return _f_entry(1, 2, 2, a, b, degree_bound)


def gq_pfaffian_1(lam, degree_bound):
    """GQ_lambda as a Pfaffian of f-table contractions of one-row series.

    Rows of odd-length partitions are padded with a zero part; the extra
    column contracts against the univariate table.  Every entry is cut at
    b^(D - |lambda|) (module docstring).
    """
    lam = check_strict_weight(lam, degree_bound)
    rp, cap = even_ceil(len(lam)), degree_bound - sum(lam)
    return padded_pfaffian(
        lam, PSeries.one(degree_bound),
        lambda i, j, li, lj: _f_entry(i, j, rp, li, lj, degree_bound, cap=cap))


def gq_pfaffian_2(lam, degree_bound):
    """GQ_lambda as a Pfaffian over binomially twisted two-index values.

    Entry (i, j) is sum_{k,l >= 0} C(i+1-r', k) C(j-r', l) beta^{k+l}
    GQ_(lambda_i+k, lambda_j+l); the padding column drops the second
    factor.  Every entry is cut at b^s, s = D - |lambda| (module
    docstring), so the window stops at k + l = s; GQ_(a,b) vanishes for
    a + b > D, and s <= D - lambda_i - lambda_j keeps the window inside
    that.  Both upper entries are -n with n >= 0, so the weights are
    laurent's univariate tables, one per row and one per column of an
    entry, and none of them is zero.  Times the r = 2 prefactor
    (1 + b t_1)^{-1} of GQ_(a,b), the twists are formula I's prefactors
    (1 + b t_i)^{-(r'-i)} (1 + b t_j)^{-(r'-j)}, so every entry equals
    formula I's; the padding column, sum_k C(i+1-r', k) b^k
    GQ_{lambda_i+k}, is formula I's term for term, and is read from it.
    """
    lam = check_strict_weight(lam, degree_bound)
    D = degree_bound
    rp, cap = even_ceil(len(lam)), D - sum(lam)

    def entry(i, j, li, lj):
        if lj is None:
            return _f_entry(i, j, rp, li, None, D, cap=cap)
        rows, cols = _univariate(cap, rp - i - 1), _univariate(cap, rp - j)
        return combination(((gq_two_index(li + k, lj + l, D), k + l, ck * cl)
                            for k, ck in rows.items()
                            for l, cl in cols.items() if k + l <= cap), D, cap)

    return padded_pfaffian(lam, PSeries.one(D), entry)


def gq_fermionic(lam, degree_bound):
    """GQ_lambda = <0| e^{H^(beta)} prod_i phi^(beta)_{lambda_i} e^Theta |0>.

    The ket is built once, innermost factor first, in bra form: the star
    of <0| e^theta (phi^(beta)_n)^* ..., a bra that vacuum_expectation
    pairs as the ket it stands for, in the paren flavor; odd-length partitions get the
    usual phi^(beta)_0 e^Theta padding factor on the right.  Every factor
    only raises the ket grade, phi^(beta)_n by at least n, and a word of
    grade > D pairs to degree > D: so each step drops grades above D minus
    the parts still to apply (and, for the e^Theta before part n, minus n).
    """
    lam = check_strict_weight(lam, degree_bound)
    ops = list(lam) + ([0] if len(lam) % 2 else [])
    top = degree_bound - sum(lam)
    state = fock.vacuum()
    for n in reversed(ops):
        state = fock.bra_apply_Theta_exp_star(state, top)
        top += n
        state = fock.bra_apply_phi_beta_star(state, n, top)
    return vacuum_expectation(state, "paren", degree_bound)
