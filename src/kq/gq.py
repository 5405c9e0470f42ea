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
    bra form from a closed form of its vacuum end and handed as that bra
    to hexpansion.vacuum_expectation.

The one-row coefficients are a plain row, gq_series(D) = (GQ_0, ...,
GQ_D), as dualq keeps q^[b]: GQ_n for n < 0 is the constant (-beta)^{-n},
a b-shift that the readers apply themselves, and GQ_n past D truncates to
zero.  Both rows are read off one univariate closed form of their
exponential, an int row of z-coefficients per partition
(pseries._exp_products), with no recurrence and no sum of series.  Each
sum over one-row coefficients or table entries is one
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
from .pseries import PSeries, _exp_products, combination


def gq_series(degree_bound):
    """The row (GQ_0, GQ_1, ..., GQ_D) of Laurent coefficients of GQ(z),
    one shared tuple per bound.

    GQ(z) = (1 + beta z^{-1})^{-1} exp(sum_n (p_n/n) c_n), with
    c_n = z^n - (-beta)^n - (-z-beta)^n homogeneous of degree n in z and
    beta.  So the z^j coefficient of prod_i c_(mu_i) is beta^(|mu| - j)
    times its value at beta = 1, the row of pseries._exp_products, and
    GQ_n = sum_k (-beta)^k [z^(n+k)] exp(...) is, at p~_mu,
    beta^(|mu| - n) times the alternating sum of that row from z^n up.
    The row of mu stops at z^|mu|, so GQ_n at p~_mu is zero for n > |mu|,
    and GQ_0 assembles to 1.  The table stops at both ends: GQ_n for
    n < 0 is the constant (-beta)^{-n}, a b-shift that its readers apply,
    and GQ_n for n > D has lowest degree n and truncates to zero.
    """
    return _gq_series(check_degree_bound(degree_bound))


@lru_cache(maxsize=None)
def _gq_series(D):
    """gq_series at a checked bound: one pass over the partitions of
    weight <= D, each row summed from its top z-power down."""
    # c_n at beta = 1: z^n - (-1)^n - (-z-1)^n
    logs = {n: {j: (-1) ** (n + 1) * (comb(n, j) + (j == 0)) + (j == n) for j in range(n + 1)}
            for n in range(1, D + 1)}
    slots = [{} for _ in range(D + 1)]
    for mu, row in _exp_products(logs, D, D):
        w, tail = sum(mu), 0
        for n in range(w, -1, -1):
            tail = row[n] - tail
            slots[n][(mu, w - n)] = tail
    return tuple(PSeries._reduced(terms, 1, D) for terms in slots)


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

    The ket is built once, vacuum end first, in bra form: the star of
    <0| e^theta (phi^(beta)_{lambda_r})^* ... e^theta (phi^(beta)_{lambda_1})^*,
    a bra that vacuum_expectation pairs as the ket it stands for, in the
    paren flavor; odd-length partitions get the usual phi^(beta)_0 e^Theta
    padding factor at the vacuum end.  Every factor only raises the ket
    grade, phi^(beta)_n by at least n, and a word of grade > D pairs to
    degree > D: so each step drops grades above D minus the parts still to
    apply (and, for an e^Theta before part n, minus n).

    The vacuum end has a closed form.  With psi = (phi^(beta)_0)^* =
    sum_{m>=0} (-b/2)^m phi_{-m}, cut at m <= top = D - |lambda| like the
    step it replaces:

      (A) <0| e^theta = <0| phi_0 psi,
      (B) <0| e^theta psi = <0| phi_0,
      (C) <0| phi_0 e^theta = <0| psi,

    so the ket starts from <0| phi_0 psi for even l(lambda) and from
    <0| psi for odd, one action on one word, and e^theta only runs between
    parts.  (A): theta = sum_{n odd} (p_n/n) 2 b_n at p_n = (b/2)^n, the
    exponent of hexpansion's vacuum row specialized to the one variable
    x = b/2, so <0| e^theta = sum_mu (-1)^{|mu|} 2^{-l(mu)} Q_mu(x) <0|
    word(mu), over strict mu, word(mu) the reversed negated padding of mu.
    In one variable Q_mu = 0 for l(mu) >= 2 (Macdonald III.8) and
    Q_(m) = 2 x^m, which leaves <0| + sum_{m>=1} (-b/2)^m <0| phi_0
    phi_{-m}, and phi_0 phi_0 = 1 makes it <0| phi_0 psi.  (B): psi psi =
    (1/2) [psi, psi]_+, and [phi_{-m}, phi_{-m'}]_+ = 0 unless m + m' = 0,
    which for m, m' >= 0 leaves [phi_0, phi_0]_+ = 2: psi psi = 1, and
    (A) gives <0| e^theta psi = <0| phi_0 psi psi = <0| phi_0.  (C):
    conjugation as in fock._row_modes, with [b_n, phi_j] = phi_{j-n},
    gives e^{-theta} phi_0 e^theta = phi_0 + 2 sum_{t>=1} (-b/2)^t
    phi_{-t} = 2 psi - phi_0, so by (B) and (A) <0| phi_0 e^theta =
    <0| e^theta (2 psi - phi_0) = 2 <0| phi_0 - <0| phi_0 psi phi_0, and
    psi phi_0 = 2 - phi_0 psi makes it <0| psi.  Every factor lowers bra
    grades, so cutting after each one cuts the whole: the identities hold
    cut at top as they do uncut.
    """
    lam = check_strict_weight(lam, degree_bound)
    if not lam:
        return vacuum_expectation(fock.vacuum(), "paren", degree_bound)
    top = degree_bound - sum(lam)
    start = fock.FockState._reduced({(() if len(lam) % 2 else (0,), 0): 1}, 1)
    state = fock.bra_apply_phi_beta_star(start, 0, top)
    for i, n in enumerate(reversed(lam)):
        if i:
            state = fock.bra_apply_Theta_exp_star(state, top)
        top += n
        state = fock.bra_apply_phi_beta_star(state, n, top)
    return vacuum_expectation(state, "paren", degree_bound)
