"""The dual family: one-row generators q^[b]_n, o_lambda, and gp_lambda.

Dual objects live in the subring generated by the odd power sums; unlike
GQ_lambda they are honest polynomials (top degree of o_lambda is |lambda|),
so a degree bound D only has to clear |lambda|.  The generating series is

    q^[b](z) = sum_n q^[b]_n z^n = prod_i (1 - x_i zbar) / (1 - x_i z),

with zbar = -z / (1 + b z).  Three routes compute o_lambda:

  * o_pfaffian_1: 2^{-r} Pf of g-table contractions of the q^[b]_n;
  * o_pfaffian_2: Pf of binomially twisted two-index blocks o_(a,b),
    each a quarter of route one's r = 2 entry and computed by the same
    contraction; the quarter leaves no global 2-power, and the twists and
    the padding column (half of route one's) are laurent's univariate
    tables;
  * o_fermionic: 2^{-r} <0| e^{H^[b]} prod_i (e^{-theta} phihat_{l_i}) |0>,
    each e^{-theta} folded into the modes of its row (proof in _dual_ket).

gp_lambda is the combination of the o_nu with nu interlacing lambda that
inverts the pairing matrix <GQ_mu, o_nu>; its column factors over rows, so
gp is one ket of o_fermionic's shape with a sum of phihat modes in each
row, and one exit (proof in gp).  Each Pfaffian entry is one
pseries.combination.  The pairing itself (bilinear_pair) is the plain
power-sum form on both arguments, to which the two deformations are
adjoint (proof there), once each argument is checked to lie in its ring.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from . import fock
from .bases import _check_ring
from .hexpansion import vacuum_expectation
from .laurent import _univariate, contract, g_table
from .partitions import _check_int, check_degree_bound, check_strict_weight, z_lambda
from .pfaffian import padded_pfaffian
from .pseries import PSeries, _by_partition, _exp_products, combination
from .scalars import _from_monomials


@lru_cache(maxsize=None)
def _q_bracket_upto(top, degree_bound):
    """q^[b]_0..q^[b]_top, all truncated past degree_bound.

    log q^[b](z) = sum_n (p_n/n) c_n with
        c_n = sum_{j>=n} (delta_{nj} + (-1)^{j+1} C(j-1, j-n) b^{j-n}) z^j,
    cut at z^top.  Each term of c_n has b-power j - n, so the z^j
    coefficient of prod_i c_(mu_i) is b^(j - |mu|) times its value at
    b = 1, the row of pseries._exp_products: q^[b]_j at p~_mu reads that
    row at z^j.  Every term of the z^j part has p-weight <= j, so q^[b]_j
    is a polynomial of top degree at most j and the truncation only
    matters for j > degree_bound.
    """
    logs = {n: {j: (-1) ** (j + 1) * comb(j - 1, j - n) + (j == n) for j in range(n, top + 1)}
            for n in range(1, min(top, degree_bound) + 1)}
    slots = [{} for _ in range(top + 1)]
    for mu, row in _exp_products(logs, top, degree_bound):
        w = sum(mu)
        for j in range(w, top + 1):
            slots[j][(mu, j - w)] = row[j]
    return tuple(PSeries._reduced(terms, 1, degree_bound) for terms in slots)


def q_bracket_series(degree_bound):
    """The sequence [q^[b]_0, ..., q^[b]_D]; q^[b]_0 = 1, q^[b]_1 = 2 p_1."""
    D = check_degree_bound(degree_bound)
    return _q_bracket_upto(D, D)


# degree_bound -> {(m, n): q^[b]_m q^[b]_n} for 1 <= m <= n, each product
# built when a Pfaffian cell first asks for it
_PRODUCTS: dict = {}


def _pair(qb, m, n, degree_bound):
    """q^[b]_m q^[b]_n, m, n >= 0, as a triple (f, 0, 1) standing for f.

    qb is a row of q^[b] at the bound that reaches both indices; rows that
    reach further agree with it.  The product commutes, so m <= n after a
    swap.  q^[b]_0 = 1, so a pair with a zero index is the other factor,
    not a product; the rest come from the memoised table of the bound.
    """
    if m > n:
        m, n = n, m
    if not m:
        return qb[n], 0, 1
    table = _PRODUCTS.setdefault(degree_bound, {})
    f = table.get((m, n))
    if f is None:
        f = table[(m, n)] = qb[m] * qb[n]
    return f, 0, 1


def _g_entry(i, j, li, lj, degree_bound):
    """Entry (i, j) of zeta: q^[b]_{li-p} q^[b]_{lj-q} contracted against
    g_table(i, j).

    lj is None in the padding column, which contracts q^[b]_{li-p} against
    the univariate table of (1+bz)^{-i} along the routes' own row of q^[b].
    Otherwise laurent.contract takes one combination over memoised
    generator products, q^[b]_{li-p} q^[b]_{lj-q} from _pair.  The window
    (li, lj) keeps both indices >= 0, and they reach li + lj: the row of
    q^[b] runs to max(D, li + lj), truncated past D, which is the routes'
    own row unless li + lj > D.
    """
    D = degree_bound
    if lj is None:
        qb = q_bracket_series(D)
        return combination(((qb[li - p], p, c) for p, c in _univariate(li, i).items()), D)
    qb = _q_bracket_upto(max(D, li + lj), D)
    return contract(g_table(i, j, (li, lj)),
                    lambda p, q: _pair(qb, li - p, lj - q, D), D)


def o_two_index(a, b, degree_bound):
    """The two-row dual o_(a,b): a quarter of [u^a v^b] of the block

        Psi(u,v) = (1+bu)^{-1} (1+bv)^{-2} q^[b](u) q^[b](v)
                   (u - v) / (u + v + b u v),

    v ascending: a quarter of zeta's entry at (i, j) = (1, 2), the
    entry o_pfaffian_1 builds for lambda = (a, b).  Zero whenever b < 0 or
    a + b < 0: every row of the kernel table sits on q >= 0, p >= -q, and
    q^[b] has no negative indices.  The 1/4 makes o_(a,b) = o_{(a,b)} for
    a > b >= 0 and lets the second Pfaffian formula run without a global
    scale.  It is one combination over memoised generator products, shared
    with o_pfaffian_1's entries.
    """
    return _o_two_index(_check_int(a, "a"), _check_int(b, "b"), check_degree_bound(degree_bound))


@lru_cache(maxsize=None)
def _o_two_index(a, b, degree_bound):
    """o_two_index on checked arguments."""
    return _g_entry(1, 2, a, b, degree_bound) * Fraction(1, 4)


def o_pfaffian_1(lam, degree_bound):
    """o_lambda = 2^{-r} Pf(zeta) from g-table contractions of q^[b] rows."""
    lam = check_strict_weight(lam, degree_bound)
    D = degree_bound
    r = len(lam)
    pf = padded_pfaffian(lam, PSeries.one(D),
                         lambda i, j, li, lj: _g_entry(i, j, li, lj, D))
    return pf * Fraction(1, 2 ** r)


def o_pfaffian_2(lam, degree_bound):
    """o_lambda = Pf(kappa), kappa_{ij} a binomial twist of two-index blocks.

    kappa_{i,j} = sum_{k,l >= 0} C(1-i, k) C(2-j, l) b^{k+l}
                  o_(lambda_i - k, lambda_j - l),
    cut off by the vanishing floor of o_two_index (l <= lambda_j and
    k + l <= lambda_i + lambda_j).  Both upper entries are -n with n >= 0,
    so the weights are laurent's univariate tables, one per row and one
    per column of an entry, and none of them is zero.  Times the r = 2
    prefactor (1 + bu)^{-1} (1 + bv)^{-2} of o_(a,b), the twists are
    zeta's (1 + bu)^{-i} (1 + bv)^{-j}, so kappa_{i,j} is a quarter of
    zeta's entry.  The padding column carries
    kappa_{i,r+1} = sum_k C(1-i, k) b^k o_{lambda_i - k}, with the one-row
    duals o_n = (1/2) sum_t (-b)^t q^[b]_{n-t}, the u^n coefficient of
    (1/2) (1 + bu)^{-1} q^[b](u).  The twist multiplies that by
    (1 + bu)^{1-i}, and (1 + bu)^{1-i} (1 + bu)^{-1} = (1 + bu)^{-i}, so
        kappa_{i,r+1} = (1/2) sum_{s <= lambda_i} C(-i, s) b^s q^[b]_{lambda_i - s},
    half of zeta's padding column, and read from it.
    No overall power of 2: the quarter in o_two_index absorbs it.
    """
    lam = check_strict_weight(lam, degree_bound)
    D = degree_bound

    def entry(i, j, li, lj):
        if lj is None:
            return _g_entry(i, j, li, None, D) * Fraction(1, 2)
        top = li + lj
        rows, cols = _univariate(top, i - 1), _univariate(lj, j - 2)
        return combination(((o_two_index(li - k, lj - l, D), k + l, ck * cl)
                            for l, cl in cols.items()
                            for k, ck in rows.items() if k + l <= top), D)

    return padded_pfaffian(lam, PSeries.one(D), entry)


def _dual_ket(lam, lows, degree_bound):
    """2^{-r} <0| e^{H^[b]} R_1 R_2 ... R_r |0>, with a trailing
    e^{-theta} phihat_0 when r = l(lambda) is odd, R_i = e^{-theta} P_i,
    P_i = sum_{c=lows_i}^{lambda_i} w_i(c) phihat_c the row of
    fock._phihat_row.

    Built in bra form, as the star of <0| T^* P_r^* E ... P_1^* E with
    E = e^{-Theta} and T the trailing factor, and starred once; the
    contraction against <0| e^{H^[b]} runs in the bracket flavor.  The
    2^{-r} is the starting coefficient of the bra, so the exit's output is
    the result, with the ring verdict the exit gives it.
    <0| T^* = <0| phi_0 E = <0| phi_0: (phihat_0)^* = sum_m (-b/2)^m
    phi_m meets <0| as phi_0 alone, and e^{-Theta} fixes every bra of
    grade 0, since Theta only raises grades and none is above 0.  The E
    move left, X E^k = E^k (e^{k Theta} X e^{-k Theta}), so

        P_r^* E ... P_1^* E = E^r Y_r ... Y_1,  Y_i = e^{i Theta} P_i^* e^{-i Theta},

    and E^r meets the grade-0 bra <0| or <0| phi_0 and fixes it.  Each
    Y_i is one row action of finitely many plain modes per grade
    (fock._row_modes), so no exponential is built.
    """
    state = fock.FockState._reduced({((0,) if len(lam) % 2 else (), 0): 1}, 1 << len(lam))
    for i, (n, low) in reversed(tuple(enumerate(zip(lam, lows), 1))):
        state = fock._phihat_row(state, n, low, i)
    return vacuum_expectation(state, "bracket", degree_bound)


def o_fermionic(lam, degree_bound):
    """o_lambda as 2^{-r} <0| e^{H^[b]} |lambda>^g on the Fock side.

    |lambda>^g = e^{-theta} phihat_{l_1} e^{-theta} phihat_{l_2} ...
    acting on |0>, with a trailing e^{-theta} phihat_0 when r is odd: the
    ket of _dual_ket with every row a single mode, low = lambda_i.
    """
    lam = check_strict_weight(lam, degree_bound)
    return _dual_ket(lam, lam, degree_bound)


def bilinear_pair(f, g):
    """<f, g> for f in the paren ring and g (a polynomial) in the bracket ring.

    The paper's form pairs the deformed bases, <p^paren_lambda,
    p^bracket_mu> = delta_{lambda mu} z_lambda 2^{-l(lambda)} over odd
    lambda, mu.  It is the plain form <p_lambda, p_mu> = delta_{lambda mu}
    z_lambda 2^{-l(lambda)} on f and g themselves (Macdonald, Symmetric
    Functions and Hall Polynomials, I (4.7), with a factor 1/2 per part):

      * The plain form is the permanent of <p_n, p_m> = delta_{nm} n/2:
        <p_lambda, p_mu> sums, over the bijections between the parts of
        lambda and those of mu, the product of the values of paired parts.
        For lambda = mu, the prod_i m_i! bijections that match equal parts
        are worth prod_i lambda_i / 2 each, which gives z_lambda 2^{-l}.
      * So a ring map that sends each p_n to single power sums has for
        adjoint the ring map of the transposed matrix.  The paren image at
        b/2 sends p_n to sum_m C(m-1, m-n) (-b/2)^{m-n} p_m, the bracket
        image at -b/2 sends p_m to sum_n C(m, n) (-b/2)^{m-n} p_n, and
        (m/2) C(m-1, m-n) = (n/2) C(m, n): they are adjoint.
      * For f the paren image of h and g the bracket image of k,
        <f, g> = <h, bracket image of g at -b/2> = <h, k>, the form the
        paper puts on the deformed coordinates h and k.

    The form reads f only up to the top degree of g, so f must not be
    truncated below it.  Every term of g has |mu| <= g.degree_bound, so
    f.degree_bound >= g.degree_bound implies deg g <= f's bound, and deg g
    is read only for a smaller f bound.  Each argument must lie in its
    ring, as bases._check_ring finds once per series.  Matching terms n_f,
    n_g of the store weigh 1 / (z_mu 2^{l(mu)}), an int over one scale
    D! 2^D for g's bound D, as z_mu | |mu|! | D! and 2^{l(mu)} | 2^D: int
    sums over both dens and the scale, one Fraction per b-power, handed
    out as a BetaScalar.
    """
    for name, arg in (("f", f), ("g", g)):
        if not isinstance(arg, PSeries):
            raise TypeError(f"bilinear_pair needs PSeries arguments, "
                            f"got {type(arg).__name__} for {name}")
    D = g.degree_bound
    if f.degree_bound < D and f.degree_bound < (g.top_degree() or 0):
        raise ValueError("first argument is truncated below deg of the second")
    _check_ring(f, "paren")
    _check_ring(g, "bracket")
    right = _by_partition(g.terms)
    common = factorial(D) << D
    total: dict = {}
    for (mu, ka), a in f.terms.items():
        got = right.get(mu)
        if got:
            a *= common // (z_lambda(mu) << len(mu))
            for kb, b in got:
                total[ka + kb] = total.get(ka + kb, 0) + a * b
    scale = common * f.den * g.den
    return _from_monomials((k, Fraction(n, scale)) for k, n in total.items())


def gp(lam, degree_bound):
    """gp_lambda, the dual basis to GQ: <GQ_lambda, gp_mu> = delta_{lambda,mu}.

    In closed form, gp_lambda = sum_nu (-1)^{d - r} (b/2)^d o_nu, summed over
    the strict nu that interlace lambda,
        lambda_1 >= nu_1 > lambda_2 >= nu_2 > ... > lambda_r >= nu_r >= 0,
    with d = |lambda| - |nu| and r the number of rows where nu_i < lambda_i
    (lambda/nu is a shifted horizontal strip).  This inverts the pairing
    matrix M_{mu,nu} = <GQ_mu, o_nu>:

      * M_{mu,nu} = prod_i m(mu_i, nu_i), with rows padded by zeros,
        m(a, a) = 1, m(a, c) = (-b)^{c-a} / 2 for c > a, and 0 for c < a.
      * One row inverts by n(c, c) = 1, n(c, l) = -(-b/2)^{l-c} for c < l:
        with T = -b t the generating functions sum_c m(a, c) t^{c-a} =
        (1 - T/2) / (1 - T) and sum_c n(c, l) t^{l-c} are reciprocal, so
        sum_{a <= c <= l} m(a, c) n(c, l) = delta(a, l).
      * The interlacing nu form a product of ranges, nu_i in
        [lambda_{i+1} + 1, lambda_i] for i < r and nu_r in [0, lambda_r],
        so with N_{nu,lambda} = prod_i n(nu_i, lambda_i), the entry
        sum_nu M_{mu,nu} N_{nu,lambda} for a strict mu inside lambda is a
        product of one sum per row.
      * A row with mu_i > lambda_{i+1}, and the last row, sums over all of
        [mu_i, lambda_i] and gives delta(mu_i, lambda_i).
      * If mu != lambda, take the last row i with mu_i != lambda_i.  Either
        i = r, or mu_{i+1} = lambda_{i+1} and, mu being strict, mu_i >
        lambda_{i+1}: either way that row gives 0.
    Hence MN = I.  By duality o_nu = sum_mu M_{mu,nu} gp_mu, so gp = oN.

    The column factors over rows, and so does the ket: o_nu = 2^{-l(nu)}
    <0| e^{H^[b]} |nu>^g, and |nu>^g is one e^{-theta} phihat_{nu_i} per row
    (see o_fermionic).  A nu with nu_r = 0 has r - 1 rows, so
      * its 2^{-l(nu)} is 2^{-r} times 2: the c = 0 term of the last row is
        doubled;
      * its ket is that of r rows with phihat_0 in the last one, since for
        even r the trailing e^{-theta} phihat_0 of r - 1 rows is that row,
        and for odd r it meets the trailing one of r rows and
        (e^{-theta} phihat_0)^2 |0> = |0>.
    Hence gp_lambda = 2^{-r} <0| e^{H^[b]} R_1 ... R_r |0> (r odd: a trailing
    e^{-theta} phihat_0), with R_i = e^{-theta} sum_c n(c, lambda_i) phihat_c
    over c in [lambda_{i+1} + 1, lambda_i], the last row over [0, lambda_r]
    with c = 0 doubled: one ket and one exit, as o_fermionic's with wider
    rows, and no o_nu is computed.
    """
    lam = check_strict_weight(lam, degree_bound)
    return _dual_ket(lam, (*(below + 1 for below in lam[1:]), 0), degree_bound)
