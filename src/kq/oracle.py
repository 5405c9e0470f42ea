"""Finite-variable symmetrization oracle for the K-theoretic Q-polynomials.

GQ_lambda(x_1..x_n) = 1/(n-r)! sum_{w in S_n} w[ [[x_1]]^{l_1} ... [[x_r]]^{l_r}
prod_{i<=r, j>i} (x_i + x_j + b x_i x_j)(1 + b x_j)/(x_i - x_j) ].

Multiplying through by the Vandermonde V = prod_{i<j}(x_i - x_j) clears every
denominator and turns the signed sum into A(P0 * V_B), where A is the
antisymmetrizer, V_B the Vandermonde of the last n-r variables, and

  P0 = prod_i [[x_i]]^{l_i} * prod_{i<=r, j>i} (x_i + x_j + b x_i x_j)(1 + b x_j)

a plain polynomial, symmetric in the last n-r variables.  V_B is the
signed sum of the block permutations of x^{delta_B}, with
delta_B = (0^r, n-r-1, ..., 1, 0) the staircase on the block, and A absorbs
each of them with its sign, because P0 is block-symmetric.  So
A(P0 V_B) = (n-r)! A(P0 x^{delta_B}), the factorials cancel, and

  GQ_lambda = A(P0 x^{delta_B}) / V.

On a monomial this is Jacobi's bialternant (Macdonald, Symmetric Functions
and Hall Polynomials, I.3): A(x^alpha)/V is zero when two exponents of
alpha are equal, and otherwise sgn(w) s_nu, where w sorts alpha into
decreasing order nu + delta, delta = (n-1, ..., 1, 0).  So GQ_lambda =
sum_nu c_nu s_nu(x_1..x_n), c_nu in Z[b] the signed sum of the
coefficients that land on nu.  These c_nu are the answer, in Schur
coordinates (finitevars.SymmetricPoly), keyed by nu without its zero
parts and by the b-power.  No monomial coordinate is needed on the way to
power sums: s_nu = sum_mu chi^nu(mu) p_mu / z_mu with integer characters,
which finitevars.from_finite reads by the Murnaghan-Nakayama rule.

With r = len(lambda), P0 splits into a head and one factor per tail
variable:

  P0 = H(x_1..x_r) * prod_{j>r} G(x_j),
  H = prod_i [[x_i]]^{l_i} * prod_{i<j<=r} (x_i + x_j + b x_i x_j)(1 + b x_j),
  G(t) = prod_{i<=r} (x_i + t + b x_i t)(1 + b t).

Each factor of G is (1 + b t)(x_i + u) with u = t/(1 + b t), so

  G(t) = (1 + b t)^{2r} prod_i (x_i + u)
       = sum_{k<=r} e_{r-k}(x_1..x_r) sum_s C(2r-k, s-k) b^{s-k} t^s,

e_j the elementary symmetric polynomial of the head, and G is symmetric in
the head.  So is T = prod_{j>r} G(x_j) x^{delta_B}.  Write A_H for the
antisymmetrizer of the head variables and a_e = A_H(x^e) for the head
alternant.  For pi in S_r, A(pi(H) T) = A(pi(H T)) = sgn(pi) A(H T), and
summing over pi gives A(H T) = A(A_H(H) T)/r!; the same step read backwards
gives A(a_e T) = r! A(x^e T).  So H enters only through A_H(H): each
monomial c x^e b^k of H becomes sgn(e) c a_gamma, gamma the exponents of e
sorted down and sgn(e) the sign of that sort, or nothing when two
exponents of e are equal.  The head is then a sum of alternants, kept as
the mask of gamma's exponent set, and it stays one, since multiplying by
e_j keeps it in that form (Pieri on alternants, Macdonald I.3):
a_gamma e_j = sum_{|S|=j} a_{gamma + 1_S}, where gamma + 1_S is still
decreasing and is dropped when it repeats an exponent; _bumps lists
these masks.

The tail variables are multiplied in in order, x_{r+1} first with its
shift n-r-1 and the last one with 0, each term k, s of G(x_j) setting
tail bit s + the shift.  A bit that is already set repeats an exponent and
is dropped.  So the whole state is {(head mask, tail mask, b-power): c},
c the coefficient of a_gamma times the tail monomial whose exponents, in
the order the variables came, are the tail bits.  Its alpha is gamma
followed by the tail, and the sign of sorting it down has two parts: a
tail bit t that comes after the bits below it adds the number of those
bits, the tail's inversions, when it is set; and, at the end, each head
exponent e adds the tail bits above e.  A state whose head and tail share
a bit repeats an exponent and is dropped there, not sooner, since a later
e_j may still move the head bit.  Every survivor lands on nu + delta =
the bits of head | tail.

Truncation is decided once, on P0.  Dividing by V lowers the x-degree by
n(n-1)/2 and x^{delta_B} raises it by (n-r)(n-r-1)/2, so s_nu has the
x-degree of its P0 monomial minus s = n(n-1)/2 - (n-r)(n-r-1)/2, the
number of pairs i<=r, j>i.  The output's x-degree <= T part therefore comes
from P0's x-degree <= T + s part and from nothing else.  Every factor of P0
has x-degree - beta-degree constant on its monomials (l_i for
[[x_i]]^{l_i}, 1 for the expanded pair factor
x_i + x_j + 2b x_i x_j + b x_j^2 + b^2 x_i x_j^2, r for each term
e_{r-k} b^{s-k} t^s of G), and these constants add up to |lambda| + s.
So on P0, beta-degree <= T - |lambda| is the same as x-degree <= T + s.
The beta-degree only grows as factors are multiplied in, and the head fold
and the Pieri rule keep it, so gq_oracle drops every term of H and every
state above that beta cap, and keeps the rest.  No term of P0 has a
beta-degree above r(2n - r), b in each [[x_i]] and b^2 in each of its
r n - r(r+1)/2 pair factors, so the cap is never set higher, and the
table of G's terms by the b-power of a state stays that short even for a
trunc far above the degree.

This module is the package's independent referee: it never touches Fock
space, power sums, kernels, or Pfaffians.  finitevars.from_finite reads its
answer into power sums.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .finitevars import SymmetricPoly
from .partitions import check_degree_bound, check_partition


def _times(poly, factor, bcap):
    """poly * factor on {(exponent tuple, b-power): c}, cut above b^bcap;
    factor lists ({variable: exponent step}, b step, c)."""
    out = {}
    for (e, k), c in poly.items():
        for step, kb, w in factor:
            if k + kb <= bcap:
                key = (tuple(x + step.get(i, 0) for i, x in enumerate(e)), k + kb)
                out[key] = out.get(key, 0) + c * w
    return out


@lru_cache(maxsize=None)
def _bumps(mask, j):
    """The masks of a_gamma e_j, gamma the set bits of mask sorted down: the
    gamma + 1_S over the j-subsets S of gamma's parts with no repeated
    exponent, each with coefficient 1 (Pieri on alternants)."""
    if not j:
        return (mask,)
    if not mask:
        return ()
    top = mask.bit_length() - 1
    # the top part moves up past every other, or stays where a bumped
    # part below must not land
    return (tuple(m | 2 << top for m in _bumps(mask ^ 1 << top, j - 1))
            + tuple(m | 1 << top for m in _bumps(mask ^ 1 << top, j) if not m >> top & 1))


def _tail_terms(r, bcap):
    """G(t) = sum_s t^s sum_k C(2r-k, s-k) b^{s-k} e_{r-k}(x_1..x_r), for a
    state at each b^kb, kb <= bcap: the (s, [(r-k, kb + s-k, C(2r-k, s-k))])
    whose b-power stays within bcap, and no s without any."""
    return [[(s, [(r - k, kb + s - k, comb(2 * r - k, s - k))
                  for k in range(max(0, s - bcap + kb), min(s, r) + 1)])
             for s in range(min(2 * r, r + bcap - kb) + 1)] for kb in range(bcap + 1)]


def gq_oracle(lam, nvars: int, trunc: int | None = None) -> SymmetricPoly:
    """GQ_lambda(x_0..x_{nvars-1}) in Schur coordinates, exact for total
    x-degree <= trunc.

    trunc defaults to nvars; both must be integers >= 0.  The result
    carries no terms above trunc.  Zero when the partition has more rows
    than there are variables.
    """
    lam = check_partition(lam, strict=True)
    nvars = check_degree_bound(nvars, "variable count")
    trunc = nvars if trunc is None else check_degree_bound(trunc, "trunc")
    r = len(lam)
    if r > nvars or sum(lam) > trunc:
        return SymmetricPoly._reduced({}, 1, nvars)
    # P0 to x-degree <= trunc + its pairs i <= r, j > i, and no higher than
    # its top b-degree: b in each [[x_i]], b^2 in each of the pairs
    bcap = min(trunc - sum(lam), r * (2 * nvars - r))
    head = {(lam, 0): 1}
    for a in range(r):  # [[x_a]]^{l_a} = x_a^{l_a} (2 + b x_a), then the pairs c < a
        head = _times(head, [({}, 0, 2), ({a: 1}, 1, 1)], bcap)
        for c in range(a):
            head = _times(head, [({c: 1}, 0, 1), ({a: 1}, 0, 1), ({c: 1, a: 1}, 1, 2),
                                 ({a: 2}, 1, 1), ({c: 1, a: 2}, 2, 1)], bcap)
    state = {}
    for (e, k), c in head.items():  # A_H(x^e) = sgn(e) a_gamma, or 0
        mask = sum(1 << x for x in e)
        if mask.bit_count() == r:
            odd = sum(x < y for i, x in enumerate(e) for y in e[i + 1:]) & 1
            state[(mask, 0, k)] = state.get((mask, 0, k), 0) + (-c if odd else c)
    terms = _tail_terms(r, bcap)
    for shift in range(nvars - r - 1, -1, -1):
        grown = {}
        for (hm, tm, kb), c in state.items():
            for s, g in terms[kb]:
                t = s + shift
                if tm >> t & 1:  # the exponent is taken
                    continue
                v = -c if (tm & (1 << t) - 1).bit_count() & 1 else c
                tail = tm | 1 << t
                for j, b, w in g:
                    for m in _bumps(hm, j):
                        key = (m, tail, b)
                        grown[key] = grown.get(key, 0) + w * v
        state = grown
    schur = {}
    for (hm, tm, k), c in state.items():
        if c and not hm & tm:
            odd, h = 0, hm
            while h:  # each head exponent e before the tail bits above it
                low = h & -h
                odd += (tm & -(low << 1)).bit_count()
                h ^= low
            schur[hm | tm, k] = schur.get((hm | tm, k), 0) + (-c if odd & 1 else c)
    return SymmetricPoly._reduced({(_nu(m), k): c for (m, k), c in schur.items() if c}, 1, nvars)


def _nu(mask):
    """nu, zero parts left out, from nu + delta = the set bits of mask sorted
    down, delta = (n-1, ..., 1, 0) for the n bits set."""
    top, below = mask.bit_length() - 1, mask.bit_count() - 1
    return (top - below,) + _nu(mask ^ 1 << top) if top > below else ()  # else mask is delta
