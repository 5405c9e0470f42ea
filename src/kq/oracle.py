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
decreasing order nu + delta, delta = (n-1, ..., 1, 0).  So one pass over P0
gives GQ_lambda = sum_nu c_nu s_nu(x_1..x_n), c_nu in Z[b] the signed sum of
P0's coefficients that land on nu.  These c_nu are the answer, in Schur
coordinates (finitevars.SymmetricPoly), keyed by nu without its zero
parts and by the b-power.  No monomial coordinate is needed on the way to
power sums: s_nu = sum_mu chi^nu(mu) p_mu / z_mu with integer characters,
which finitevars.from_finite reads by the Murnaghan-Nakayama rule.

P0 is never written out monomial by monomial.  With r = len(lambda),

  P0 = H(x_1..x_r) * prod_{j>r} G(x_j),
  H = prod_i [[x_i]]^{l_i} * prod_{i<j<=r} (x_i + x_j + b x_i x_j)(1 + b x_j),
  G(t) = prod_{i<=r} (x_i + t + b x_i t)(1 + b t),

and the tail product is kept in orbit form, {(h, T): c}: h a head monomial
with its b-power, T a sorted multiset of n-r tail exponents, and c the
coefficient of every monomial x^h x_tail^sigma, sigma a rearrangement of T.
The G(x_j) are multiplied in one at a time.  A term (h, T) meets a term
g t^e of G only when e <= min(T), and lands on (h g, (e,) + T).  The new
variable then holds the least exponent of the target multiset, and the
old ones hold the rest.  So each target's coefficient is written exactly
once, from its one source multiset.  Scattering over every distinct part
of the target would count it once per distinct part.

The bialternant pass runs once per orbit, not once per monomial.  For a
tail multiset T, with m = n-r and delta_m = (m-1, ..., 1, 0), the table
sum_sigma a_{sigma + delta_m} over the distinct rearrangements sigma of T is
a signed count per decreasing gamma (a_alpha = sgn(w) a_gamma, w sorting
alpha).  It is computed once per T: the first entry of sigma runs over
the distinct parts of T, and the rest is the table of T without it
(Laplace expansion along the first tail position).  So only the sigma
whose exponents stay distinct are ever visited.

Exponent sets are bitmasks.  Each gamma of a table is one, and each head
monomial h gets the mask of its r exponents, or none when two of them are
equal, since then every alpha it heads repeats an exponent.  A pair
(h, gamma) survives iff its masks are disjoint.  Its sign is the parity
of the inversions of alpha = (h, gamma), which all start in the head since
gamma decreases: those inside h, plus, for each exponent e of h, the bits
of gamma above e.  Parities add, so the latter have the parity of the bits
of gamma & X, X the XOR over the e of the masks of the bits above e.  The
pair adds its signed count times h's coefficient to the union mask, keyed
with h's b-power, and nu = sort(h, gamma) - delta is read off the bits
once per key that survives.  After the fold below, a pair is a head class
and gamma, and the coefficient is the class's signed sum.

The heads of one tail are folded by exponent set before they meet its
table.  Two heads h, h' with the same set differ by a permutation pi of
the head variables, and so a_(h', gamma) = sgn(pi) a_(h, gamma) for every
gamma: the inversions between head and gamma count the pairs e < g with e
in the head and g in gamma, which depend on the set alone, and only the
inversions inside the head change.  So the pass needs only the sum of
sgn(h) c_h, sgn(h) the sign of sorting h down, over the heads of each
(set, b-power) class, and each class meets the table once; a class whose
sum is zero (they occur, e.g. lambda = (3,2,1), n = 3, trunc 6) is
skipped.  The mask, the sort's sign and X are computed once per x-part of
a head key, the key without its beta field, and a class is keyed by its
b-power and the first x-part seen with its set.

Truncation is decided once, on P0.  Dividing by V lowers the x-degree by
n(n-1)/2 and x^{delta_B} raises it by (n-r)(n-r-1)/2, so s_nu has the
x-degree of its P0 monomial minus s = n(n-1)/2 - (n-r)(n-r-1)/2, the
number of pairs i<=r, j>i.  The output's x-degree <= T part therefore comes
from P0's x-degree <= T + s part and from nothing else.  Every factor of P0
has x-degree - beta-degree constant on its monomials (l_i for
[[x_i]]^{l_i}, 1 for the expanded pair factor
x_i + x_j + 2b x_i x_j + b x_j^2 + b^2 x_i x_j^2, r for G), and these
constants add up to |lambda| + s.  So on P0, beta-degree <= T - |lambda| is
the same as x-degree <= T + s.  The beta-degree only grows as factors are
multiplied in, so gq_oracle drops every term of a partial product above
that beta cap, H, G and the orbit products alike, and keeps the rest; the
pass needs no cap.

Head monomials are packed into single integers, six bits per x exponent of
x_1..x_r, with the beta exponent above them on top, so that multiplication
of monomials is integer addition.  Tail exponents are tuple entries and
need no field, and the pass's masks are as wide as their exponents.  A
field that overflowed would carry into its neighbour and silently change
the answer, so gq_oracle raises ValueError unless
min(T + s, top x-degree of P0) fits in a field.  A raw product of two kept
monomials can still overflow when P0 is of higher degree, but it cannot
survive.  Its x-degree, head and tail together, then exceeds T + s, and
since a partial product has x-degree - beta-degree <= |lambda| + s, its
beta-degree exceeds the cap.  A carry only raises the beta field, which is
read as everything above the x fields, so the beta check drops the term.
G itself is built in r + 1 fields, t on the last, under the same cap, and
the same argument covers its fields, since G is one of P0's factors.

This module is the package's independent referee: it never touches Fock
space, power sums, kernels, or Pfaffians.  finitevars.from_finite reads its
answer into power sums.
"""

from __future__ import annotations

from functools import lru_cache

from .finitevars import SymmetricPoly
from .partitions import check_degree_bound, check_partition

# key layout, least significant first: x_0 .. x_{n-1}, then beta on top;
# gq_oracle packs the r head variables only
_W = 6
_MASK = (1 << _W) - 1


def _check_fits(top):
    """Raise unless exponents up to top fit the key fields."""
    if top > _MASK:
        raise ValueError(f"exponents up to {top} do not fit the oracle's "
                         f"{_W}-bit key fields (at most {_MASK})")


def _p0_degree(lam, n):
    """Top x-degree of P0: [[x_i]]^{l_i} has l_i + 1, each pair factor 3."""
    r = len(lam)
    pairs = r * n - r * (r + 1) // 2
    return sum(lam) + r + 3 * pairs


def _bracket_power(n, a, power):
    """[[x_a]]^p = (2 + b x_a) x_a^p; p >= 1 here."""
    x = _W * a
    return {power << x: 2, (1 << _W * n) + ((power + 1) << x): 1}


def _pair_factor(n, a, c):
    """(x_a + x_c + b x_a x_c)(1 + b x_c), expanded into its five terms."""
    xa = 1 << _W * a
    xc = 1 << _W * c
    b = 1 << _W * n
    return {xa: 1, xc: 1, b + xa + xc: 2, b + 2 * xc: 1, 2 * b + xa + 2 * xc: 1}


def _mul(a, b, n, bcap):
    """Product of packed polynomials without the terms of beta degree > bcap.

    The beta field is read as everything above the x fields, so a carry
    out of an overflowing x field can only make it read higher.  Every
    factor gq_oracle multiplies has positive coefficients, so no term
    cancels and none is filtered out.
    """
    limit = (bcap + 1) << _W * n  # the first key of beta degree bcap + 1
    out = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            key = ka + kb
            if key < limit:
                out[key] = get(key, 0) + ca * cb
    return out


def _tail_product(head, r, m, bcap):
    """head * G(x_r) ... G(x_{r+m-1}) as {T: {head key: c}}.

    T is a tail multiset sorted increasingly, and c the coefficient of each
    monomial x_tail^sigma, sigma a rearrangement of T.  Each factor scatters
    (h, T) * (g, e) only when e <= min(T): the new variable holds the least
    exponent of (e,) + T, so each target multiset is written exactly once.
    G(t) = prod_{i<r} (x_i + t + b x_i t)(1 + b t) is built in r + 1 fields,
    t on field r, and split by the power of t into head polynomials, b
    re-packed on top of the r head fields.
    """
    g = {0: 1}
    for i in range(r):
        g = _mul(g, _pair_factor(r + 1, i, r), r + 1, bcap)
    by_power = {}
    for key, c in g.items():
        h = (key & (1 << _W * r) - 1) | (key >> _W * (r + 1) << _W * r)
        by_power.setdefault((key >> _W * r) & _MASK, {})[h] = c
    factor = sorted(by_power.items())
    orbits = {(): head}
    for _ in range(m):
        grown = {}
        for tail, poly in orbits.items():
            for e, part in factor:
                if tail and e > tail[0]:
                    break
                prod = _mul(poly, part, r, bcap)
                if prod:
                    grown[(e,) + tail] = prod
        orbits = grown
    return orbits


@lru_cache(maxsize=None)
def _alternant(tail):
    """sum_sigma a_{sigma + delta}, delta = (m-1, ..., 1, 0), over the distinct
    rearrangements sigma of the sorted tail, as ((gamma mask, count), ...).

    Each a_alpha is written as sgn(w) a_gamma, w sorting alpha into gamma
    decreasing, and an alpha with two equal exponents is dropped; the
    exponents of gamma are the set bits of its mask.  sigma_0 runs over the
    distinct parts v of tail and the rest is the table of tail without v,
    so a_(v + m-1, gamma') = (-1)^#{e in gamma' : e > v + m-1} a_gamma: only
    the sigma whose exponents stay distinct are visited.
    """
    out = {} if tail else {0: 1}
    for v, i in {v: i for i, v in enumerate(tail)}.items():  # each distinct part once
        a = v + len(tail) - 1
        for gm, c in _alternant(tail[:i] + tail[i + 1:]):
            if not gm >> a & 1:
                key = gm | 1 << a
                out[key] = out.get(key, 0) + (-c if (gm >> a + 1).bit_count() & 1 else c)
    return tuple(item for item in out.items() if item[1])


def gq_oracle(lam, nvars: int, trunc: int | None = None) -> SymmetricPoly:
    """GQ_lambda(x_0..x_{nvars-1}) in Schur coordinates, exact for total
    x-degree <= trunc.

    trunc defaults to nvars; both must be integers >= 0.  The result
    carries no terms above trunc.  Zero when the partition has more rows
    than there are variables.
    """
    lam = check_partition(lam, strict=True)
    nvars = check_degree_bound(nvars, "variable count")
    trunc = nvars if trunc is None else check_degree_bound(trunc)
    r = len(lam)
    if r > nvars or sum(lam) > trunc:
        return SymmetricPoly._reduced({}, 1, nvars)
    if not lam:  # GQ_() = 1, and a tail of nvars parts would recurse nvars deep
        return SymmetricPoly._reduced({((), 0): 1}, 1, nvars)
    drop = r * nvars - r * (r + 1) // 2  # x-degree lost from P0 to the output
    # the beta cap keeps P0 to x-degree <= trunc + drop, all that the
    # output's x-degree <= trunc part comes from
    _check_fits(min(trunc + drop, _p0_degree(lam, nvars)))
    bcap = trunc - sum(lam)
    head = {0: 1}
    for i, part in enumerate(lam):
        head = _mul(head, _bracket_power(r, i, part), r, bcap)
    for i in range(r):
        for j in range(i + 1, r):
            head = _mul(head, _pair_factor(r, i, j), r, bcap)
    orbits = _tail_product(head, r, nvars - r, bcap)
    # each x-part (a head key without its b-field) with distinct exponents
    # -> (the shift onto the first x-part seen with its exponent set, the
    # sign of sorting it down, the set's mask, X = the XOR over the set of
    # the bits above each exponent); bit e of X over the exponents before e
    # is the parity of those below e, the inversions that e adds
    xbits = (1 << _W * r) - 1
    heads, first = {}, {}
    for x in {h & xbits for h in set().union(*orbits.values())}:
        mask = odd = above = 0
        for e in [x >> _W * i & _MASK for i in range(r)]:
            odd ^= above >> e & 1
            above ^= -1 << e + 1
            mask |= 1 << e
        if mask.bit_count() == r:  # else two exponents are equal
            heads[x] = (first.setdefault(mask, x) - x, -1 if odd else 1, mask, above)
    schur = {}
    for tail, poly in orbits.items():
        # heads with one exponent set and b-power fold onto one key, each
        # signed by its own sort, and the class meets the table once
        classes = {}
        for h, c in poly.items():
            if head := heads.get(h & xbits):
                key = h + head[0]
                classes[key] = classes.get(key, 0) + head[1] * c
        table = _alternant(tail)
        for key, c in classes.items():
            if c:
                _, _, hm, above = heads[key & xbits]
                k = key >> _W * r
                for gm, count in table:
                    if not hm & gm:  # else alpha repeats an exponent
                        at = (hm | gm, k)
                        v = -count * c if (gm & above).bit_count() & 1 else count * c
                        schur[at] = schur.get(at, 0) + v
    return SymmetricPoly._reduced({(_nu(m), k): c for (m, k), c in schur.items() if c}, 1, nvars)


def _nu(mask):
    """nu, zero parts left out, from nu + delta = the set bits of mask sorted
    down, delta = (n-1, ..., 1, 0) for the n bits set."""
    top, below = mask.bit_length() - 1, mask.bit_count() - 1
    return (top - below,) + _nu(mask ^ 1 << top) if top > below else ()  # else mask is delta

