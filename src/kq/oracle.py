"""Finite-variable symmetrization oracle for the K-theoretic Q-polynomials.

GQ_lambda(x_1..x_n) = 1/(n-r)! sum_{w in S_n} w[ [[x_1]]^{l_1} ... [[x_r]]^{l_r}
prod_{i<=r, j>i} (x_i + x_j + b x_i x_j)(1 + b x_j)/(x_i - x_j) ].

Multiplying through by the Vandermonde V = prod_{i<j}(x_i - x_j) clears every
denominator and turns the signed sum into A(P0 * V_B), where A is the
antisymmetrizer, V_B the Vandermonde of the last n-r variables, and

  P0 = prod_i [[x_i]]^{l_i} * prod_{i<=r, j>i} (x_i + x_j + b x_i x_j)(1 + b x_j)

a plain polynomial, symmetric in the last n-r variables.  A(f)/V is the
divided difference of the longest permutation w0, and the block factors out:
d_{w0} = d_u d_{w0,B} with u = w0 * w0,B, while d_{w0,B}(P0 V_B) = (n-r)! P0.
The factorials cancel, leaving

  GQ_lambda = d_u(P0),

a composition of only len(u) = n(n-1)/2 - (n-r)(n-r-1)/2 steps
d_i f = (f - s_i f)/(x_i - x_{i+1}).  Each step has a closed form on a
monomial (Macdonald, Notes on Schubert Polynomials, 1991): with a, c the
exponents of x_i, x_{i+1},

  d_i(x_i^a x_{i+1}^c) = (x_i x_{i+1})^min(a,c) sum_{t<|a-c|} x_i^{|a-c|-1-t} x_{i+1}^t,

negated when c > a and zero when a = c, so a step is one pass over the
monomials and lowers the x-degree of each by exactly one.

Truncation is therefore decided once, on P0.  The output's x-degree <= T
part comes from P0's x-degree <= T + len(u) part and from nothing else.
Every factor of P0 has x-degree - beta-degree constant on its monomials
(l_i for [[x_i]]^{l_i}, 1 for x_i + x_j + b x_i x_j, 0 for 1 + b x_j), and
these constants add up to |lambda| + len(u).  So on P0, beta-degree
<= T - |lambda| is the same as x-degree <= T + len(u).  The beta-degree
only grows as factors are multiplied in, so gq_oracle drops every term of
a partial product above that beta cap and keeps the rest, and no later
step needs a cap.

Monomials are packed into single integers, six bits per x exponent, with
the beta exponent above them on top, so that multiplication of monomials
is integer addition.  A field that overflowed would carry into its
neighbour and silently change the answer, so gq_oracle raises ValueError
unless min(T + len(u), top x-degree of P0) fits in a field.  A raw product
of two kept monomials can still overflow when P0 is of higher degree, but
it cannot survive.  Its x-degree then exceeds T + len(u), and since a
partial product has x-degree - beta-degree <= |lambda| + len(u), its
beta-degree exceeds the cap.  A carry only raises the beta field, which is
read as everything above the x fields, so the beta check drops the term.

This module is the package's independent referee: it never touches Fock
space, power sums, kernels, or Pfaffians.
"""

from __future__ import annotations

from fractions import Fraction

from .finitevars import FinitePoly
from .partitions import check_degree_bound, check_partition

# key layout, least significant first: x_0 .. x_{n-1}, then beta on top
_W = 6
_MASK = (1 << _W) - 1


def _mono(n, beta, exps):
    key = beta << (_W * n)
    for i, e in enumerate(exps):
        key |= e << (_W * i)
    return key


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


def _one(n):
    return {0: 1}


def _bracket_power(n, a, power):
    """[[x_a]]^p = (2 + b x_a) x_a^p; p >= 1 here."""
    lo = [0] * n
    lo[a] = power
    hi = list(lo)
    hi[a] += 1
    return {_mono(n, 0, lo): 2, _mono(n, 1, hi): 1}


def _oplus(n, a, b):
    """x_a + x_b + beta x_a x_b."""
    ea = [0] * n
    ea[a] = 1
    eb = [0] * n
    eb[b] = 1
    eab = [0] * n
    eab[a] = 1
    eab[b] = 1
    return {_mono(n, 0, ea): 1, _mono(n, 0, eb): 1, _mono(n, 1, eab): 1}


def _one_plus_beta(n, b):
    eb = [0] * n
    eb[b] = 1
    return {0: 1, _mono(n, 1, eb): 1}


def _mul(a, b, n, bcap):
    """Product of packed polynomials without the terms of beta degree > bcap.

    The beta field is read as everything above the x fields, so a carry
    out of an overflowing x field can only make it read higher.
    """
    betas = _W * n
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            if key >> betas > bcap:
                continue
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _divided_difference(poly, i):
    """(f - s_i f)/(x_i - x_{i+1}) by the closed form, one pass over f.

    A monomial with exponents a, c of x_i, x_{i+1} yields |a - c| monomials
    one key step apart, negated when c > a.
    """
    lo = _W * i
    hi = lo + _W
    step = (1 << hi) - (1 << lo)  # x_{i+1} / x_i
    out = {}
    for k, v in poly.items():
        a = (k >> lo) & _MASK
        c = (k >> hi) & _MASK
        if a > c:
            key = k - (1 << lo)
            move = step
            count = a - c
        elif c > a:
            key = k - (1 << hi)
            move = -step
            v = -v
            count = c - a
        else:
            continue
        for _ in range(count):
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                del out[key]
            key += move
    return out


def _coset_word(n, r):
    """Divided-difference word for u = w0 * w0_block, applied left first.

    u sends i -> n-1-i for i < r and shifts the tail down by r; sorting it
    by adjacent swaps, one descent at a time, spells out a reduced word.
    """
    w = list(range(n - 1, n - 1 - r, -1)) + list(range(n - r))
    word = []
    moved = True
    while moved:
        moved = False
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                word.append(i)
                w[i], w[i + 1] = w[i + 1], w[i]
                moved = True
                break
    return word


def _to_finite(raw, n) -> FinitePoly:
    """The packed {key: int} polynomial as a FinitePoly, one term per key."""
    terms = {}
    for k, c in raw.items():
        xkey = tuple((k >> (_W * i)) & _MASK for i in range(n))
        terms[(xkey, k >> (_W * n))] = Fraction(c)
    return FinitePoly._from_flat(n, terms)


def gq_oracle(lam, nvars: int, trunc: int | None = None) -> FinitePoly:
    """GQ_lambda(x_0..x_{nvars-1}), exact for total x-degree <= trunc.

    trunc defaults to nvars; both must be integers >= 0.  The result
    carries no terms above trunc.  Zero when the partition has more rows
    than there are variables.
    """
    lam = check_partition(lam, strict=True)
    nvars = check_degree_bound(nvars, "variable count")
    trunc = nvars if trunc is None else check_degree_bound(trunc)
    r = len(lam)
    if r > nvars or sum(lam) > trunc:
        return FinitePoly.zero(nvars)
    word = _coset_word(nvars, r)
    # the beta cap keeps P0 to x-degree <= trunc + len(word), all that the
    # output's x-degree <= trunc part comes from
    _check_fits(min(trunc + len(word), _p0_degree(lam, nvars)))
    bcap = trunc - sum(lam)
    poly = _one(nvars)
    for i, part in enumerate(lam):
        poly = _mul(poly, _bracket_power(nvars, i, part), nvars, bcap)
    for i in range(r):
        for j in range(i + 1, nvars):
            poly = _mul(poly, _oplus(nvars, i, j), nvars, bcap)
            poly = _mul(poly, _one_plus_beta(nvars, j), nvars, bcap)
    for i in word:
        poly = _divided_difference(poly, i)
    return _to_finite(poly, nvars)
