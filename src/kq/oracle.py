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
f -> (f - s_i f)/(x_i - x_{i+1}), each an exact synthetic division that
lowers degree by one.  Truncation is sound because every step is
degree-homogeneous: a cap of T at the output needs T + (steps remaining)
along the way.  Every monomial of P0 satisfies
x-degree - beta-degree = |lambda| + len(u), which also bounds the beta
degree of anything worth keeping by T - |lambda|.

Monomials are packed into single integers, six bits per exponent, with the
beta exponent above the variables and the total x-degree on top, so that
multiplication of monomials is integer addition.  A field that overflowed
would carry into its neighbour and silently change the answer, so
gq_oracle raises ValueError when an intermediate could need an exponent
above 63.  The beta exponent of a monomial never exceeds its x-degree, so
bounding the x-degree bounds every field.

This module is the package's independent referee: it never touches Fock
space, power sums, kernels, or Pfaffians.
"""

from __future__ import annotations

from fractions import Fraction

from .finitevars import FinitePoly
from .partitions import check_degree_bound, check_partition

# key layout, least significant first: x_0 .. x_{n-1}, beta, total x-degree
_W = 6
_MASK = (1 << _W) - 1


def _mono(n, beta, exps):
    key = (sum(exps) << (_W * (n + 1))) | (beta << (_W * n))
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


def _mul(a, b, n, cap, bcap=None):
    degs = _W * (n + 1)
    betas = _W * n
    out = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            key = ka + kb
            if key >> degs > cap:
                continue
            if bcap is not None and (key >> betas) & _MASK > bcap:
                continue
            c = out.get(key, 0) + ca * cb
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def _add_into(acc, term):
    for k, c in term.items():
        s = acc.get(k, 0) + c
        if s:
            acc[k] = s
        else:
            del acc[k]


def _si_difference(poly, i):
    """f - s_i f with s_i swapping x_i and x_{i+1}."""
    sa = _W * i
    sb = _W * (i + 1)
    out = {}
    for k, v in poly.items():
        ea = (k >> sa) & _MASK
        eb = (k >> sb) & _MASK
        if ea == eb:
            continue
        kt = k + ((eb - ea) << sa) + ((ea - eb) << sb)
        s = out.get(k, 0) + v
        if s:
            out[k] = s
        else:
            del out[k]
        s = out.get(kt, 0) - v
        if s:
            out[kt] = s
        else:
            del out[kt]
    return out


def _divide_pair(poly, c, d, n, prec):
    """Exact quotient poly / (x_c - x_d), certified for x-degree <= prec.

    Bottom-up in the x_c exponent: x_d Q_0 = -P_0 and
    x_d Q_m = x_c-shift of Q_{m-1} minus P_m.  Terms that fail to divide
    by x_d must come from the dropped zone above prec + 1; anything lower
    is a genuine non-divisibility and raises.
    """
    sc = _W * c
    sd = _W * d
    degs = _W * (n + 1)
    lift = (1 << sc) + (1 << degs)
    drop = (1 << sd) + (1 << degs)
    layers = {}
    for k, v in poly.items():
        layers.setdefault((k >> sc) & _MASK, {})[k] = v
    top = max(layers) if layers else 0
    quotient = {}
    prev = {}
    for m in range(top + 1):
        numer = {k + lift: v for k, v in prev.items()}
        for k, v in layers.get(m, {}).items():
            s = numer.get(k, 0) - v
            if s:
                numer[k] = s
            else:
                numer.pop(k, None)
        qm = {}
        for k, v in numer.items():
            if (k >> sd) & _MASK == 0:
                if k >> degs <= prec + 1:
                    raise ArithmeticError(
                        f"non-exact division by (x_{c} - x_{d})"
                    )
                continue
            if k >> degs > prec + 1:
                continue
            qm[k - drop] = v
        _add_into(quotient, qm)
        prev = qm
    for k in prev:
        if k >> degs <= prec:
            raise ArithmeticError("division left a residue")
    return {k: v for k, v in quotient.items() if k >> degs <= prec}


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
        terms[(xkey, (k >> (_W * n)) & _MASK)] = Fraction(c)
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
    # divided differences only lower the degree, so nothing exceeds P0's
    cap = min(trunc + len(word), _p0_degree(lam, nvars))
    _check_fits(cap)
    bcap = trunc - sum(lam)
    poly = _one(nvars)
    for i, part in enumerate(lam):
        poly = _mul(poly, _bracket_power(nvars, i, part), nvars, cap, bcap)
    for i in range(r):
        for j in range(i + 1, nvars):
            poly = _mul(poly, _oplus(nvars, i, j), nvars, cap, bcap)
            poly = _mul(poly, _one_plus_beta(nvars, j), nvars, cap, bcap)
    remaining = len(word)
    for i in word:
        remaining -= 1
        poly = _divide_pair(_si_difference(poly, i), i, i + 1, nvars, trunc + remaining)
    return _to_finite(poly, nvars)
