"""The two deformed power-sum bases: their images, and the rings they span.

The deformed bases are images of the power sums under the two substitutions
that control the K-theoretic family and its dual:
    paren:   p_n evaluated on x_i/(1 + (b/2) x_i)   (infinite upward tail)
    bracket: p_n shifted by b/2 in each letter      (finite downward sum)
Each is a ring substitution p_n -> p_n^flavor that sends p_n to single
power sums: C(m-1, m-n) (-b/2)^{m-n} p_m over m >= n for paren, and
C(n, i) (b/2)^{n-i} p_i over i <= n for bracket.  Paren images only raise
the degree and bracket images only lower it, so both are exact at a degree
bound.  Only the Fock exit (hexpansion) deforms, in this one direction.

The flavor's ring is the image of the odd power sums, where GQ_lambda
(paren) and o_lambda, gp_lambda (bracket) live.  _check_ring decides
membership without leaving power sums: by the chain rule, one derivative
per even part (proof there).

The exit images odd partitions only, so the memo is one int row per odd
nu and bound (_image_row): the image of p~_nu = p_nu / z_nu as ints over
the one den 2^D.  That den is exact.  For l = l(nu) = l(lambda) and
j = |lambda| - |nu|, the coefficient of p_lambda in the paren image of
p_nu is (-b/2)^j times the sum, over the orderings m of the parts of
lambda, of prod_i C(m_i-1, m_i-nu_i).  By C(m-1, m-n) m/n = C(m, n) that is
prod_i C(m_i, nu_i) prod(nu) / prod(lambda), and z_lambda / z_nu turns
the rest into prod m_i(lambda)! / prod m_i(nu)!, so

    [p~_lambda b^j] image(p~_nu) = (-1/2)^j sum_{sigma in S_l/Aut(nu)} prod_i C(lambda_sigma(i), nu_i),

the product being constant on the cosets of Aut(nu), the permutations
of equal parts.  The bracket mirror, C(n, i) i/n = C(n-1, i-1), gives
(1/2)^j sum_sigma prod_i C(nu_i - 1, lambda_sigma(i) - 1), j = |nu| -
|lambda|.  Either way an int times 2^{-j}, and j <= D: j <= |lambda|
for paren, j <= |nu| for bracket, whose rows the exit reads only at
|nu| <= D.  So _image_sum is one int pass over coordinates and rows at
the den (bra den) 2^D, and its output is born in its ring: it is the
image of odd coordinates at the bound, as paren images only raise the
degree, so cutting at D commutes with them, and bracket images of
weight <= D are exact.  It hands that verdict to PSeries._reduced, so
the image is built with it.

Memoised here: the rows, per (flavor, nu, bound), in one process-wide
table, read-only; and each ring verdict on the series it describes (its
private _rings slot, the frozenset of flavors whose ring holds it), so it
lives exactly as long as that series object.  A series gets its verdict
when it is built; _check_ring is the one place that adds to it later.
The memo relies on series never being mutated after construction.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb, lcm
from types import MappingProxyType

from .partitions import merge, z_lambda
from .pseries import PSeries

FLAVORS = ("paren", "bracket")


def check_flavor(flavor):
    """Raise ValueError unless flavor names one of the deformed bases."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")


@lru_cache(maxsize=None)
def _image_row(flavor: str, nu: tuple[int, ...], degree_bound: int):
    """The image of p~_nu, nu into odd parts, as {(lambda, k): n} over the
    den 2^D, D = degree_bound: sum (n / 2^D) b^k p~_lambda; read-only.

    Built by parts, in ints: z_head (row of head) (image of p_n), nu =
    head + (n,), with p~_lambda p_m = m (m_m(lambda) + 1) p~_(lambda u m),
    then one exact division by z_nu (module docstring).  An even part
    raises ValueError.  A bracket nu needs |nu| <= D, as every word the
    exit reads has (hexpansion); a paren nu heavier than D has the empty
    row.
    """
    if not nu:
        return MappingProxyType({((), 0): 1 << degree_bound})
    head, n = nu[:-1], nu[-1]
    if n % 2 == 0:
        raise ValueError(f"{nu} has the even part {n}: the exit images odd partitions only")
    D = degree_bound
    if flavor == "paren":
        single = [(m, m - n, comb(m - 1, m - n) * (-1) ** (m - n)) for m in range(n, D + 1)]
    else:
        single = [(i, n - i, comb(n, i)) for i in range(1, n + 1)]
    z_head, acc = z_lambda(head), {}
    for (mu, k), v in _image_row(flavor, head, D).items():
        room = D - sum(mu)
        for m, j, w in single:
            if m > room:
                break
            key = (merge(mu, (m,)), k + j)
            acc[key] = acc.get(key, 0) + (v * w * m * (mu.count(m) + 1) * z_head << D - j)
    den = z_lambda(nu) << D
    return MappingProxyType({key: v // den for key, v in acc.items()})


def _image_sum(flat, den: int, flavor: str, degree_bound: int) -> PSeries:
    """sum (c / den) b^k (image of p~_nu) over flat coordinates
    {(nu, k): c}, every nu into odd parts: one int pass over the rows at
    the den (den 2^D), whose zero sums the trusted entry drops, and the
    result is born with the flavor's ring verdict (module docstring); the
    flavor is the caller's to check."""
    out: dict = {}
    for (nu, k), c in flat.items():
        if not c:
            continue
        for (mu, e), v in _image_row(flavor, nu, degree_bound).items():
            key = (mu, k + e)
            out[key] = out.get(key, 0) + c * v
    return PSeries._reduced(out, den << degree_bound, degree_bound, frozenset((flavor,)))


def _check_ring(f: PSeries, flavor: str):
    """Raise ValueError unless f lies in the flavor's ring; a verdict that
    f does is kept on f, so each series is checked once per flavor.

    f = image(h) lies there iff dh/dp_e = 0 for every even e.  The inverse
    substitution sends p_n to sum_e w(e, n) p_e with
        paren:   w = C(e-1, e-n) (b/2)^{e-n},  n <= e,
        bracket: w = C(n, e) (-b/2)^{n-e},    n >= e,
    and h is f under it, so by the chain rule dh/dp_e is the inverse image
    of E_e f = sum_n w(e, n) df/dp_n.  The images are invertible, so
    dh/dp_e = 0 iff E_e f = 0.  They also keep lowest terms: the paren
    ones send p_n to p_n plus higher degrees, so E_e f vanishes up to a
    degree iff dh/dp_e does.  f is known up to its bound D, so E_e f is
    exact up to D - e, where dh/dp_e holds the parts e of h up to D: that
    is the test for paren.  Bracket f are polynomials, tested
    everywhere.  On the store, d/dp_n p~_mu = p~_(mu - n) / n, and one int
    scale lcm(1..D) 2^D clears every w(e, n) / n.
    """
    if flavor in f._rings:
        return
    paren, D = flavor == "paren", f.degree_bound
    scale = lcm(*range(1, D + 1)) << D
    out: dict = {}
    for (mu, k), c in f.terms.items():
        for n in set(mu):
            i = mu.index(n)
            rest = mu[:i] + mu[i + 1:]
            evens = range(n + n % 2, D - sum(rest) + 1, 2) if paren else range(2, n + 1, 2)
            for e in evens:
                j = abs(e - n)
                w = comb(e - 1, j) if paren else comb(n, e) * (-1) ** j
                key = (e, rest, k + j)
                out[key] = out.get(key, 0) + c * w * (scale // (n << j))
    bad = [e for (e, _, _), v in out.items() if v]
    if bad:
        raise ValueError(f"not in the {flavor} ring: coordinates with the even part {min(bad)}")
    f._rings |= {flavor}
