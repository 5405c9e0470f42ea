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

Memoised here: the image of each p_lambda, per (flavor, lambda, bound), in
process-wide tables; and each ring verdict on the series it describes (its
private _rings slot, the frozenset of flavors whose ring holds it), so it
lives exactly as long as that series object.  The memo relies on series
never being mutated after construction.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .partitions import z_lambda
from .pseries import PSeries, combination

FLAVORS = ("paren", "bracket")
_HALF = Fraction(1, 2)


def check_flavor(flavor):
    """Raise ValueError unless flavor names one of the deformed bases."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")


@lru_cache(maxsize=None)
def _power_image(flavor: str, n: int, degree_bound: int) -> PSeries:
    """p_n under the flavor's substitution, x -> x / (1 + (b/2) x) for
    paren, x -> x + b/2 for bracket, the constant term dropped."""
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    if flavor == "paren":
        terms = {((m,), m - n): comb(m - 1, m - n) * (-_HALF) ** (m - n)
                 for m in range(n, degree_bound + 1)}
    else:
        terms = {((i,), n - i): comb(n, i) * _HALF ** (n - i)
                 for i in range(1, n + 1)}
    return PSeries._from_flat(terms, degree_bound)


@lru_cache(maxsize=None)
def _image_partition(flavor: str, key: tuple[int, ...], degree_bound: int) -> PSeries:
    """The image of p~_key: the substituted p_key divided by z_key."""
    if not key:
        return PSeries.one(degree_bound)
    head = key[:-1]
    return (_image_partition(flavor, head, degree_bound)
            * _power_image(flavor, key[-1], degree_bound)
            * Fraction(z_lambda(head), z_lambda(key)))


def _image_sum(flat, den: int, flavor: str, degree_bound: int) -> PSeries:
    """sum (c / den) b^k (image of p~_lambda) over flat coordinates
    {(lambda, k): c}."""
    check_flavor(flavor)
    return combination(((_image_partition(flavor, key, degree_bound), k, Fraction(c, den))
                        for (key, k), c in flat.items()), degree_bound)


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
