"""The two deformed power-sum bases, and coordinates in them.

The deformed bases are images of the power sums under the two substitutions
that control the K-theoretic family and its dual:
    paren:   p_n evaluated on x_i/(1 + (b/2) x_i)   (infinite upward tail)
    bracket: p_n shifted by b/2 in each letter      (finite downward sum)
Each is a ring substitution p_n -> p_n^flavor, with c = b/2 in
x -> x/(1 + c x) or x -> x + c, and each is undone by the same substitution
at -b/2: x/(1 - c x) and x - c.  Since f = sum a_lambda p_lambda^flavor is
the image of sum a_lambda p_lambda, the coordinates a_lambda of f are the
image of f under the substitution at -b/2, one combination of images.
Paren images only raise the degree and bracket images only lower it, so
both directions are exact at a degree bound.  The image of p_n is a sum of
int binomials, C(m-1, m-n) upward or C(n, i) downward, times powers of the
shift.

Memoised here: the image of each p_lambda, per (flavor, lambda, bound,
shift), in process-wide tables; and the coordinates _coordinates computes,
on the series they describe (its private _deformed slot, one entry per
flavor), so they live exactly as long as that series object.  The memo
relies on series never being mutated after construction.

Coordinates are kept as a PSeries whose coefficients are the coordinates,
so its numerators stand on the images of p_lambda / z_lambda, and a sum of
images is one pseries.combination.  The pairing (dualq.bilinear_pair) reads
the numerators of the memo, and the Fock exit (hexpansion) deforms its
classical coordinates with one _image_sum.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .partitions import z_lambda
from .pseries import PSeries, combination

FLAVORS = ("paren", "bracket")
_HALF = Fraction(1, 2)


def check_flavor(flavor):
    """Raise ValueError unless flavor names one of the deformed bases."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")


@lru_cache(maxsize=None)
def _power_image(flavor: str, n: int, degree_bound: int, shift: Fraction) -> PSeries:
    """p_n under the flavor's substitution with shift * b in place of b/2:
    x -> x / (1 + shift b x) for paren, x -> x + shift b for bracket, the
    constant term dropped."""
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    if flavor == "paren":
        terms = {((m,), m - n): comb(m - 1, m - n) * (-shift) ** (m - n)
                 for m in range(n, degree_bound + 1)}
    else:
        terms = {((i,), n - i): comb(n, i) * shift ** (n - i)
                 for i in range(1, n + 1)}
    return PSeries._from_flat(terms, degree_bound)


@lru_cache(maxsize=None)
def _image_partition(flavor: str, key: tuple[int, ...], degree_bound: int,
                     shift: Fraction) -> PSeries:
    """The image of p~_key: the substituted p_key divided by z_key."""
    if not key:
        return PSeries.one(degree_bound)
    head = key[:-1]
    return (_image_partition(flavor, head, degree_bound, shift)
            * _power_image(flavor, key[-1], degree_bound, shift)
            * Fraction(z_lambda(head), z_lambda(key)))


def _image_sum(flat, den: int, flavor: str, degree_bound: int,
               shift: Fraction = _HALF) -> PSeries:
    """sum (c / den) b^k (image of p~_lambda) over flat coordinates
    {(lambda, k): c}; at shift = -1/2 the images are the inverse ones."""
    check_flavor(flavor)
    return combination(((_image_partition(flavor, key, degree_bound, shift), k,
                         Fraction(c, den))
                        for (key, k), c in flat.items()), degree_bound)


def _coordinates(f: PSeries, flavor: str) -> PSeries:
    """The memoised coordinates of f, as a series whose terms are the flat
    coordinates; shared, so the caller must not change it."""
    check_flavor(flavor)
    memo = f._deformed
    if memo is None:
        memo = f._deformed = {}
    coords = memo.get(flavor)
    if coords is None:
        # f = sum a_lambda (deformed p_lambda) is the image of
        # sum a_lambda p_lambda, so the inverse substitution reads the
        # coordinates off f
        coords = memo[flavor] = _image_sum(f.terms, f.den, flavor, f.degree_bound, -_HALF)
    return coords
