"""The two deformed power-sum bases, and coordinates in them.

The deformed bases are images of the power sums under the two substitutions
that control the K-theoretic family and its dual:
    paren:   p_n evaluated on x_i/(1 + (b/2) x_i)   (infinite upward tail)
    bracket: p_n shifted by b/2 in each letter      (finite downward sum)
Both are unitriangular over the p basis, one from below, one from above,
which is what makes exact basis conversion possible degree by degree.

Memoised here: the image of each deformed p_lambda, per (flavor, lambda,
bound), in process-wide tables; and the coordinates _coordinates computes,
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

from .partitions import z_lambda
from .pseries import PSeries, combination
from .scalars import binom_general

FLAVORS = ("paren", "bracket")


def check_flavor(flavor):
    """Raise ValueError unless flavor names one of the deformed bases."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}, expected one of {FLAVORS}")


def p_beta(n: int, degree_bound: int) -> PSeries:
    """Deformed power sum, paren flavor: p_n + higher-degree corrections."""
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    return PSeries._from_flat(
        {((m,), m - n): binom_general(m - 1, m - n) * Fraction(-1, 2) ** (m - n)
         for m in range(n, degree_bound + 1)}, degree_bound)


def p_bracket(n: int, degree_bound: int | None = None) -> PSeries:
    """Deformed power sum, bracket flavor: p_n + lower-degree corrections.

    This one is a finite polynomial; the default bound is its own degree.
    """
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    if degree_bound is None:
        degree_bound = n
    return PSeries._from_flat(
        {((i,), n - i): binom_general(n, i) * Fraction(1, 2) ** (n - i)
         for i in range(1, n + 1)}, degree_bound)


@lru_cache(maxsize=None)
def _image_part(flavor: str, n: int, degree_bound: int) -> PSeries:
    if flavor == "paren":
        return p_beta(n, degree_bound)
    return p_bracket(n, degree_bound)


@lru_cache(maxsize=None)
def _image_partition(flavor: str, key: tuple[int, ...], degree_bound: int) -> PSeries:
    """The image of p~_key: the deformed p_key divided by z_key."""
    if not key:
        return PSeries.one(degree_bound)
    head = key[:-1]
    return (_image_partition(flavor, head, degree_bound)
            * _image_part(flavor, key[-1], degree_bound)
            * Fraction(z_lambda(head), z_lambda(key)))


def _image_sum(flat, den: int, flavor: str, degree_bound: int) -> PSeries:
    """sum (c / den) b^k (image of p~_lambda) over flat coordinates
    {(lambda, k): c}."""
    check_flavor(flavor)
    return combination(((_image_partition(flavor, key, degree_bound), k, Fraction(c, den))
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
        coords = memo[flavor] = _eliminate(f, flavor)
    return coords


def _eliminate(f: PSeries, flavor: str) -> PSeries:
    bound = f.degree_bound
    degrees = range(bound + 1) if flavor == "paren" else range(bound, -1, -1)
    rep = f
    out = {}
    for d in degrees:
        level = {key: c for key, c in rep.terms.items() if sum(key[0]) == d}
        if not level:
            continue
        out.update({key: Fraction(c, rep.den * z_lambda(key[0])) for key, c in level.items()})
        rep = rep - _image_sum(level, rep.den, flavor, bound)
    if not rep.is_zero():
        raise ArithmeticError("triangular elimination left a residue")
    return PSeries._from_flat(out, bound)
