"""Partitions, strict partitions, and the combinatorial counts they carry.

A partition is a tuple of weakly decreasing positive ints, () for empty.
Strict means strictly decreasing.  Everything downstream indexes on these
tuples directly, so canonical form is enforced at the boundary.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from math import factorial


def check_partition(parts, strict=False) -> tuple[int, ...]:
    try:
        parts = tuple(parts)
        p = tuple(map(operator.index, parts))
    except TypeError:
        p = None
    if p is None or bool in map(type, parts):
        raise ValueError(f"partition parts must be integers, got {parts!r}")
    for x in p:
        if x <= 0:
            raise ValueError(f"partition parts must be positive, got {p}")
    for a, b in zip(p, p[1:]):
        if a < b or (strict and a == b):
            kind = "strictly" if strict else "weakly"
            raise ValueError(f"parts must be {kind} decreasing, got {p}")
    return p


def _check_int(x, what) -> int:
    """x as an int, never a bool; what names it in errors."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise ValueError(f"{what} must be an integer, got {x!r}")


def check_degree_bound(degree_bound, what="degree bound") -> int:
    """degree_bound as an int >= 0, never a bool; what names it in errors."""
    d = _check_int(degree_bound, what)
    if d < 0:
        raise ValueError(f"{what} must be >= 0, got {d}")
    return d


def check_strict_weight(lam, degree_bound) -> tuple[int, ...]:
    """lam as a strict partition, checked to fit under the degree bound."""
    degree_bound = check_degree_bound(degree_bound)
    lam = check_partition(lam, strict=True)
    if sum(lam) > degree_bound:
        raise ValueError("degree bound is below |lambda|")
    return lam


def even_ceil(n: int) -> int:
    """Smallest even integer >= n; the padded length used by Pfaffian rows."""
    return n + (n % 2)


def multiplicities(p) -> dict[int, int]:
    out: dict[int, int] = {}
    for x in p:
        out[x] = out.get(x, 0) + 1
    return out


@lru_cache(maxsize=None)
def z_lambda(p) -> int:
    """Order of the centralizer of a permutation of cycle type p.

    z = prod_i i^{m_i} m_i!  with m_i the multiplicity of i in p.
    """
    out = 1
    for part, m in multiplicities(p).items():
        out *= part ** m * factorial(m)
    return out


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts <= max_part, decreasing lex order."""
    if n == 0:
        return ((),)
    if max_part is None:
        max_part = n
    return tuple((first,) + rest for first in range(min(n, max_part), 0, -1)
                 for rest in partitions_of(n - first, first))


def partitions_upto(bound: int):
    """All partitions of weight 0..bound, graded then decreasing lex."""
    for n in range(bound + 1):
        yield from partitions_of(n)


def merge(p, q) -> tuple[int, ...]:
    """Multiset union of two partitions."""
    return tuple(sorted(p + q, reverse=True))


def graded_key(p):
    """Sort key: by weight, then lexicographically on the parts."""
    return (sum(p), p)
