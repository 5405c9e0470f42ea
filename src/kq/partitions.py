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
        p = tuple(map(operator.index, parts))
    except TypeError:
        raise ValueError(f"partition parts must be integers, got {parts!r}") from None
    for x in p:
        if x <= 0:
            raise ValueError(f"partition parts must be positive, got {p}")
    for a, b in zip(p, p[1:]):
        if a < b or (strict and a == b):
            kind = "strictly" if strict else "weakly"
            raise ValueError(f"parts must be {kind} decreasing, got {p}")
    return p


def check_degree_bound(degree_bound, what="degree bound") -> int:
    """degree_bound as an int >= 0, never a bool; what names it in errors."""
    if isinstance(degree_bound, bool):
        raise ValueError(f"{what} must be an integer, got {degree_bound!r}")
    try:
        d = operator.index(degree_bound)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {degree_bound!r}") from None
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


def contains(outer, inner) -> bool:
    """Componentwise containment inner_i <= outer_i."""
    if len(inner) > len(outer):
        return False
    return all(i <= o for o, i in zip(outer, inner))


def row_count(outer, inner) -> int:
    """Number of rows of outer that the skew shape outer/inner meets.

    Counts i with outer_i > inner_i, inner padded with zeros.
    """
    if not contains(outer, inner):
        raise ValueError(f"{inner} is not contained in {outer}")
    padded = inner + (0,) * (len(outer) - len(inner))
    return sum(1 for o, i in zip(outer, padded) if o > i)


@lru_cache(maxsize=None)
def partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All partitions of n with parts <= max_part, decreasing lex order."""
    if n == 0:
        return ((),)
    if max_part is None:
        max_part = n
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def partitions_upto(bound: int):
    """All partitions of weight 0..bound, graded then decreasing lex."""
    for n in range(bound + 1):
        yield from partitions_of(n)


def sub_strict_partitions(p):
    """Strict partitions contained componentwise in strict p (p included)."""
    p = check_partition(p, strict=True)
    out = {()}
    for part in reversed(p):  # extend candidate suffixes one row upward
        grown = set()
        for tail in out:
            top = tail[0] if tail else 0
            for v in range(top + 1, part + 1):
                grown.add((v,) + tail)
        out |= grown
    return sorted(out, key=graded_key)


def merge(p, q) -> tuple[int, ...]:
    """Multiset union of two partitions."""
    return tuple(sorted(p + q, reverse=True))


def graded_key(p):
    """Sort key: by weight, then lexicographically on the parts."""
    return (sum(p), p)
