"""Pfaffians of small skew-symmetric matrices over any commutative ring.

A matrix is given by its strict upper triangle only, as a dict
{(i, j): entry} with i < j; the expansion never reads anything else, so
there is no full-matrix form and no lower triangle to build or check.
Entries only need +, -, * (and scalar multiples), so the same routine
serves the matrices of truncated power series that the routes build and
the tests' rational and Q[b] matrices (the referees' ring); no division is
needed, which is one reason Q[b] suffices as the scalar ring.  Sizes
beyond MAX_SIZE = 10 are rejected.  Every Pfaffian formula in this
package runs over the rows of a partition padded with a zero part to even
length; padded_pfaffian is the only place that pads.  It calls
check_pfaffian_length before asking for any entry, so a partition longer
than 10 fails at once and by name, before any table is built.
"""

from __future__ import annotations

from .partitions import even_ceil

MAX_SIZE = 10


def check_pfaffian_length(lam):
    """Raise ValueError naming lam if its padded length exceeds MAX_SIZE."""
    if even_ceil(len(lam)) > MAX_SIZE:
        raise ValueError(f"lambda = {lam} has length {len(lam)}; the Pfaffian "
                         f"routes take at most {MAX_SIZE} parts")


def padded_pfaffian(lam, one, entry):
    """Pf of the triangle entry(i, j, lam_i, lam_j), 1 <= i < j <= r'.

    r' is len(lam) rounded up to even; an odd lam gets a zero part, seen
    by entry as lam_j = None in the padding column.  i and j are 1-based,
    as the formulas write them.  The empty partition gives `one`.
    """
    check_pfaffian_length(lam)
    rows = tuple(lam) + (None,) * (len(lam) % 2)
    upper = {}
    for i, li in enumerate(rows):
        for j in range(i + 1, len(rows)):
            upper[(i, j)] = entry(i + 1, j + 1, li, rows[j])
    return pfaffian_from_upper(upper, one=one)


def pfaffian_from_upper(upper, one=1):
    """Pfaffian by expansion along the first remaining row.

    INPUT:  upper -- {(i, j): entry} for ints 0 <= i < j; any other key
            raises a ValueError that names it.  Missing pairs are zero,
            and the size is the largest index plus one, rounded up to
            even (an odd size pads with a zero row).
            one -- multiplicative unit of the entry ring, returned for the
            empty matrix.
    OUTPUT: ring element.
    """
    n = 0
    for key in upper:
        if not (isinstance(key, tuple) and len(key) == 2
                and all(type(i) is int for i in key) and 0 <= key[0] < key[1]):
            raise ValueError(f"upper-triangle key {key!r} is not an int pair 0 <= i < j")
        n = max(n, key[1] + 1)
    n = even_ceil(n)
    if n > MAX_SIZE:
        raise ValueError(f"matrix size {n} exceeds supported bound {MAX_SIZE}")

    def pf(idx):
        if not idx:
            return one
        a = idx[0]
        acc = None
        # Pf = sum_j (-1)^j A[i0][ij] Pf(rest), j the position of the partner;
        # the sum starts at its first term, and a row of zeros gives one * 0
        for pos in range(1, len(idx)):
            entry = upper.get((a, idx[pos]))
            if entry is None:
                continue
            rest = idx[1:pos] + idx[pos + 1:]
            term = entry * pf(rest) if rest else entry  # no product by one
            if acc is None:
                acc = term * -1 if pos % 2 == 0 else term
            else:
                acc = acc - term if pos % 2 == 0 else acc + term
        return one * 0 if acc is None else acc

    return pf(tuple(range(n)))
