"""Pfaffians of small skew-symmetric matrices over any commutative ring.

Entries only need +, -, * (and scalar multiples), so the same routine serves
rational matrices, Q[b] matrices, and matrices of truncated power series;
no division is needed, which is one reason Q[b] suffices as the scalar ring.
Sizes beyond MAX_SIZE = 10 are rejected.  Every Pfaffian formula in this
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


def pfaffian(matrix, one=1):
    """Pfaffian by expansion along the first remaining row, memoized.

    INPUT:  matrix -- square list-of-lists, skew-symmetric (checked when
            entries support __eq__ against their negation), even size.
            one -- multiplicative unit of the entry ring, returned for the
            empty matrix.
    OUTPUT: ring element.  Pf of the 0x0 matrix is `one`.
    """
    n = len(matrix)
    if n > MAX_SIZE:
        raise ValueError(f"matrix size {n} exceeds supported bound {MAX_SIZE}")
    if n % 2:
        raise ValueError("Pfaffian requires even size")
    for row in matrix:
        if len(row) != n:
            raise ValueError("matrix is not square")
    for i in range(n):
        if matrix[i][i] != matrix[i][i] * 0:
            raise ValueError("nonzero diagonal entry")
        for j in range(i + 1, n):
            if matrix[i][j] != -matrix[j][i]:
                raise ValueError(f"entries ({i},{j}) and ({j},{i}) are not opposite")
    cache = {}

    def pf(idx):
        if not idx:
            return one
        if idx in cache:
            return cache[idx]
        a = idx[0]
        acc = None
        # Pf = sum_j (-1)^j A[i0][ij] Pf(rest), j the position of the partner
        for pos in range(1, len(idx)):
            entry = matrix[a][idx[pos]]
            rest = idx[1:pos] + idx[pos + 1:]
            term = entry * pf(rest)
            if pos % 2 == 0:
                term = -term
            acc = term if acc is None else acc + term
        cache[idx] = acc
        return acc

    return pf(tuple(range(n)))


def pfaffian_from_upper(upper, one=1):
    """Pfaffian given only entries above the diagonal.

    upper[(i, j)] for i < j; missing pairs are treated as zero.  The
    padded_pfaffian builder hands its triangle to this.
    """
    n = 0
    for i, j in upper:
        if not i < j:
            raise ValueError("upper-triangle key with i >= j")
        n = max(n, j + 1)
    if n % 2:
        n += 1
    zero = one * 0
    matrix = [[zero] * n for _ in range(n)]
    for (i, j), v in upper.items():
        matrix[i][j] = v
        matrix[j][i] = -v
    return pfaffian(matrix, one=one)
