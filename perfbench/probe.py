"""Speed probe: a fixed piece of pure-Python work, and the time it takes.

A shared machine changes speed from one second to the next: by up to 2x on
the 2-vCPU machine where the bounds were set.  The probe does the kind of
work kq does (tuple keys, dict updates, Fraction products) in about 10 ms.
Timed between kq's calls in the same process, its time follows theirs: over
windows of a few seconds the two moved together with correlation 0.98.
Dividing kq's time by the probe's, and multiplying by REF_S, gives kq's time
at the speed the machine had when REF_S was measured.
"""

import time
from fractions import Fraction

# The probe's time on the machine where the bounds were set (2 shared vCPUs,
# Python 3.11).  It only sets the scale of the reported times.
REF_S = 0.0075

_TERMS = [((i, j), Fraction(i + 1, j + 2)) for i in range(8) for j in range(6)]


def probe():
    """Seconds taken by the product of a fixed Fraction-valued dict with itself."""
    start = time.perf_counter()
    out = {}
    for (i, j), u in _TERMS:
        for (k, l), v in _TERMS:
            key = (i + k, j + l)
            out[key] = out.get(key, 0) + u * v
    return time.perf_counter() - start
