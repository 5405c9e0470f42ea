"""Exact computation of K-theoretic Q-functions and their duals.

Everything is exact arithmetic over Q[b], b the deformation parameter:
every object the package computes is a polynomial in b, and no library path
divides by a polynomial in b, so no rational functions of b are needed.
The package computes the one-parameter family GQ_lambda through four
independent routes (two Pfaffian formulas, a free-fermion contraction, a
finite-variable symmetrization) and the dual family (o_lambda, gp_lambda),
together with the bilinear pairing that makes the two families dual bases.

Every exact value is one integral store (pseries._Store): an int per
(key, power of b) over one denominator, the key a partition on the basis
p_lambda / z_lambda for power-sum series, a word for Fock states and a
Schur index for the oracle's answers.  Each store has two ways in: a
checked public constructor for outside values, and a trusted one for what
the library's own arithmetic built.  Sums of series go through
pseries.combination, and every Pfaffian coefficient in those sums is an
int from the tables of module laurent.
BetaScalar, the public Q[b] scalar, is the value a coefficient becomes once
it leaves them, and the type of BETA, ONE, ZERO: it holds a coefficient's
b-power terms, compares, hashes and prints, and has no ring operations.
"""

from .scalars import BETA, ONE, ZERO, BetaScalar

__all__ = [
    "BETA",
    "ONE",
    "ZERO",
    "BetaScalar",
]

__version__ = "0.1.0"
