"""Reference implementations that the tests compare the library against.

Not a test module: pytest collects test_*.py only.  Test files import it
with `from referees import ...`, which works because tests/ has no
__init__.py, so pytest puts this directory on sys.path.

None of this is production code.  Each section names the library module it
referees: the strict partitions up to a weight, which only tests list; the
zero test of a series, the exponential of a series, and of a z-graded
family of them (z_exp), term by term against the closed forms; the closed
form of an exponential in two variables (exp_power_sums) and the one-row
tables of GQ and q^[b] built from it, which referee the library's
univariate closed form; Schur Q_mu
by the two-row Pfaffian and its deformed images, which referee the vacuum
rows of hexpansion, those rows built in one table up to a bound, the
deformed power sums written from their substitutions and the image of
each p~_nu as one series product per part, which referee the int rows
of bases, and
coordinates in the deformed bases by triangular elimination, which referee
the pairing and its ring check; polynomials in n variables
monomial by monomial (FinitePoly), the oracle's answer written out one
Schur polynomial at a time and read back with a symmetry check, the
hook-length count of standard tableaux, and the substitution of power
sums in n variables that from_finite inverts (eval_finite) and a solve of
from_finite on monomial coordinates in Fractions
(from_finite_by_fractions); the binomial
C(a, k) at any upper entry, in Fractions, which checks laurent's univariate
tables; the kernel
(z-w)/(z+w+b) in a closed form of its own, generic Laurent blocks that
cross-check the closed-form kernel tables, a direct convolution that
checks their recurrences, and the row-by-row contraction that checks
laurent.contract, the packed monomial layout in which the oracle's
referees multiply P0 out, P0 monomial by monomial (gq_oracle_full) and
its tail factor multiplied out factor by factor, which check the oracle's
head fold and the closed form of its tail factor, the oracle's
symmetrization as a chain of divided differences and literally, which check
its bialternant pass, the Fock actions in Fractions, at every sign and
index, of which the library keeps only those its routes apply, the ket
actions and the star that makes them from bra actions, plain fermion modes and Wick's theorem, the paper's theorems (the cancellation properties, the
Fock pairing, the closed form of <GQ_lambda, o_mu>) as executable checks,
with the containment of partitions that the last one reads, the column of
the inverse of that pairing matrix over the interlacing partitions, and gp
by inverting the matrix recursively, which referees gp's one ket; the
one-row duals o_n from q^[b], which referee o_fermionic on one row and the
padding column of o_pfaffian_2; GQ_n at any index, where the library keeps
the row GQ_0..GQ_D; and the coefficient of one p_lambda in a series.
The sections after the partitions hold the Q[b] ring that the library's
scalar leaves out (Qb, with BETA, ONE and ZERO), and read and write the
library's flat (key, b-power) terms as Qb values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb, factorial

from kq import fock
from kq.dualq import o_fermionic, q_bracket_series
from kq.finitevars import SymmetricPoly
from kq.fock import _bra_insert
from kq.gq import gq_series
from kq.hexpansion import vacuum_expectation
from kq.laurent import _dual_kernel_rational
from kq.partitions import (check_degree_bound, check_partition, check_strict_weight, graded_key,
                           partitions_upto, z_lambda)
from kq.pfaffian import padded_pfaffian
from kq.pseries import PSeries, combination
from kq.scalars import BetaScalar, _from_monomials, _monomials


# -- partitions: the strict partitions up to a weight, which only tests list --

@lru_cache(maxsize=None)
def strict_partitions_of(n: int, max_part: int | None = None) -> tuple[tuple[int, ...], ...]:
    """All strict partitions of n with parts <= max_part, decreasing lex order."""
    if n == 0:
        return ((),)
    if max_part is None:
        max_part = n
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in strict_partitions_of(n - first, first - 1):
            out.append((first,) + rest)
    return tuple(out)


def strict_partitions_upto(bound: int):
    """All strict partitions of weight 0..bound, graded then decreasing lex."""
    for n in range(bound + 1):
        yield from strict_partitions_of(n)


# -- scalars: the Q[b] ring, which the library's BetaScalar leaves out -------
#
# kq hands coefficients out as BetaScalars, values with no ring operations.
# Qb is a BetaScalar with them, over the same sparse terms {k: Fraction},
# for the referees and the tests' expected values.  An operand may be an
# int, a Fraction or any BetaScalar, and the result is a Qb, so a library
# value compares equal to a Qb directly and Qb(value) wraps it.

class Qb(BetaScalar):
    """An element of Q[b] with +, -, *, division by a nonzero rational
    constant and powers k >= 0; nothing leaves the ring."""

    __slots__ = ()

    @classmethod
    def beta_power(cls, k: int, coeff=1) -> "Qb":
        """coeff * b^k; k must be >= 0."""
        if k < 0:
            raise ValueError(f"b^{k} is not in Q[b]")
        return _qb([(k, Fraction(coeff))])

    def __add__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return _qb(out.items())

    __radd__ = __add__

    def __neg__(self):
        return _qb((k, -c) for k, c in self.terms.items())

    def __sub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else self + -other

    def __rsub__(self, other):
        other = _operand(other)
        return NotImplemented if other is None else other + -self

    def __mul__(self, other):
        other = _operand(other)
        if other is None:
            return NotImplemented
        out: dict = {}
        for i, x in self.terms.items():
            for j, y in other.terms.items():
                out[i + j] = out.get(i + j, 0) + x * y
        return _qb(out.items())

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational constant, the only one Q[b] needs."""
        other = _operand(other)
        if other is None:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero in Q[b]")
        if set(other.terms) != {0}:
            raise ArithmeticError(f"cannot divide by {other}: it depends on b")
        return _qb((k, c / other.terms[0]) for k, c in self.terms.items())

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError(f"negative power {k} is not in Q[b]")
        out = ONE
        for _ in range(k):
            out = out * self
        return out


def _qb(pairs) -> Qb:
    """sum c*b^k over (k, c) pairs of distinct ints k >= 0 and Fractions c."""
    return Qb(_from_monomials(pairs))


def _operand(v):
    """v as a Qb if it is an int (not a bool), a Fraction or a BetaScalar."""
    if isinstance(v, (BetaScalar, Fraction)) or isinstance(v, int) and not isinstance(v, bool):
        return Qb(v)
    return None


ZERO = Qb(0)
ONE = Qb(1)
BETA = Qb.beta_power(1)


def dense_str(poly) -> str:
    """The printed form of sum poly[e] b^e, poly a dense coefficient tuple,
    written term by term up from b^0 as "3/2", "b", "-b^2" or "2*b^3" and
    joined with " + " or " - ", "0" for no term; referees the printing of
    BetaScalar, which walks its sparse terms."""
    bits = []
    for e, c in enumerate(poly):
        if c and e == 0:
            bits.append(str(c))
        elif c:
            head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
            bits.append(f"{head}b" + (f"^{e}" if e > 1 else ""))
    return " + ".join(bits).replace("+ -", "- ") if bits else "0"


def check_boundary_scalar(c) -> None:
    """Assert the contract of a scalar that leaves kq: as_polynomial() is a
    tuple of Fraction with no trailing zero, () for zero; the public
    constructor makes of it a value equal to c, with c's hash; and str(c)
    is dense_str of it."""
    poly = c.as_polynomial()
    assert type(poly) is tuple and all(type(x) is Fraction for x in poly), poly
    assert not poly or poly[-1], poly
    again = BetaScalar(poly)
    assert again == c and c == again and hash(again) == hash(c), (poly, c)
    assert str(c) == dense_str(poly), (str(c), poly)


# -- the flat (key, b-power) terms, read and written as Qb values -----------
#
# Finite polynomials keep one Fraction per (key, b-power); Fock states keep
# an int over their den and are read through fraction_terms.  These helpers
# move between that form and {key: Qb} with Qb arithmetic only,
# independently of the library's own conversions.  Series are read through
# sorted_items instead.

def scalar_terms(flat):
    """{key: Qb} from flat {(key, k): c} terms, or from an object's
    .terms; zero sums are left out.  A PSeries is refused: its terms are
    ints over its den on p_lambda / z_lambda, read through sorted_items."""
    if isinstance(flat, PSeries):
        raise TypeError("read a PSeries through sorted_items")
    flat = fraction_terms(flat)
    flat = getattr(flat, "terms", flat)
    out = {}
    for (key, k), c in flat.items():
        out[key] = out.get(key, ZERO) + Qb.beta_power(k, c)
    return {key: v for key, v in out.items() if v}


def flat_terms(mapping):
    """Flat {(key, k): Fraction} terms from {key: scalar}, zeros left out."""
    out = {}
    for key, v in mapping.items():
        for k, c in _monomials(v):
            out[(key, k)] = c
    return out


def vacuum_part(state) -> Qb:
    """The coefficient of the empty word in a Fock state."""
    return scalar_terms(state).get((), ZERO)


@lru_cache(maxsize=None)
def binom_general(a, k: int) -> Fraction:
    """Binomial coefficient C(a, k) for arbitrary integer or rational a,
    which referees laurent._univariate's int C(-n, k).

    C(a, k) = a(a-1)...(a-k+1)/k! for k >= 0, and 0 for k < 0.  Negative
    upper entries follow the usual reflection C(-n, k) = (-1)^k C(n+k-1, k).
    """
    if k < 0:
        return Fraction(0)
    if isinstance(a, int) and a >= 0:
        return Fraction(comb(a, k))
    a = Fraction(a)
    out = Fraction(1)
    for i in range(k):
        out *= (a - i)
        out /= i + 1
    return out


def kernel_coefficient(p: int, q: int) -> Qb:
    """[z^p w^q] of (z-w)/(z+w+b) expanded on |z| >> |w| >> |b|.

    Derived from (z+w+b)^{-1} = sum_k (-1)^k (w+b)^k z^{-k-1}; support is
    p <= 0 <= q with q <= -p.  Both parts of the sum carry b^{-p-q}.
    """
    if p > 0 or q < 0 or q > -p:
        return ZERO
    k1 = -p
    total = 0
    if q <= k1:
        c = binom_general(k1, q)
        total = -c if k1 % 2 else c
    k2 = -p - 1
    if k2 >= 0 and 1 <= q <= k2 + 1:
        c = binom_general(k2, q - 1)
        total += c if k2 % 2 else -c
    return Qb.beta_power(-p - q, total) if total else ZERO


def dual_kernel_coefficient(p: int, q: int) -> Qb:
    """[z^p w^q] of (z-w)/(z+w+bzw) expanded on |z| >> |w|, ascending in w.

    The library keeps only the rational part; the power of b is p+q.
    """
    c = _dual_kernel_rational(p, q)
    return Qb.beta_power(p + q, c) if c else ZERO


def kernel_entries_by_convolution(a: int, c: int, x_max: int, y_max: int) -> dict:
    """laurent._kernel_entries by direct convolution, in its table format.

    z^x w^y of (1+bz)^{-a} (1+bw)^{-c} (z-w)/(z+w+bzw): z takes s from
    (1+bz)^{-a}, w takes l from (1+bw)^{-c}, and the kernel's closed form
    the rest, for every split of (x, y).  Quartic in the window, where the
    library runs a + c first-order recurrences.
    """
    za = [int(binom_general(-a, s)) for s in range(x_max + y_max + 1)]
    wc = [int(binom_general(-c, l)) for l in range(y_max + 1)]
    entries = {}
    for y in range(y_max + 1):
        for x in range(-y, x_max + 1):
            total = sum(za[s] * wc[l] * _dual_kernel_rational(x - s, y - l)
                        for s in range(max(0, x), x + y + 1)
                        for l in range(min(y, x + y - s) + 1))
            if total:
                entries[(x, y)] = total
    return entries


def contract_by_rows(table, left, right, degree_bound: int, cap=None) -> PSeries:
    """laurent.contract row by row: sum of c b^(p+q) left(p) right(q) over
    the entries (p, q): c of a two-variable table, mod b^(cap+1) unless cap
    is None.

    Each row p whose left(p) is nonzero takes one combination of its
    right(q), carrying the whole b-power p+q (p alone may be negative), and
    one series product with left(p); nothing is shared between rows.  The
    cap drops cells with p + q > cap before the rows are summed and the
    terms past b^cap of the whole sum after.
    """
    rows: dict = {}
    for (p, q), c in table.items():
        if cap is None or p + q <= cap:
            rows.setdefault(p, []).append((q, c))
    whole = combination(
        ((f * combination(((right(q), p + q, c) for q, c in row), degree_bound), 0, 1)
         for p, row in rows.items() if (f := left(p))), degree_bound)
    if cap is None:
        return whole
    return PSeries({mu: _from_monomials((k, x) for k, x in enumerate(c.as_polynomial()) if k <= cap)
                    for mu, c in whole.sorted_items()}, degree_bound)


# -- evaluation at a value of b --------------------------------------------

def at_b(f, value):
    """f with b set to a rational value.

    A BetaScalar gives a Fraction; a PSeries gives the series of those
    constants, at the same bound.  Both read coefficients through
    as_polynomial, the accessor where values leave the library.
    """
    value = Fraction(value)
    if isinstance(f, BetaScalar):
        return sum((c * value ** e for e, c in enumerate(f.as_polynomial())), Fraction(0))
    return PSeries({k: at_b(v, value) for k, v in f.sorted_items()}, f.degree_bound)


# -- pseries: the zero test, the exponential of a series, and of a z-graded one

def is_zero(f: PSeries) -> bool:
    """Whether f is the zero series; anything but a PSeries raises."""
    if not isinstance(f, PSeries):
        raise TypeError(f"not a series: {f!r}")
    return not f.terms


def series_coefficient(f: PSeries, key) -> Qb:
    """The coefficient of p_key in f, as a Qb."""
    key = check_partition(key)
    scale = f.den * z_lambda(key)
    return _qb((k, Fraction(n, scale)) for (mu, k), n in f.terms.items() if mu == key)


def exp(f: PSeries) -> PSeries:
    """exp of a series with no constant term (checked)."""
    if series_coefficient(f, ()):
        raise ValueError("exp needs a series with zero constant term")
    out = PSeries.one(f.degree_bound)
    power = PSeries.one(f.degree_bound)
    kfac = 1
    for k in range(1, f.degree_bound + 1):
        power = power * f
        if is_zero(power):
            break
        kfac *= k
        out = out + power * Fraction(1, kfac)
    return out


def z_exp(parts):
    """Exponentiate sum_j parts[j] z^j within the same z-window.

    parts is a nonempty list of PSeries at one degree bound, each with zero
    constant term so the sum is nilpotent modulo the bound.  Returns the
    list of z^0..z^cap coefficients of the exponential, cap = len(parts)-1.
    """
    if not parts:
        raise ValueError("z_exp needs at least the z^0 slot")
    bound = parts[0].degree_bound
    cap = len(parts) - 1
    for f in parts:
        if any(not mu for mu, _ in f.terms):
            raise ValueError("z_exp needs coefficients with zero constant term")
    out = [PSeries.one(bound)] + [PSeries.zero(bound) for _ in range(cap)]
    term = list(out)
    for m in range(1, bound + 1):
        nxt = [PSeries.zero(bound) for _ in range(cap + 1)]
        for a, t in enumerate(term):
            if is_zero(t):
                continue
            for b in range(cap + 1 - a):
                if not is_zero(parts[b]):
                    nxt[a + b] = nxt[a + b] + t * parts[b]
        term = [t * Fraction(1, m) for t in nxt]
        if all(is_zero(t) for t in term):
            break
        out = [s + t for s, t in zip(out, term)]
    return out


def exp_power_sums(logs, cap: int, degree_bound: int) -> list[PSeries]:
    """The z^0..z^cap coefficients of exp(sum_n c_n p_n / n), at degree_bound,
    in two variables: the referee of the library's univariate closed form
    (pseries._exp_products), which needs each c_n homogeneous.

    logs maps n to c_n as {(j, e): int coefficient of z^j b^e}, j, e >= 0, or
    leaves c_n = 0 out.  The closed form is sum_mu (prod_i c_(mu_i)) p~_mu
    (Macdonald, Symmetric Functions and Hall Polynomials, I (2.14)); each
    product extends that of mu without its last part, cut at z^cap.
    """
    degree_bound = check_degree_bound(degree_bound)
    slots: list[dict] = [{} for _ in range(cap + 1)]
    products = {(): {(0, 0): 1}}
    for mu in partitions_upto(degree_bound):
        if mu:
            prod: dict = {}
            for (j, e), u in products[mu[:-1]].items():
                for (jn, en), v in logs.get(mu[-1], {}).items():
                    if j + jn <= cap:
                        prod[(j + jn, e + en)] = prod.get((j + jn, e + en), 0) + u * v
            products[mu] = {key: v for key, v in prod.items() if v}
        for (j, e), u in products[mu].items():
            slots[j][(mu, e)] = u
    return [PSeries._reduced(terms, 1, degree_bound) for terms in slots]


def gq_exp_parts(degree_bound: int) -> tuple[PSeries, ...]:
    """z^0..z^D coefficients of theta(z) / (theta(-beta) theta(-z-beta)),
    by the two-variable closed form: the log is sum_n (p_n/n) c_n with
    c_n = z^n - (-beta)^n - (-z-beta)^n.  The z^j part has lowest p-weight
    >= j, so cutting z-degrees and p-weights at D together loses nothing
    that GQ_n (n <= D) could see."""
    logs = {}
    for n in range(1, degree_bound + 1):
        sign = 1 if n % 2 else -1  # (-1)^(n+1)
        c = {(j, n - j): sign * comb(n, j) for j in range(n + 1)}
        c[(0, n)] += sign
        c[(n, 0)] += 1
        logs[n] = c
    return tuple(exp_power_sums(logs, degree_bound, degree_bound))


def q_bracket_exp_parts(top: int, degree_bound: int) -> tuple[PSeries, ...]:
    """q^[b]_0..q^[b]_top truncated past degree_bound, by the two-variable
    closed form of log q^[b](z) = sum_n (p_n/n) c_n, c_n = sum_{j>=n}
    (delta_{nj} + (-1)^{j+1} C(j-1, j-n) b^{j-n}) z^j, cut at z^top: the
    referee of dualq._q_bracket_upto."""
    logs = {}
    for n in range(1, min(top, degree_bound) + 1):
        c = {(j, j - n): (1 if j % 2 else -1) * comb(j - 1, j - n)
             for j in range(n, top + 1)}
        c[(n, 0)] += 1
        logs[n] = c
    return tuple(exp_power_sums(logs, top, degree_bound))


# -- bases and hexpansion: Schur Q by Pfaffian, and deformed coordinates -----
#
# The Fock exit reads Q_mu(p^flavor) off the vacuum rows <0| prod 2 b_nu of
# hexpansion; here Q_mu comes from the one-row q_n and the two-row Pfaffian
# instead, and its deformation from images of its own (series products of
# the substituted power sums, none of the library's rows), widened for
# bracket;
# rows_at builds the vacuum rows of every weight up to a bound in one
# table, the way the library did before it kept one table per weight.

def rows_at(bound: int):
    """The rows hexpansion._rows gives for every weight <= bound, in one
    table built from the vacuum up: {bra word: ((nu, R_nu at the word),
    ...)} over the partitions nu into odd parts of weight <= bound."""
    states, rows = {(): fock.vacuum()}, {}
    for nu in partitions_upto(bound):
        if any(part % 2 == 0 for part in nu):
            continue
        if nu:
            twice_b = ((nu[-1], 0, 1),)
            states[nu] = fock._act(states[nu[:-1]], fock._bra_word_b, lambda g: twice_b, 1)
        for (word, _), r in states[nu].terms.items():
            rows.setdefault(word, []).append((nu, r))
    return {word: tuple(entries) for word, entries in rows.items()}


def p_beta(n: int, degree_bound: int) -> PSeries:
    """Deformed power sum, paren flavor: p_n + higher-degree corrections.

    p_n evaluated on x/(1 + (b/2) x), letter by letter: (x/(1 + (b/2) x))^n
    = sum_j C(-n, j) (b/2)^j x^(n+j).
    """
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    return PSeries({(n + j,): Qb.beta_power(j, binom_general(-n, j) / 2 ** j)
                    for j in range(degree_bound - n + 1)}, degree_bound)


def p_bracket(n: int, degree_bound: int | None = None) -> PSeries:
    """Deformed power sum, bracket flavor: p_n + lower-degree corrections.

    p_n shifted by b/2 in each letter, (x + b/2)^n = sum_i C(n, i)
    (b/2)^(n-i) x^i, the constant term i = 0 dropped.  This one is a
    finite polynomial; the default bound is its own degree.
    """
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    return PSeries({(i,): Qb.beta_power(n - i, Fraction(comb(n, i), 2 ** (n - i)))
                    for i in range(1, n + 1)}, n if degree_bound is None else degree_bound)


def deformed_power(flavor: str, n: int, degree_bound: int) -> PSeries:
    """p_beta for the paren flavor, p_bracket for the bracket one."""
    return (p_beta if flavor == "paren" else p_bracket)(n, degree_bound)


@lru_cache(maxsize=None)
def deformed_image(flavor: str, nu, degree_bound: int) -> PSeries:
    """The image of p~_nu = p_nu / z_nu, nu any partition: one series
    product per part, then 1/z_nu.  An unknown flavor raises ValueError,
    for the empty partition too."""
    if flavor not in ("paren", "bracket"):
        raise ValueError(f"unknown flavor {flavor!r}")
    image = PSeries.one(degree_bound)
    for n in nu:
        image = image * deformed_power(flavor, n, degree_bound)
    return image * Fraction(1, z_lambda(nu))


def image_sum(flat, den: int, flavor: str, degree_bound: int) -> PSeries:
    """sum (c / den) b^k (image of p~_nu) over flat coordinates
    {(nu, k): c}, nu any partition, as one combination of deformed_image."""
    return combination(((deformed_image(flavor, nu, degree_bound), k, Fraction(c, den))
                        for (nu, k), c in flat.items()), degree_bound)


def q_series(degree_bound: int) -> list[PSeries]:
    """[q_0, q_1, ..., q_bound], each exact (they are homogeneous): the
    exponential of sum_n c_n p_n / n with c_n = 2 z^n for odd n."""
    logs = {n: {(n, 0): 2} for n in range(1, degree_bound + 1, 2)}
    return exp_power_sums(logs, degree_bound, degree_bound)


@lru_cache(maxsize=None)
def _q_row(degree_bound: int):
    return tuple(q_series(degree_bound))


@lru_cache(maxsize=None)
def two_row_q(a: int, b: int, degree_bound: int) -> PSeries:
    """Classical Q_{(a,b)} in the power-sum basis, for a > b >= 0."""
    if not a > b >= 0:
        raise ValueError("two-row entries need a > b >= 0")
    q = _q_row(degree_bound)
    # Q_(a,b) = q_a q_b + 2 sum_(i>=1) (-1)^i q_(a+i) q_(b-i), q_n = 0 past the bound
    return combination(((q[a + i] * q[b - i], 0, (-2 if i % 2 else 2) if i else 1)
                        for i in range(min(b, degree_bound - a) + 1)), degree_bound)


@lru_cache(maxsize=None)
def classical_q(mu, degree_bound: int) -> PSeries:
    """Schur Q_mu in the power-sum basis via the two-row Pfaffian."""
    mu = check_partition(mu, strict=True)
    return padded_pfaffian(
        mu, PSeries.one(degree_bound),
        lambda i, j, li, lj: two_row_q(li, lj or 0, degree_bound))


def power_sum(n: int, degree_bound: int) -> PSeries:
    """The power sum p_n."""
    if n < 1:
        raise ValueError("power sums are indexed by positive integers")
    return PSeries({(n,): 1}, degree_bound)


def truncate(f: PSeries, new_bound: int) -> PSeries:
    """f modulo the terms of degree > new_bound, at that bound; a bound
    above f's raises ValueError."""
    new_bound = check_degree_bound(new_bound)
    if new_bound > f.degree_bound:
        raise ValueError("cannot raise a degree bound after the fact")
    kept = {key: c for key, c in f.terms.items() if sum(key[0]) <= new_bound}
    return PSeries._reduced(kept, f.den, new_bound)


def deformed_q(mu, flavor: str, degree_bound: int) -> PSeries:
    """Q_mu with every power sum replaced by its deformed image.

    Bracket images push weight downward, so the substitution runs at degree
    max(bound, |mu|) before truncating; paren images only feed upward.
    """
    mu = check_partition(mu, strict=True)
    inner = max(degree_bound, sum(mu)) if flavor == "bracket" else degree_bound
    q = classical_q(mu, inner)
    image = image_sum(q.terms, q.den, flavor, inner)
    return truncate(image, degree_bound) if inner > degree_bound else image


def to_deformed_basis(f: PSeries, flavor: str) -> dict:
    """{lambda: Qb} coordinates of f in the deformed power-sum basis of the
    flavor, by elimination; a fresh dict."""
    return {mu: Qb(c) for mu, c in _eliminate(f, flavor).sorted_items()}


def from_deformed_basis(coeffs, flavor: str, degree_bound: int) -> PSeries:
    """sum coeffs[lambda] * (deformed p_lambda), as an ordinary PSeries.

    coeffs maps partitions to int, Fraction or BetaScalar values.
    """
    flat = {(tuple(key), k): c * z_lambda(tuple(key))
            for key, val in coeffs.items() for k, c in _monomials(val)}
    return image_sum(flat, 1, flavor, degree_bound)


def flat_series(terms, degree_bound: int) -> PSeries:
    """The series sum c b^k p_lambda over flat terms {(lambda, k): c}, each
    c a Fraction, through the checked public constructor."""
    grouped: dict = {}
    for (mu, k), c in terms.items():
        grouped.setdefault(mu, []).append((k, c))
    return PSeries({mu: _from_monomials(pairs) for mu, pairs in grouped.items()}, degree_bound)


def _eliminate(f: PSeries, flavor: str) -> PSeries:
    """Coordinates of f in the deformed basis by triangular elimination,
    degree by degree: up from the bottom for paren, down from the top for
    bracket.  A nonzero residue raises ArithmeticError."""
    bound = f.degree_bound
    degrees = range(bound + 1) if flavor == "paren" else range(bound, -1, -1)
    rep = f
    out = {}
    for d in degrees:
        level = {key: c for key, c in rep.terms.items() if sum(key[0]) == d}
        if not level:
            continue
        out.update({key: Fraction(c, rep.den * z_lambda(key[0])) for key, c in level.items()})
        rep = rep - image_sum(level, rep.den, flavor, bound)
    if not is_zero(rep):
        raise ArithmeticError("triangular elimination left a residue")
    return flat_series(out, bound)


def pair_by_elimination(f: PSeries, g: PSeries) -> Qb:
    """<f, g> as the paper defines it: the coordinates of f in the paren
    basis and of g in the bracket basis, by elimination, paired."""
    return pair_coordinates(_eliminate(f, "paren"), _eliminate(g, "bracket"))


def pair_coordinates(cf: PSeries, cg: PSeries) -> Qb:
    """The paper's form on coordinates, kept as series whose terms are the
    coordinates (as _eliminate returns them): z_lambda 2^{-l(lambda)} on
    matching partitions.  A coordinate on a partition with an even part
    raises ValueError."""
    for mu, _ in (*cf.terms, *cg.terms):
        if any(part % 2 == 0 for part in mu):
            raise ValueError(f"coordinate on {mu}, which has an even part")
    right: dict = {}
    for (mu, kb), c in cg.terms.items():
        right.setdefault(mu, []).append((kb, c))
    total: dict = {}
    for (mu, ka), a in cf.terms.items():
        for kb, c in right.get(mu, ()):
            total[ka + kb] = total.get(ka + kb, 0) + Fraction(
                a * c, cf.den * cg.den * z_lambda(mu) * 2 ** len(mu))
    return _qb(total.items())


# -- finitevars: polynomials monomial by monomial, and the substitution ------
#
# The oracle answers in Schur coordinates (finitevars.SymmetricPoly).
# FinitePoly writes a polynomial out term by term, one Fraction per
# (exponent tuple, b-power), so that the oracle can be compared monomial by
# monomial with the literal symmetrization, the divided differences and
# eval_finite: expand writes every s_nu out by a chain of divided
# differences, and schur_coordinates checks symmetry and peels the s_nu
# back off.

def _grouped(flat) -> dict:
    """{key: Qb} from flat {(key, k): Fraction} terms, zeros dropped."""
    pairs: dict = {}
    for (key, k), c in flat.items():
        pairs.setdefault(key, []).append((k, c))
    out = {}
    for key, got in pairs.items():
        value = _qb(got)
        if value:
            out[key] = value
    return out


class FinitePoly:
    """Polynomial in x_0..x_{nvars-1} with coefficients in Q[b].

    terms is flat: it maps (exps, k), exps a full-length
    exponent tuple and k an int >= 0, to the nonzero Fraction c of the term
    c*b^k*x^exps.  The constructor takes {exps: int, Fraction or
    BetaScalar}, and coefficient() hands a coefficient out as a Qb.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        flat = {}
        for exps, v in (terms or {}).items():
            for k, c in _monomials(v):
                flat[(tuple(exps), k)] = c
        self._fill(nvars, flat)

    @classmethod
    def _from_flat(cls, nvars: int, terms) -> "FinitePoly":
        """A polynomial from flat terms {(exps, k): Fraction}, checked as
        the constructor checks; zero values are dropped."""
        out = object.__new__(cls)
        out._fill(nvars, terms)
        return out

    def _fill(self, nvars, flat):
        nvars = check_degree_bound(nvars, "variable count")
        for exps, k in flat:
            if len(exps) != nvars or any(e < 0 for e in exps) or k < 0:
                raise ValueError(f"bad term x^{exps} b^{k} for {nvars} variables")
        self.nvars = nvars
        self.terms = {key: c for key, c in flat.items() if c}

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    def _check(self, other):
        if self.nvars != other.nvars:
            raise ValueError("variable counts differ")

    def __add__(self, other):
        if isinstance(other, FinitePoly):
            self._check(other)
            out = dict(self.terms)
            for key, c in other.terms.items():
                s = out.get(key, 0) + c
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
            return FinitePoly._from_flat(self.nvars, out)
        return NotImplemented

    def __neg__(self):
        return FinitePoly._from_flat(self.nvars, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, FinitePoly):
            self._check(other)
            pairs = [(kb, eb, cb) for (kb, eb), cb in other.terms.items()]
            out: dict = {}
            for (ka, ea), ca in self.terms.items():
                for kb, eb, cb in pairs:
                    key = (tuple(a + b for a, b in zip(ka, kb)), ea + eb)
                    s = out.get(key, 0) + ca * cb
                    if s:
                        out[key] = s
                    else:
                        out.pop(key, None)
            return FinitePoly._from_flat(self.nvars, out)
        if isinstance(other, (int, Fraction, BetaScalar)):
            out = {}
            for e, c in _monomials(other):
                for (exps, k), v in self.terms.items():
                    key = (exps, k + e)
                    out[key] = out.get(key, 0) + v * c
            return FinitePoly._from_flat(self.nvars, out)
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, FinitePoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(exps) for exps, _ in self.terms), default=None)

    def coefficient(self, exps) -> Qb:
        exps = tuple(exps)
        return _qb((k, c) for (e, k), c in self.terms.items() if e == exps)

    def __str__(self):
        if not self.terms:
            return "0"
        coeffs = _grouped(self.terms)
        bits = []
        for k in sorted(coeffs, key=lambda t: (sum(t), t), reverse=True):
            mon = "*".join(f"x{i}^{e}" if e > 1 else f"x{i}"
                           for i, e in enumerate(k) if e) or "1"
            bits.append(f"({coeffs[k]})*{mon}")
        return " + ".join(bits)

    __repr__ = __str__


@lru_cache(maxsize=None)
def _schur_poly(nu: tuple[int, ...], n: int) -> dict:
    """s_nu(x_1..x_n) as {exps: int}: the divided difference d_{w0} of
    x^{nu + delta}, delta = (n-1, ..., 1, 0), which is A(x^{nu + delta}) / V
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3), one
    adjacent step of a reduced word of w0 at a time."""
    alpha = [part + n - 1 - i for i, part in enumerate(nu + (0,) * (n - len(nu)))]
    _check_fits(max(alpha, default=0))
    poly = {_mono(n, 0, alpha): 1}
    for i in _coset_word(n, n):
        poly = _divided_difference(poly, i)
    return {tuple(key >> _W * i & _MASK for i in range(n)): c for key, c in poly.items()}


def expand(sym: SymmetricPoly) -> FinitePoly:
    """The polynomial of Schur coordinates, every s_nu written out; the
    coordinate of s_nu b^k is n / den over the store's {(nu, k): n}."""
    n = sym.nvars
    out: dict = {}
    for (nu, k), a in sym.terms.items():
        for exps, c in _schur_poly(nu, n).items():
            out[(exps, k)] = out.get((exps, k), 0) + a * c
    return FinitePoly._from_flat(n, {key: Fraction(v, sym.den) for key, v in out.items()})


def schur_coordinates(g: FinitePoly) -> SymmetricPoly:
    """The Schur coordinates of a symmetric polynomial.

    The lex-greatest monomial x^alpha of g, at its b-power, is read as the
    coordinate of s_alpha, and that multiple of s_alpha is subtracted.  On a
    symmetric polynomial alpha is weakly decreasing, since every
    rearrangement of alpha carries the same coefficient, and every other
    monomial of s_alpha is lex-smaller than x^alpha, so the leading
    monomial falls at each step and the walk ends, at zero exactly when g is
    symmetric.  A leading alpha that is not weakly decreasing raises
    ValueError.
    """
    n = g.nvars
    rest = dict(g.terms)
    coords: dict = {}
    while rest:
        alpha, k = max(rest, key=lambda term: (term[1], term[0]))
        if any(a < e for a, e in zip(alpha, alpha[1:])):
            raise ValueError("input is not a symmetric polynomial")
        c = rest[(alpha, k)]
        nu = tuple(e for e in alpha if e)
        coords[(nu, k)] = c
        for exps, count in _schur_poly(nu, n).items():
            left = rest.get((exps, k), 0) - c * count
            if left:
                rest[(exps, k)] = left
            else:
                del rest[(exps, k)]
    return SymmetricPoly(n, coords)


def hook_count(nu):
    """f^nu, the standard tableaux of shape nu, by the hook-length formula."""
    conj = [sum(1 for p in nu if p > j) for j in range(nu[0])] if nu else []
    hooks = 1
    for i, row in enumerate(nu):
        for j in range(row):
            hooks *= (row - j) + (conj[j] - i) - 1
    return factorial(sum(nu)) // hooks


# -- the substitution that from_finite inverts --------------------------------

def power_sum_poly(k: int, nvars: int) -> FinitePoly:
    if k < 1:
        raise ValueError("power sums are indexed by positive integers")
    terms = {}
    for i in range(nvars):
        e = [0] * nvars
        e[i] = k
        terms[tuple(e)] = 1
    return FinitePoly(nvars, terms)


@lru_cache(maxsize=None)
def _partition_power_poly(lam: tuple[int, ...], nvars: int) -> FinitePoly:
    # prefix recursion so (2,1,1) reuses the poly cached for (2,1)
    if not lam:
        return FinitePoly(nvars, {(0,) * nvars: 1})
    return _partition_power_poly(lam[:-1], nvars) * power_sum_poly(lam[-1], nvars)


def eval_finite(f: PSeries, nvars: int) -> FinitePoly:
    """Substitute each p_k by the k-th power sum in nvars variables."""
    out: dict = {}
    for (key, k), n in f.terms.items():
        c = Fraction(n, f.den * z_lambda(key))
        for (exps, e), v in _partition_power_poly(key, nvars).terms.items():
            got = (exps, e + k)
            out[got] = out.get(got, 0) + v * c
    return FinitePoly._from_flat(nvars, out)


def from_finite_by_fractions(g: SymmetricPoly, degree_bound: int) -> PSeries:
    """from_finite as a triangular solve on monomial coordinates, in Fractions.

    The m_lam coordinate of g is the coefficient of x^lam in g written out
    (expand).  x^lam occurs in p_mu only when lam coarsens mu (Macdonald,
    Symmetric Functions and Hall Polynomials, I.6), so the walk solves the
    p_mu coordinates by decreasing length, each the remainder at mu over
    the coefficient of x^mu in p_mu, read off p_mu written out
    (_partition_power_poly), and the series is built from them by the
    checked constructor.  Neither the characters nor the integrality of
    from_finite is shared with it; it needs nvars >= degree_bound.
    """
    n = g.nvars
    rest: dict = {}
    for (exps, k), c in expand(g).terms.items():
        if all(a >= e for a, e in zip(exps, exps[1:])):
            rest.setdefault(tuple(e for e in exps if e), {})[k] = c
    coeffs: dict = {}
    for mu in sorted(partitions_upto(degree_bound), key=len, reverse=True):
        row = {tuple(e for e in exps if e): c
               for (exps, _), c in _partition_power_poly(mu, n).terms.items()
               if all(a >= e for a, e in zip(exps, exps[1:]))}
        for k, r in rest.pop(mu, {}).items():
            if r:
                c = coeffs[(mu, k)] = r / row[mu]
                for lam, count in row.items():
                    if lam != mu:
                        got = rest.setdefault(lam, {})
                        got[k] = got.get(k, 0) - c * count
    return flat_series(coeffs, degree_bound)


# -- laurent: region-committed Laurent blocks --------------------------------
#
# A rational kernel like (z-w)/(z+w+b) has different Laurent expansions in
# different regions; which one is meant is part of the object, not a detail.
# A LaurentBlock therefore fixes an ordered variable list (first variable
# largest: |z_1| >> |z_2| >> ...) and per-variable exponent windows.  Outside
# its window a block's coefficients are either known to vanish (flagged) or
# unknown (truncated away); multiplication propagates exactness honestly, so
# extracting a coefficient never silently uses a truncated tail.

_INF = 10 ** 9


def _clip(v):
    return max(-_INF, min(_INF, v))


class LaurentBlock:
    """Truncated Laurent object in ordered variables.

    window[i] = (lo, hi) bounds the stored exponents of variable i.
    known_below[i] / known_above[i] record whether coefficients outside the
    window on that side are known to be zero (True) or merely not computed.
    """

    __slots__ = ("variables", "window", "known_below", "known_above",
                 "terms", "ring_zero")

    def __init__(self, variables, window, terms, ring_zero,
                 known_below=None, known_above=None):
        self.variables = tuple(variables)
        m = len(self.variables)
        self.window = tuple((int(lo), int(hi)) for lo, hi in window)
        if len(self.window) != m:
            raise ValueError("window arity mismatch")
        self.known_below = tuple(known_below or (False,) * m)
        self.known_above = tuple(known_above or (False,) * m)
        self.ring_zero = ring_zero
        clean = {}
        for exps, c in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != m:
                raise ValueError("exponent arity mismatch")
            for e, (lo, hi) in zip(exps, self.window):
                if not lo <= e <= hi:
                    raise ValueError(f"stored exponent {exps} outside window")
            if c != ring_zero:
                clean[exps] = c
        self.terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def from_polynomial(cls, variables, terms, ring_zero):
        """A complete block: support is finite and fully stored."""
        m = len(tuple(variables))
        if terms:
            lo = [min(e[i] for e in terms) for i in range(m)]
            hi = [max(e[i] for e in terms) for i in range(m)]
        else:
            lo = [0] * m
            hi = [0] * m
        return cls(variables, list(zip(lo, hi)), terms, ring_zero,
                   known_below=(True,) * m, known_above=(True,) * m)

    # -- inspection ---------------------------------------------------------

    def coefficient(self, exps):
        """Exact coefficient at the exponent vector; errors if unknowable."""
        exps = tuple(int(e) for e in exps)
        for e, (lo, hi), kb, ka in zip(exps, self.window,
                                       self.known_below, self.known_above):
            if e < lo and not kb:
                raise ValueError(f"exponent {exps} below window, value unknown")
            if e > hi and not ka:
                raise ValueError(f"exponent {exps} above window, value unknown")
        return self.terms.get(exps, self.ring_zero)

    def _compatible(self, other):
        if self.variables != other.variables:
            raise ValueError("blocks must share the same ordered variables")

    # -- arithmetic -----------------------------------------------------

    def __add__(self, other):
        self._compatible(other)
        m = len(self.variables)
        window, kb, ka = [], [], []
        for i in range(m):
            alo, ahi = self.window[i]
            blo, bhi = other.window[i]
            akb, bkb = self.known_below[i], other.known_below[i]
            aka, bka = self.known_above[i], other.known_above[i]
            known_lo = max(-_INF if akb else alo, -_INF if bkb else blo)
            known_hi = min(_INF if aka else ahi, _INF if bka else bhi)
            new_kb = akb and bkb
            new_ka = aka and bka
            lo = min(alo, blo) if new_kb else known_lo
            hi = max(ahi, bhi) if new_ka else known_hi
            if lo > hi:
                raise ValueError("sum has an empty exactness window")
            window.append((lo, hi))
            kb.append(new_kb)
            ka.append(new_ka)
        terms = {}
        for src in (self.terms, other.terms):
            for exps, c in src.items():
                if all(lo <= e <= hi for e, (lo, hi) in zip(exps, window)):
                    prev = terms.get(exps)
                    terms[exps] = c if prev is None else prev + c
        return LaurentBlock(self.variables, window, terms, self.ring_zero, kb, ka)

    def __neg__(self):
        return LaurentBlock(self.variables, self.window,
                            {k: -v for k, v in self.terms.items()},
                            self.ring_zero, self.known_below, self.known_above)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        return LaurentBlock(self.variables, self.window,
                            {k: v * c for k, v in self.terms.items()},
                            self.ring_zero, self.known_below, self.known_above)

    def __mul__(self, other):
        self._compatible(other)
        m = len(self.variables)
        window, kb, ka = [], [], []
        for i in range(m):
            alo, ahi = self.window[i]
            blo, bhi = other.window[i]
            akb, bkb = self.known_below[i], other.known_below[i]
            aka, bka = self.known_above[i], other.known_above[i]
            # possibly-nonzero ranges (unknown zones count as possibly nonzero)
            pa = (alo if akb else -_INF, ahi if aka else _INF)
            pb = (blo if bkb else -_INF, bhi if bka else _INF)
            bad_hi = -_INF  # top of the "poisoned from below" zone
            bad_lo = _INF   # bottom of the "poisoned from above" zone
            if not akb:
                bad_hi = max(bad_hi, _clip(alo - 1 + pb[1]))
            if not bkb:
                bad_hi = max(bad_hi, _clip(blo - 1 + pa[1]))
            if not aka:
                bad_lo = min(bad_lo, _clip(ahi + 1 + pb[0]))
            if not bka:
                bad_lo = min(bad_lo, _clip(bhi + 1 + pa[0]))
            new_kb = akb and bkb
            new_ka = aka and bka
            lo = alo + blo if new_kb else bad_hi + 1
            hi = ahi + bhi if new_ka else bad_lo - 1
            if lo > hi:
                raise ValueError(
                    f"product window empty for variable {self.variables[i]}")
            window.append((lo, hi))
            kb.append(new_kb)
            ka.append(new_ka)
        terms = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                exps = tuple(x + y for x, y in zip(ea, eb))
                if all(lo <= e <= hi for e, (lo, hi) in zip(exps, window)):
                    c = ca * cb
                    prev = terms.get(exps)
                    terms[exps] = c if prev is None else prev + c
        return LaurentBlock(self.variables, window, terms, self.ring_zero, kb, ka)

    def __eq__(self, other):
        return (isinstance(other, LaurentBlock)
                and self.variables == other.variables
                and self.terms == other.terms)

    def restrict(self, window):
        """Narrow the window (never widen); keeps exactness flags."""
        new = []
        for (lo, hi), (wlo, whi) in zip(self.window, window):
            if wlo < lo or whi > hi:
                raise ValueError("restrict cannot widen a window")
            new.append((wlo, whi))
        terms = {e: c for e, c in self.terms.items()
                 if all(lo <= x <= hi for x, (lo, hi) in zip(e, new))}
        return LaurentBlock(self.variables, new, terms, self.ring_zero,
                            self.known_below, self.known_above)

    def __repr__(self):
        win = ", ".join(f"{v}:[{lo},{hi}]" for v, (lo, hi)
                        in zip(self.variables, self.window))
        return f"LaurentBlock({win}; {len(self.terms)} terms)"


def two_point_kernel(big_var: str, small_var: str, window) -> LaurentBlock:
    """Block form of (z-w)/(z+w+b) on |big| >> |small|.

    window = ((z_lo, z_hi), (w_lo, w_hi)); the kernel has no positive powers
    of the big variable and no negative powers of the small one.
    """
    (zlo, zhi), (wlo, whi) = window
    if zhi > 0:
        raise ValueError("kernel has no positive powers of the big variable")
    if wlo < 0:
        raise ValueError("kernel has no negative powers of the small variable")
    terms = {}
    for p in range(zlo, zhi + 1):
        for q in range(wlo, min(whi, -p) + 1):
            c = kernel_coefficient(p, q)
            if c:
                terms[(p, q)] = c
    return LaurentBlock(
        (big_var, small_var), ((zlo, zhi), (wlo, whi)), terms, ZERO,
        known_below=(False, wlo <= 0),
        # w-coefficients above the window pair only with z below it
        known_above=(zhi >= 0, whi >= -zlo),
    )


def dual_two_point_kernel(big_var: str, small_var: str, window) -> LaurentBlock:
    """Block form of (z-w)/(z+w+bzw), ascending in the small variable."""
    (zlo, zhi), (wlo, whi) = window
    if zhi > 0:
        raise ValueError("kernel has no positive powers of the big variable")
    if wlo < 0:
        raise ValueError("kernel has no negative powers of the small variable")
    terms = {}
    for p in range(zlo, zhi + 1):
        for q in range(max(wlo, -p), whi + 1):
            c = dual_kernel_coefficient(p, q)
            if c:
                terms[(p, q)] = c
    return LaurentBlock(
        (big_var, small_var), ((zlo, zhi), (wlo, whi)), terms, ZERO,
        known_below=(False, wlo <= 0),
        known_above=(zhi >= 0, False),
    )


def binomial_block(variables, index: int, k: int, depth: int,
                   inverse_powers=False) -> LaurentBlock:
    """(1 + b v)^k (or (1 + b/v)^k) as a one-variable block embedded in
    a multi-variable layout, expanded to |exponent| <= depth."""
    m = len(tuple(variables))
    terms = {}
    top = k if (k >= 0 and k <= depth) else depth
    for j in range(top + 1):
        c = binom_general(k, j)
        if not c:
            continue
        exps = [0] * m
        exps[index] = -j if inverse_powers else j
        terms[tuple(exps)] = Qb.beta_power(j, c)
    complete = 0 <= k <= depth  # a genuine polynomial fully captured
    window = []
    kb, ka = [], []
    for i in range(m):
        if i != index:
            window.append((0, 0))
            kb.append(True)
            ka.append(True)
        elif inverse_powers:
            window.append((-top, 0))
            kb.append(complete)
            ka.append(True)
        else:
            window.append((0, top))
            kb.append(True)
            ka.append(complete)
    return LaurentBlock(variables, window, terms, ZERO, kb, ka)


# -- fock: the Fraction actions, plain modes, the Heisenberg action, Wick's theorem
#
# The Fraction form of the library's Fock actions, kept as their referee: a
# flat {(word, k): Fraction} state, normal-ordering tables of b_m over the
# rationals, the mode coefficients as Fractions and one Fraction product per
# term.  Only _bra_insert, whose values are ints either way, is shared.  They
# cover every sign and index: phi^(beta)_n and phihat_n at any n, e^{+Theta}
# and e^{-theta}, of which the library builds only (phihat_n)^* for n >= 1
# (fock._phihat_row, conjugated by e^{i Theta}), (phi^(beta)_n)^* and
# e^{theta}.  The ket
# actions, which no library route calls since the routes build their kets in
# bra form, live here as star images of bra actions, with the star itself.

_HALF = Fraction(1, 2)


def _merge(target, key, coeff):
    if not coeff:
        return
    prev = target.get(key)
    total = coeff if prev is None else prev + coeff
    if total:
        target[key] = total
    elif prev is not None:
        del target[key]


def grade(word) -> int:
    return sum(word)


@lru_cache(maxsize=None)
def _phi_beta_modes(n, cutoff, sign):
    """(index, b-power, coefficient) of phi^(beta)_n, plain modes <= cutoff.

    For n >= 0 the series sum_{m>=n} C(m,n) (b/2)^{m-n} phi_m ascends without
    bound; the caller supplies the grading cutoff.  sign=-1 flips beta.
    """
    half = _HALF if sign > 0 else -_HALF
    if n >= 0:
        return tuple((m, m - n, binom_general(m, n) * half ** (m - n))
                     for m in range(n, cutoff + 1))
    out = []
    for m in range(1, -n + 1):
        c = binom_general(-m, -n - m)
        if c:
            out.append((-m, -n - m, c * half ** (-n - m)))
    return tuple(out)


@lru_cache(maxsize=None)
def _ket_phi_beta_modes(n, cutoff):
    """Modes of (phi^(beta)_n)^* = sum_{m>=n} C(m,n) (b/2)^{m-n} (-1)^m phi_{-m}."""
    return tuple((-m, e, -c if m % 2 else c) for m, e, c in _phi_beta_modes(n, cutoff, 1))


def _bra_apply(state, table, modes):
    """Right action of sum c b^e X_m over the (m, e, c) of modes(grade of
    the word), with <0| word X_m read from table(word, m)."""
    out = {}
    for (word, k), coeff in state.items():
        for m, e, scal in modes(grade(word)):
            c0 = coeff * scal
            for w, c in table(word, m).items():
                _merge(out, (w, k + e), c0 * c)
    return out


@lru_cache(maxsize=None)
def _bra_vacuum_b(m):
    """<0| b_m as {word: Fraction}; (1/4) sum_{i=-m}^{0} (-1)^i <0| phi_{-i-m} phi_i."""
    out = {}
    quarter = Fraction(1, 4)
    for i in range(-m, 1):
        sgn = quarter if i % 2 == 0 else -quarter
        for w, c in _bra_insert((), -i - m).items():
            for w2, c2 in _bra_insert(w, i).items():
                _merge(out, w2, sgn * c * c2)
    return out


@lru_cache(maxsize=None)
def _bra_word_b(word, m):
    """<0| word b_m as {word: Fraction}, via [b_m, phi_n] = phi_{n-m},
    peeling from the right."""
    if not word:
        return _bra_vacuum_b(m)
    head, n = word[:-1], word[-1]
    out = {}
    for w, c in _bra_word_b(head, m).items():
        for w2, c2 in _bra_insert(w, n).items():
            _merge(out, w2, c * c2)
    for w, c in _bra_insert(head, n - m).items():
        _merge(out, w, Fraction(-c))
    return out


@lru_cache(maxsize=None)
def _theta_modes(sign, reach, lower):
    """(index m, b-power, coefficient) of the b_m of sign*Theta, or of
    sign*theta when lower, for odd n <= reach."""
    return tuple((n if lower else -n, n, Fraction(sign, n * 2 ** (n - 1)))
                 for n in range(1, reach + 1, 2))


def _theta_exp(state, sign, top):
    """Right action of e^{sign*Theta} (top None) or of e^{sign*theta}, cut
    at grade -top."""
    lower = top is not None
    total = dict(state)
    term = state
    k = 1
    while term:
        term = _bra_apply(term, _bra_word_b,
                          lambda g: _theta_modes(sign, top + g if lower else -g, lower))
        if not term:
            break
        term = {key: c / k for key, c in term.items()}
        for key, c in term.items():
            _merge(total, key, c)
        k += 1
    return total


def star_bra(state):
    """<0|phi_{m_1}..phi_{m_k}  |->  (-1)^{sum m} phi_{-m_k}..phi_{-m_1}|0>;
    the same formula sends a ket back to its bra."""
    return fock.FockState({(tuple(-m for m in reversed(word)), k): -c if sum(word) % 2 else c
                           for (word, k), c in fraction_terms(state).items()})


def fraction_terms(state):
    """{(word, k): Fraction} of a fock.FockState; a flat dict passes through."""
    if isinstance(state, fock.FockState):
        return {key: Fraction(n, state.den) for key, n in state.terms.items()}
    return state


def _like(state, out):
    """out as a FockState when state is one, else as the flat dict."""
    return fock.FockState(out) if isinstance(state, fock.FockState) else out


def ref_bra_apply_phi_beta(state, n, sign=1):
    """Right action of phi^(beta)_n (phi^(-beta)_n with sign=-1), n in Z,
    which no route calls: the routes use its star forms."""
    return _like(state, _bra_apply(fraction_terms(state), _bra_insert,
                                   lambda g: _phi_beta_modes(n, -g, sign)))


def ref_bra_apply_phihat_star(state, n):
    """(phi-hat_n)^* = (-1)^n phi^(-beta)_{-n}, n in Z; the library builds
    it for n >= 1 only, as fock._phihat_row at low = n."""
    out = ref_bra_apply_phi_beta(fraction_terms(state), -n, sign=-1)
    if n % 2:
        out = {key: -c for key, c in out.items()}
    return _like(state, out)


def ref_bra_apply_phi_beta_star(state, n, top):
    return _like(state, _bra_apply(fraction_terms(state), _bra_insert,
                                   lambda g: _ket_phi_beta_modes(n, top + g)))


def ref_bra_apply_theta_exp(state, sign=1):
    """Right action of e^{Theta} (sign=+1) or e^{-Theta} (sign=-1); the
    library builds neither, and folds e^{-Theta} into the rows of the dual
    kets (fock._phihat_row)."""
    return _like(state, _theta_exp(fraction_terms(state), sign, None))


def ref_bra_apply_Theta_exp_star(state, top, sign=1):
    """Right action of e^{theta} (sign=+1) or e^{-theta} (sign=-1), the
    star of e^{Theta} or e^{-Theta} on kets; grades < -top dropped."""
    # _theta_exp keeps an input word below the cut; the cut holds on the
    # input too, so it is applied here first
    kept = {key: c for key, c in fraction_terms(state).items() if grade(key[0]) >= -top}
    return _like(state, _theta_exp(kept, sign, top))


def ket_apply_phi_beta(state, n, top):
    """Left action of phi^(beta)_n, n >= 0, on kets; grades > top dropped."""
    return star_bra(fock.bra_apply_phi_beta_star(star_bra(state), n, top))


def ket_apply_phihat(state, n):
    """Left action of the dual deformed mode phi-hat_n on ket states."""
    return star_bra(ref_bra_apply_phihat_star(star_bra(state), n))


def ket_apply_Theta_exp(state, top):
    """Left action of e^{Theta} on kets; grades > top dropped."""
    return star_bra(fock.bra_apply_Theta_exp_star(star_bra(state), top))


def ket_apply_theta_exp(state, sign=1):
    """Left action of e^{theta} (sign=+1) or e^{-theta} (sign=-1)."""
    return star_bra(ref_bra_apply_theta_exp(star_bra(state), sign))


def bra_apply_phi(state, n):
    out = {}
    for (word, k), coeff in fraction_terms(state).items():
        for w, c in _bra_insert(word, n).items():
            _merge(out, (w, k), coeff * c)
    return _like(state, out)


def bra_apply_b(state, m):
    """Right action of the Heisenberg generator b_m, m odd."""
    out = {}
    for (word, k), coeff in fraction_terms(state).items():
        for w, c in _bra_word_b(word, m).items():
            _merge(out, (w, k), coeff * c)
    return _like(state, out)


def pair(bra, ket) -> Qb:
    """Vacuum expectation <w|v>; this is where <0|phi_0|0> = 0 lives."""
    total = ZERO
    for (kword, k), kcoeff in fraction_terms(ket).items():
        folded = bra
        for n in kword:
            folded = bra_apply_phi(folded, n)
            if not folded:
                break
        else:
            total = total + Qb.beta_power(k, kcoeff) * vacuum_part(folded)
    return total


def vev_direct(letters) -> Qb:
    """<0| phi_{n_1} ... phi_{n_k} |0> by normal ordering, no Pfaffian."""
    state = {((), 0): Fraction(1)}
    for n in letters:
        state = bra_apply_phi(state, n)
        if not state:
            return ZERO
    return vacuum_part(state)


def two_point(a: int, b: int):
    """<0| phi_a phi_b |0>."""
    if a == b == 0:
        return Fraction(1)
    if a + b == 0 and a < 0:
        return Fraction(2 if a % 2 == 0 else -2)
    return Fraction(0)


def wick_expectation(letters) -> Qb:
    """<0| phi_{n_1} ... phi_{n_{2r}} |0> as the Pfaffian of two-points."""
    letters = tuple(letters)
    if len(letters) % 2:
        return ZERO
    return Qb(padded_pfaffian(
        letters, Fraction(1), lambda i, j, a, b: two_point(a, b)))


# -- gq: the one-row coefficient at any index, the K-theoretic cancellation property

def gq_coefficient(n: int, degree_bound: int) -> PSeries:
    """GQ_n for any int n: the closed form (-b)^{-n} for n <= 0, zero past
    the bound, and the entry of gq_series(degree_bound) in between."""
    if n <= 0:
        return PSeries({(): Qb.beta_power(-n, -1 if n % 2 else 1)}, degree_bound)
    if n > degree_bound:
        return PSeries.zero(degree_bound)
    return gq_series(degree_bound)[n]


def check_kq_cancellation(f, degree_bound, nvars):
    """Does f have the K-theoretic cancellation property, up to the bound?

    The property carves out the ring GQ_lambda lives in: f(t, -t/(1 +
    beta t), x_3, ...) does not depend on t.

    Evaluates f in nvars variables, substitutes x_1 = t and
    x_2 = -t/(1 + beta t), clears (1 + beta t)^D, and subtracts the t = 0
    value times the same clearing factor.  A source monomial of x-degree m
    only produces cleared monomials of total (t, x)-degree >= m, so the
    coefficients at total degree <= D are exactly determined by f and must
    all vanish; heavier ones belong to the discarded part of the series
    and are ignored.  Returns True iff every trusted coefficient is zero.

    f must carry every degree up to the bound (f.degree_bound >= D), and
    nvars >= D + 2 keeps the remaining-variable window faithful.
    """
    D = degree_bound
    if nvars < D + 2:
        raise ValueError("need nvars >= degree_bound + 2")
    if f.degree_bound < D:
        raise ValueError("f is truncated below the requested bound")
    g = eval_finite(f, nvars)
    cleared = {}
    for exps, c in scalar_terms(g).items():
        m = sum(exps)
        if m > D:
            continue
        tpow = exps[0] + exps[1]
        if tpow == 0:
            # t-free sources cancel exactly against the t = 0 part
            continue
        tail = exps[2:]
        sgn = -1 if exps[1] % 2 else 1
        # t^{e0} tbar^{e1} -> (-1)^{e1} t^{e0+e1} (1+beta t)^{D-e1};
        # binomial index j beyond D - m leaves the trusted zone.
        for j in range(D - m + 1):
            cb = binom_general(D - exps[1], j)
            key = (tpow + j, tail)
            add = c * Qb.beta_power(j, cb * sgn)
            prev = cleared.get(key)
            cleared[key] = add if prev is None else prev + add
    return not any(cleared.values())


# -- dualq: the pairing in closed form, on Fock space, gp by recursion, the dual ring

def pairing_i(m, n):
    """I(m, n), the elementary pairing of one bra row against one ket row.

    Zero for m < n; 1 at m = n = 0; 2 on the rest of the diagonal;
    (-b)^{m-n} above it.
    """
    if m < n:
        return ZERO
    if m == n:
        return ONE if m == 0 else Qb(2)
    return Qb.beta_power(m - n, -1 if (m - n) % 2 else 1)


def _check_word(word, name):
    for s, t in zip(word, word[1:]):
        if s <= t:
            raise ValueError(f"{name} must be strictly decreasing")
    if word and word[-1] < 0:
        raise ValueError(f"{name} must have nonnegative parts")


def fock_pairing(mu, lam):
    """^g<mu|lambda>^G: the dual bra against the GQ-side ket.

    mu and lam are strictly decreasing words of nonnegative integers (a
    strict partition, optionally padded by one zero).  The bra is
    <0| (phihat_{mu_r})* e^{-Theta} ... (phihat_{mu_1})* e^{-Theta}; the
    ket is phi^(b)_{lam_1} e^{Theta} ... phi^(b)_{lam_s} e^{Theta} |0>.
    The value must match prod_i I(mu_i, lam_i) after zero-extending the
    shorter word, and is zero when the lengths differ in parity.  A bare
    length mismatch does not force zero: Theta does not annihilate the
    vacuum, so the empty ket behaves like a reservoir of zero rows
    (e.g. ^g<1,0|empty>^G = I(1,0) I(0,0) = -b).  Disagreement between
    the Fock evaluation and the product raises.
    """
    mu, lam = tuple(mu), tuple(lam)
    _check_word(mu, "mu")
    _check_word(lam, "lam")
    state = fock.vacuum()
    for n in reversed(mu):
        state = ref_bra_apply_phihat_star(state, n)
        state = ref_bra_apply_theta_exp(state, -1)
    for n in lam:
        state = ref_bra_apply_phi_beta(state, n)
        state = ref_bra_apply_theta_exp(state)
    got = vacuum_part(state)
    if (len(mu) - len(lam)) % 2:
        want = ZERO
    else:
        size = max(len(mu), len(lam))
        want = ONE
        for m, n in zip(mu + (0,) * (size - len(mu)), lam + (0,) * (size - len(lam))):
            want = want * pairing_i(m, n)
    if got != want:
        raise ArithmeticError("Fock pairing disagrees with the I product")
    return got


def dual_ket_by_taylor(lam, lows, degree_bound):
    """dualq._dual_ket as built before its e^{-Theta} were folded into the
    rows: each row is fock._phihat_row at conjugation power 0 followed by
    e^{-Theta} as a Taylor series, from the bra <0| or <0| phi_0."""
    state = fock.FockState({((0,) if len(lam) % 2 else (), 0): 1})
    for n, low in reversed(tuple(zip(lam, lows))):
        state = ref_bra_apply_theta_exp(fock._phihat_row(state, n, low, 0), -1)
    return vacuum_expectation(state, "bracket", degree_bound) * Fraction(1, 2 ** len(lam))


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


def inner_product_formula(lam, mu):
    """Closed form of <GQ_lambda, o_mu>.

    (-b)^{|mu| - |lambda|} / 2^{rows of mu strictly above lambda} when mu
    contains lambda, else 0.  Containment is the whole condition: no
    length restriction cuts the support further, since o_mu carries the
    nonzero constant term (-b)^{|mu|} / 2^{len(mu)} and therefore pairs
    nontrivially with 1 = GQ_empty.
    """
    lam = check_partition(lam, strict=True)
    mu = check_partition(mu, strict=True)
    if not contains(mu, lam):
        return ZERO
    d = sum(mu) - sum(lam)
    c = Fraction(-1 if d % 2 else 1, 2 ** row_count(mu, lam))
    return Qb.beta_power(d, c)


def interlacing_column(lam):
    """(nu, d, c) for each nonzero entry N_{nu,lambda} = c b^d of the inverse
    of the pairing matrix <GQ_mu, o_nu>, the column that dualq.gp's ket
    factors row by row.

    One nu per interlacing sequence lambda_1 >= nu_1 > lambda_2 >= ... >
    lambda_r >= nu_r >= 0, the rows ranging independently; only the last
    row may reach 0, which is dropped from nu.  c = (-1)^{d-r} / 2^d, d =
    |lambda| - |nu|, r the rows where nu_i < lambda_i.
    """
    rows = (range(below + 1, part + 1) for part, below in zip(lam, lam[1:] + (-1,)))
    for nu in product(*rows):
        d = sum(lam) - sum(nu)
        r = sum(a != b for a, b in zip(lam, nu))
        yield tuple(filter(None, nu)), d, Fraction(-1 if (d - r) % 2 else 1, 2 ** d)


@lru_cache(maxsize=None)
def o_one_row(n, degree_bound):
    """The one-row dual o_n = (1/2) sum_k (-b)^k q^[b]_{n-k}, 0 <= n <= D:
    the u^n coefficient of (1/2) (1 + bu)^{-1} q^[b](u), which referees
    o_fermionic((n,), D) and the padding column of dualq.o_pfaffian_2."""
    qb = q_bracket_series(degree_bound)
    return combination(((qb[n - k], k, Fraction(-1 if k % 2 else 1, 2))
                        for k in range(n + 1)), degree_bound)


def gp_by_recursion(lam, degree_bound):
    """gp_lambda by inverting the unitriangular matrix <GQ_mu, o_lambda>
    = (-b)^{|lambda|-|mu|} 2^{-row_count(lambda, mu)} row by row: subtract
    that multiple of gp_mu from o_lambda for every strict mu strictly
    inside lambda, the empty partition included.  Referees dualq.gp's
    closed form over the interlacing nu.
    """
    return _gp_cached(check_strict_weight(lam, degree_bound), degree_bound)


@lru_cache(maxsize=None)
def _gp_cached(lam, degree_bound):
    def parts():
        yield o_fermionic(lam, degree_bound), 0, 1
        for mu in sub_strict_partitions(lam):
            if mu != lam:
                d = sum(lam) - sum(mu)
                yield (_gp_cached(mu, degree_bound), d,
                       Fraction(1 if d % 2 else -1, 2 ** row_count(lam, mu)))

    return combination(parts(), degree_bound)


def check_dual_cancellation(g, nvars):
    """Does g(t, -t - b, x_3, ..., x_n) not depend on t?

    Exact (no truncation caveat: members of the dual ring are
    polynomials).  Requires nvars >= deg g + 2 so the surviving variables
    still determine g.  Returns False as soon as some t^b (b >= 1) slice
    of the substituted polynomial fails to cancel.
    """
    top = g.top_degree()
    if top is None:
        return True
    if nvars < top + 2:
        raise ValueError("need nvars >= deg g + 2")
    h = eval_finite(g, nvars)
    slices = {}
    for exps, c in scalar_terms(h).items():
        e0, e1, tail = exps[0], exps[1], exps[2:]
        # (-t-b)^{e1} spreads x_2^{e1} over t^j b^{e1-j} with sign (-1)^{e1}
        for j in range(e1 + 1):
            tpow = e0 + j
            if tpow == 0:
                continue
            cb = binom_general(e1, j)
            add = c * Qb.beta_power(e1 - j, -cb if e1 % 2 else cb)
            key = (tpow, tail)
            prev = slices.get(key)
            slices[key] = add if prev is None else prev + add
    return not any(slices.values())


# -- oracle: P0 monomial by monomial, the symmetrization as a chain of divided
# differences, and literally --
#
# The referees pack a monomial b^beta x^exps into one int, six bits per x
# exponent of x_0..x_{n-1}, with the beta exponent above them on top, so
# that multiplication of monomials is integer addition.  A field that
# overflowed would carry into its neighbour and silently change the
# answer, so each referee raises ValueError unless the exponents it can
# keep fit a field.  The library's oracle keeps exponent sets as masks and
# has no such limit; none of this is shared with it.

# key layout, least significant first: x_0 .. x_{n-1}, then beta on top
_W = 6
_MASK = (1 << _W) - 1


def _check_fits(top):
    """Raise unless exponents up to top fit the key fields."""
    if top > _MASK:
        raise ValueError(f"exponents up to {top} do not fit the referees' "
                         f"{_W}-bit key fields (at most {_MASK})")


def _p0_degree(lam, n):
    """Top x-degree of P0: [[x_i]]^{l_i} has l_i + 1, each pair factor 3."""
    r = len(lam)
    pairs = r * n - r * (r + 1) // 2
    return sum(lam) + r + 3 * pairs


def _bracket_power(n, a, power):
    """[[x_a]]^p = (2 + b x_a) x_a^p; p >= 1 here."""
    x = _W * a
    return {power << x: 2, (1 << _W * n) + ((power + 1) << x): 1}


def _pair_factor(n, a, c):
    """(x_a + x_c + b x_a x_c)(1 + b x_c), expanded into its five terms."""
    xa = 1 << _W * a
    xc = 1 << _W * c
    b = 1 << _W * n
    return {xa: 1, xc: 1, b + xa + xc: 2, b + 2 * xc: 1, 2 * b + xa + 2 * xc: 1}


def _positive_mul(a, b, n, bcap):
    """Product of packed polynomials without the terms of beta degree > bcap.

    The beta field is read as everything above the x fields, so a carry
    out of an overflowing x field can only make it read higher.  The terms
    that cancel are kept, which no product of factors with positive
    coefficients, as P0's are, has.
    """
    limit = (bcap + 1) << _W * n  # the first key of beta degree bcap + 1
    out = {}
    get = out.get
    for kb, cb in b.items():
        for ka, ca in a.items():
            key = ka + kb
            if key < limit:
                out[key] = get(key, 0) + ca * cb
    return out


def _mul(a, b, n, bcap):
    """_positive_mul with the terms that cancel dropped, for signed factors."""
    return {k: c for k, c in _positive_mul(a, b, n, bcap).items() if c}


def _mono(n, beta, exps):
    """The packed key of b^beta x^exps, in the oracle's layout."""
    key = beta << (_W * n)
    for i, e in enumerate(exps):
        key |= e << (_W * i)
    return key


def _oplus(n, a, b):
    """x_a + x_b + beta x_a x_b."""
    ea = [0] * n
    ea[a] = 1
    eb = [0] * n
    eb[b] = 1
    eab = [0] * n
    eab[a] = 1
    eab[b] = 1
    return {_mono(n, 0, ea): 1, _mono(n, 0, eb): 1, _mono(n, 1, eab): 1}


def _one_plus_beta(n, b):
    eb = [0] * n
    eb[b] = 1
    return {0: 1, _mono(n, 1, eb): 1}


def _to_finite(raw, n) -> FinitePoly:
    """The packed {key: int} polynomial as a FinitePoly, one term per key."""
    terms = {}
    for k, c in raw.items():
        xkey = tuple((k >> (_W * i)) & _MASK for i in range(n))
        terms[(xkey, k >> (_W * n))] = Fraction(c)
    return FinitePoly._from_flat(n, terms)


def _divided_difference(poly, i):
    """(f - s_i f)/(x_i - x_{i+1}) by the closed form, one pass over f.

    With a, c the exponents of x_i, x_{i+1} (Macdonald, Notes on Schubert
    Polynomials, 1991),
    d_i(x_i^a x_{i+1}^c) = (x_i x_{i+1})^min(a,c) sum_{t<|a-c|} x_i^{|a-c|-1-t} x_{i+1}^t,
    negated when c > a and zero when a = c: |a - c| monomials one key step
    apart.
    """
    lo = _W * i
    hi = lo + _W
    step = (1 << hi) - (1 << lo)  # x_{i+1} / x_i
    out = {}
    for k, v in poly.items():
        a = (k >> lo) & _MASK
        c = (k >> hi) & _MASK
        if a > c:
            key = k - (1 << lo)
            move = step
            count = a - c
        elif c > a:
            key = k - (1 << hi)
            move = -step
            v = -v
            count = c - a
        else:
            continue
        for _ in range(count):
            s = out.get(key, 0) + v
            if s:
                out[key] = s
            else:
                del out[key]
            key += move
    return out


def _coset_word(n, r):
    """Divided-difference word for u = w0 * w0_block, applied left first.

    u sends i -> n-1-i for i < r and shifts the tail down by r; sorting it
    by adjacent swaps, one descent at a time, spells out a reduced word.
    """
    w = list(range(n - 1, n - 1 - r, -1)) + list(range(n - r))
    word = []
    moved = True
    while moved:
        moved = False
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                word.append(i)
                w[i], w[i + 1] = w[i + 1], w[i]
                moved = True
                break
    return word


def gq_oracle_divided(lam, nvars: int, trunc: int | None = None) -> FinitePoly:
    """gq_oracle by the divided differences of the same symmetrization.

    A(f)/V is the divided difference d_{w0}, and d_{w0} = d_u d_{w0,B} with
    u = w0 * w0_B and d_{w0,B}(P0 V_B) = (n-r)! P0, so GQ_lambda = d_u(P0):
    len(u) steps of one pass each.  P0 is built with two products per pair,
    (x_i + x_j + b x_i x_j) and then (1 + b x_j), under the same b cap as
    the library's, so neither the bialternant pass nor the expanded pair
    factor is shared with it.
    """
    lam = check_partition(lam, strict=True)
    trunc = nvars if trunc is None else trunc
    r = len(lam)
    if r > nvars or sum(lam) > trunc:
        return FinitePoly.zero(nvars)
    word = _coset_word(nvars, r)
    _check_fits(min(trunc + len(word), _p0_degree(lam, nvars)))
    bcap = trunc - sum(lam)
    poly = {0: 1}
    for i, part in enumerate(lam):
        poly = _mul(poly, _bracket_power(nvars, i, part), nvars, bcap)
    for i in range(r):
        for j in range(i + 1, nvars):
            poly = _mul(poly, _oplus(nvars, i, j), nvars, bcap)
            poly = _mul(poly, _one_plus_beta(nvars, j), nvars, bcap)
    for i in word:
        poly = _divided_difference(poly, i)
    return _to_finite(poly, nvars)


def _add_into(acc, term):
    for k, c in term.items():
        s = acc.get(k, 0) + c
        if s:
            acc[k] = s
        else:
            del acc[k]


def _divide_pair(poly, c, d):
    """Exact quotient of a packed polynomial by (x_c - x_d).

    Bottom-up in the x_c exponent: x_d Q_0 = -P_0 and
    x_d Q_m = x_c-shift of Q_{m-1} minus P_m.  A term that fails to divide
    by x_d, or a quotient layer left over above the top of poly, means
    poly is not a multiple of (x_c - x_d), and raises.
    """
    sc = _W * c
    sd = _W * d
    lift = 1 << sc
    drop = 1 << sd
    layers = {}
    for k, v in poly.items():
        layers.setdefault((k >> sc) & _MASK, {})[k] = v
    top = max(layers) if layers else 0
    quotient = {}
    prev = {}
    for m in range(top + 1):
        numer = {k + lift: v for k, v in prev.items()}
        for k, v in layers.get(m, {}).items():
            s = numer.get(k, 0) - v
            if s:
                numer[k] = s
            else:
                numer.pop(k, None)
        qm = {}
        for k, v in numer.items():
            if (k >> sd) & _MASK == 0:
                raise ArithmeticError(f"non-exact division by (x_{c} - x_{d})")
            qm[k - drop] = v
        _add_into(quotient, qm)
        prev = qm
    if prev:
        raise ArithmeticError("division left a residue")
    return quotient


def _pair_difference(n, c, d):
    ec = [0] * n
    ec[c] = 1
    ed = [0] * n
    ed[d] = 1
    return {_mono(n, 0, ec): 1, _mono(n, 0, ed): -1}


def gq_oracle_literal(lam, nvars: int):
    """The defining factorial symmetrization, workable for nvars <= 4.

    Independent of the bialternant pass and of the divided differences;
    used to referee both.
    """
    lam = check_partition(lam, strict=True)
    r = len(lam)
    if r > nvars:
        raise ValueError("more rows than variables")
    if nvars > 4:
        raise ValueError("literal symmetrization is kept to tiny sizes")
    all_pairs = list(combinations(range(nvars), 2))
    # each term is P0's factors times some of the degree-one pair factors
    _check_fits(_p0_degree(lam, nvars) + len(all_pairs))
    cap = 1 << 30
    total = {}
    for w in permutations(range(nvars)):
        term = {0: 1}
        for i in range(r):
            term = _mul(term, _bracket_power(nvars, w[i], lam[i]), nvars, cap)
        sign = 1
        seen = set()
        for i in range(r):
            for j in range(i + 1, nvars):
                term = _mul(term, _oplus(nvars, w[i], w[j]), nvars, cap)
                term = _mul(term, _one_plus_beta(nvars, w[j]), nvars, cap)
                pair = (min(w[i], w[j]), max(w[i], w[j]))
                seen.add(pair)
                if w[i] > w[j]:
                    sign = -sign
        for pair in all_pairs:
            if pair not in seen:
                term = _mul(term, _pair_difference(nvars, *pair), nvars, cap)
        if sign < 0:
            term = {k: -v for k, v in term.items()}
        _add_into(total, term)
    for c, d in all_pairs:
        total = _divide_pair(total, c, d)
    scale = 1
    for k in range(2, nvars - r + 1):
        scale *= k
    out = {}
    for k, v in total.items():
        q, rem = divmod(v, scale)
        if rem:
            raise ArithmeticError("factorial prefactor does not divide")
        if q:
            out[k] = q
    return _to_finite(out, nvars)


def _schur_coefficients(poly, n, r):
    """{(nu, k): c} with A(poly x^{delta_B})/V = sum c b^k s_nu, one pass.

    nu comes without its zero parts.
    """
    shifts = [(_W * i, d) for i, d in enumerate([0] * r + list(range(n - r - 1, -1, -1)))]
    stair = range(n - 1, -1, -1)
    betas = _W * n
    out = {}
    for key, c in poly.items():
        alpha = [((key >> s) & _MASK) + d for s, d in shifts]
        ordered = sorted(alpha, reverse=True)
        if len(set(ordered)) < n:
            continue
        # the parity of the sort is the parity of the inversions of alpha
        odd = False
        for i, a in enumerate(alpha):
            for e in alpha[i + 1:]:
                if a < e:
                    odd = not odd
        nu = (tuple(a - d for a, d in zip(ordered, stair) if a > d), key >> betas)
        s = out.get(nu, 0) + (-c if odd else c)
        if s:
            out[nu] = s
        else:
            del out[nu]
    return out


def gq_oracle_full(lam, nvars: int, trunc: int | None = None) -> SymmetricPoly:
    """gq_oracle with P0 kept monomial by monomial in all nvars fields.

    P0 is multiplied out pair by pair under the same b cap, and the
    bialternant pass visits each of its monomials, so neither the head fold
    nor the Pieri bumps of the library's exponent-set state are shared with
    it.
    """
    lam = check_partition(lam, strict=True)
    nvars = check_degree_bound(nvars, "variable count")
    trunc = nvars if trunc is None else check_degree_bound(trunc)
    r = len(lam)
    if r > nvars or sum(lam) > trunc:
        return SymmetricPoly(nvars, {})
    drop = r * nvars - r * (r + 1) // 2
    _check_fits(min(trunc + drop, _p0_degree(lam, nvars)))
    bcap = trunc - sum(lam)
    poly = {0: 1}
    for i, part in enumerate(lam):
        poly = _mul(poly, _bracket_power(nvars, i, part), nvars, bcap)
    for i in range(r):
        for j in range(i + 1, nvars):
            poly = _mul(poly, _pair_factor(nvars, i, j), nvars, bcap)
    return SymmetricPoly(nvars, _schur_coefficients(poly, nvars, r))


def _lift(key, r, n):
    """A head key (r x fields, b on top) in the layout of n variables."""
    return (key & ((1 << _W * r) - 1)) | (key >> _W * r << _W * n)


def tail_product_brute(head, r, m, bcap):
    """head * prod_{j>=r} G(x_j), G(t) = prod_{i<r} (x_i + t + b x_i t)(1 + b t),
    one factor at a time in all r + m fields, under the b cap."""
    n = r + m
    poly = {_lift(h, r, n): c for h, c in head.items()}
    for j in range(r, n):
        for i in range(r):
            poly = _mul(poly, _oplus(n, i, j), n, bcap)
            poly = _mul(poly, _one_plus_beta(n, j), n, bcap)
    return poly
