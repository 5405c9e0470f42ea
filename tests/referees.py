"""Reference implementations that the tests compare the library against.

Not a test module: pytest collects test_*.py only.  Test files import it
with `from referees import ...`, which works because tests/ has no
__init__.py, so pytest puts this directory on sys.path.

None of this is production code.  Each section names the library module it
referees: the strict partitions up to a weight, which only tests list; the
exponential of a series, and of a z-graded family of them (z_exp), term by
term against the closed forms; the kernel (z-w)/(z+w+b)
in a closed form of its own and generic Laurent blocks that cross-check
the closed-form kernel tables, a literal symmetrization that checks the
oracle, plain fermion modes and Wick's theorem, and the paper's theorems
(the cancellation properties, the Fock pairing, the closed form of
<GQ_lambda, o_mu>) as executable checks.
The section after the partitions reads and writes the library's flat
(key, b-power) terms as BetaScalars.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations

from kq import fock
from kq.finitevars import eval_finite
from kq.fock import _bra_insert, _bra_word_b, _merge
from kq.laurent import _dual_kernel_rational
from kq.oracle import (_MASK, _W, _bracket_power, _check_fits, _mono, _mul, _one,
                       _one_plus_beta, _oplus, _p0_degree, _to_finite)
from kq.partitions import check_partition, contains, row_count
from kq.pfaffian import padded_pfaffian
from kq.pseries import PSeries
from kq.scalars import BetaScalar, ONE, ZERO, binom_general


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


# -- the flat (key, b-power) terms, read and written as BetaScalars -----------
#
# Finite polynomials and Fock states keep one Fraction per (key, b-power).
# These helpers move between that form and {key: BetaScalar} with public
# BetaScalar arithmetic only, independently of the library's own
# conversions.  Series are read through sorted_items instead.

def scalar_terms(flat):
    """{key: BetaScalar} from flat {(key, k): c} terms, or from an object's
    .terms; zero sums are left out.  A PSeries is refused: its terms are
    ints over its den on p_lambda / z_lambda, read through sorted_items."""
    if isinstance(flat, PSeries):
        raise TypeError("read a PSeries through sorted_items")
    flat = getattr(flat, "terms", flat)
    out = {}
    for (key, k), c in flat.items():
        out[key] = out.get(key, ZERO) + BetaScalar.beta_power(k, c)
    return {key: v for key, v in out.items() if v}


def flat_terms(mapping):
    """Flat {(key, k): Fraction} terms from {key: scalar}, zeros left out."""
    out = {}
    for key, v in mapping.items():
        for k, c in enumerate(BetaScalar(v).as_polynomial()):
            if c:
                out[(key, k)] = c
    return out


def vacuum_part(state) -> BetaScalar:
    """The coefficient of the empty word in a flat Fock state."""
    return scalar_terms(state).get((), ZERO)


def kernel_coefficient(p: int, q: int) -> BetaScalar:
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
    return BetaScalar.beta_power(-p - q, total) if total else ZERO


def dual_kernel_coefficient(p: int, q: int) -> BetaScalar:
    """[z^p w^q] of (z-w)/(z+w+bzw) expanded on |z| >> |w|, ascending in w.

    The library keeps only the rational part; the power of b is p+q.
    """
    c = _dual_kernel_rational(p, q)
    return BetaScalar.beta_power(p + q, c) if c else ZERO


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


# -- pseries: the exponential of a series, and of a z-graded one ---------------

def exp(f: PSeries) -> PSeries:
    """exp of a series with no constant term (checked)."""
    if f.coefficient(()):
        raise ValueError("exp needs a series with zero constant term")
    out = PSeries.one(f.degree_bound)
    power = PSeries.one(f.degree_bound)
    kfac = 1
    for k in range(1, f.degree_bound + 1):
        power = power * f
        if power.is_zero():
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
            if t.is_zero():
                continue
            for b in range(cap + 1 - a):
                if not parts[b].is_zero():
                    nxt[a + b] = nxt[a + b] + t * parts[b]
        term = [t * Fraction(1, m) for t in nxt]
        if all(t.is_zero() for t in term):
            break
        out = [s + t for s, t in zip(out, term)]
    return out


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
        terms[tuple(exps)] = BetaScalar.beta_power(j, c)
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


# -- fock: plain modes, the Heisenberg action, Wick's theorem -----------------

def bra_apply_phi(state, n):
    out = {}
    for (word, k), coeff in state.items():
        for w, c in _bra_insert(word, n).items():
            _merge(out, (w, k), coeff * c)
    return out


def bra_apply_b(state, m):
    """Right action of the Heisenberg generator b_m, m odd."""
    out = {}
    for (word, k), coeff in state.items():
        for w, c in _bra_word_b(word, m).items():
            _merge(out, (w, k), coeff * c)
    return out


def pair(bra, ket) -> BetaScalar:
    """Vacuum expectation <w|v>; this is where <0|phi_0|0> = 0 lives."""
    total = ZERO
    for (kword, k), kcoeff in ket.items():
        folded = bra
        for n in kword:
            folded = bra_apply_phi(folded, n)
            if not folded:
                break
        else:
            total = total + BetaScalar.beta_power(k, kcoeff) * vacuum_part(folded)
    return total


def vev_direct(letters) -> BetaScalar:
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


def wick_expectation(letters) -> BetaScalar:
    """<0| phi_{n_1} ... phi_{n_{2r}} |0> as the Pfaffian of two-points."""
    letters = tuple(letters)
    if len(letters) % 2:
        return ZERO
    return BetaScalar(padded_pfaffian(
        letters, Fraction(1), lambda i, j, a, b: two_point(a, b)))


# -- gq: the K-theoretic cancellation property --------------------------------

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
            add = c * BetaScalar.beta_power(j, cb * sgn)
            prev = cleared.get(key)
            cleared[key] = add if prev is None else prev + add
    return not any(cleared.values())


# -- dualq: the pairing in closed form, on Fock space, and the dual ring -----

def pairing_i(m, n):
    """I(m, n), the elementary pairing of one bra row against one ket row.

    Zero for m < n; 1 at m = n = 0; 2 on the rest of the diagonal;
    (-b)^{m-n} above it.
    """
    if m < n:
        return ZERO
    if m == n:
        return ONE if m == 0 else BetaScalar(2)
    return BetaScalar.beta_power(m - n, -1 if (m - n) % 2 else 1)


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
    state = {((), 0): Fraction(1)}
    for n in reversed(mu):
        state = fock.bra_apply_phihat_star(state, n)
        state = fock.bra_apply_theta_exp(state, sign=-1)
    for n in lam:
        state = fock.bra_apply_phi_beta(state, n)
        state = fock.bra_apply_theta_exp(state, sign=1)
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
    return BetaScalar.beta_power(d, c)


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
            add = c * BetaScalar.beta_power(e1 - j, -cb if e1 % 2 else cb)
            key = (tpow, tail)
            prev = slices.get(key)
            slices[key] = add if prev is None else prev + add
    return not any(slices.values())


# -- oracle: the defining symmetrization, literally ---------------------------

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

    Independent of the divided-difference route; used to referee the referee.
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
        term = _one(nvars)
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
