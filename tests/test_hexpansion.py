import re
from fractions import Fraction

import pytest

from kq import dualq, fock, gq, hexpansion
from kq.hexpansion import _rows, vacuum_expectation
from kq.partitions import partitions_upto, z_lambda
from kq.pseries import PSeries
from referees import (BETA, ONE, ZERO, Qb, bra_apply_b, classical_q, deformed_power, deformed_q,
                      flat_terms, is_zero, p_beta, pair, rows_at, series_coefficient, star_bra,
                      strict_partitions_upto, truncate, two_row_q)

D = 6


def bra(terms):
    """The bra of the ket with these flat terms: vacuum_expectation pairs
    it as that ket."""
    return star_bra(fock.FockState(terms))


def test_one_row_values():
    assert classical_q((1,), D) == PSeries({(1,): 2}, D)
    assert classical_q((2,), D) == PSeries({(1, 1): 2}, D)
    q3 = PSeries({(1, 1, 1): Fraction(4, 3), (3,): Fraction(2, 3)}, D)
    assert classical_q((3,), D) == q3


def test_two_row_value():
    got = classical_q((2, 1), D)
    expect = PSeries({(1, 1, 1): Fraction(4, 3), (3,): Fraction(-4, 3)}, D)
    assert got == expect


def test_two_row_antisymmetry_edge():
    # the padding column Q_{(a,0)} must collapse to the one-row function
    for a in range(1, D + 1):
        assert two_row_q(a, 0, D) == classical_q((a,), D)


def test_q_uses_only_odd_power_sums():
    for mu in strict_partitions_upto(D):
        for key, _ in classical_q(mu, D).sorted_items():
            assert all(part % 2 for part in key)


def classical_pairing(f, g):
    total = ZERO
    for key, c in f.sorted_items():
        d = series_coefficient(g, key)
        if d:
            total = total + c * d * Fraction(z_lambda(key), 2 ** len(key))
    return total


def test_q_orthogonality():
    parts = list(strict_partitions_upto(D))
    for lam in parts:
        for mu in parts:
            got = classical_pairing(classical_q(lam, D), classical_q(mu, D))
            if lam == mu:
                assert got == Qb(2 ** len(lam))
            else:
                assert got == ZERO


def degree_part(f, d):
    return {k: v for k, v in f.sorted_items() if sum(k) == d}


def test_deformed_top_degree_is_classical():
    for mu in strict_partitions_upto(4):
        w = sum(mu)
        par = deformed_q(mu, "paren", D)
        bra = deformed_q(mu, "bracket", D)
        assert min(sum(k) for k, _ in par.sorted_items()) == w
        assert degree_part(par, w) == degree_part(classical_q(mu, D), w)
        if mu:
            assert bra.top_degree() == w
        assert degree_part(bra, w) == degree_part(classical_q(mu, D), w)


def h_operator_rows(flavor, row_bound, degree_bound):
    """<0|e^H by raw operator exponentiation, rows down to -row_bound.

    The state's coefficients are series, so every key carries b-power 0.
    """
    start = {((), 0): PSeries.one(degree_bound)}

    def apply_h(state):
        out = {}
        for k in range(1, row_bound + 1, 2):
            pk = deformed_power(flavor, k, degree_bound) * Fraction(2, k)
            for key, c in bra_apply_b(state, k).items():
                if sum(key[0]) < -row_bound:
                    continue
                c = c * pk
                prev = out.get(key)
                tot = c if prev is None else prev + c
                if tot:
                    out[key] = tot
                elif prev is not None:
                    del out[key]
        return out

    total = dict(start)
    term = start
    j = 1
    while term:
        term = apply_h(term)
        term = {w: c * Fraction(1, j) for w, c in term.items()}
        for w, c in term.items():
            tot = total.get(w, PSeries.zero(degree_bound)) + c
            if tot:
                total[w] = tot
            else:
                total.pop(w, None)
        j += 1
    return {w: c for (w, _), c in total.items()}


@pytest.mark.parametrize("flavor", ["paren", "bracket"])
def test_rows_match_operator_exponential(flavor):
    # the closed form pairs the basis ket of mu as <0|e^H computed by raw
    # operator exponentiation does, row by row
    bound = 5
    oracle = h_operator_rows(flavor, bound, bound)
    for mu in strict_partitions_upto(bound):
        ket = fock.FockState({(mu + (0,) if len(mu) % 2 else mu, 0): Fraction(1)})
        expect = PSeries.zero(bound)
        for word, row in oracle.items():
            expect = expect + row * pair({(word, 0): Fraction(1)}, ket)
        assert vacuum_expectation(star_bra(ket), flavor, bound) == expect, mu


def test_expectation_of_vacuum_is_one():
    assert vacuum_expectation(fock.vacuum(), "paren", D) == PSeries.one(D)


def test_odd_words_pair_to_zero():
    assert is_zero(vacuum_expectation(bra(flat_terms({(1,): ONE})), "paren", D))
    assert is_zero(vacuum_expectation(bra(flat_terms({(3, 1, 0): ONE})), "bracket", D))


def test_expectation_of_single_excitation():
    # <0|e^H phi_1 phi_0|0> = 2 p_1 - b p_2 + ... , the deformed 2 p_1
    got = vacuum_expectation(bra(flat_terms({(1, 0): ONE})), "paren", D)
    assert got == p_beta(1, D) * 2
    low = truncate(got, 2)
    assert low == PSeries({(1,): 2, (2,): -BETA}, 2)


def test_expectation_is_linear():
    v = bra(flat_terms({(1, 0): Qb(3), (2, 1): -BETA + 2}))
    got = vacuum_expectation(v, "bracket", D)
    expect = (
        deformed_q((1,), "bracket", D) * 3
        + deformed_q((2, 1), "bracket", D) * (-BETA + 2)
    )
    assert got == expect


def test_unknown_flavor_rejected():
    # the empty partition needs no basis image, yet its flavor is checked
    with pytest.raises(ValueError, match="curly"):
        deformed_q((), "curly", 3)
    with pytest.raises(ValueError, match="curly"):
        vacuum_expectation(fock.vacuum(), "curly", 3)


def test_vacuum_expectation_checks_flavor_before_any_word():
    # no even word ever reaches deformed_q here, so only an up-front check
    # can see the flavor: the empty state and a state of odd words
    with pytest.raises(ValueError, match="bogus"):
        vacuum_expectation(fock.FockState({}), "bogus", 4)
    odd = bra(flat_terms({(3,): ONE, (2, 1, 0): BETA}))
    with pytest.raises(ValueError, match="bogus"):
        vacuum_expectation(odd, "bogus", 4)
    assert is_zero(vacuum_expectation(odd, "paren", 4))


@pytest.mark.parametrize("bound", [-1, 2.5])
def test_bad_bounds_rejected(bound):
    # no even word reaches deformed_q here, so only an up-front check can
    # see the bound: the empty state and a state of odd words
    with pytest.raises(ValueError, match=str(bound)):
        vacuum_expectation(fock.FockState({}), "paren", bound)
    odd = bra(flat_terms({(3,): ONE, (2, 1, 0): BETA}))
    with pytest.raises(ValueError, match=str(bound)):
        vacuum_expectation(odd, "bracket", bound)


def test_rows_are_read_only():
    # every pairing reads the one cached table of each weight
    with pytest.raises(TypeError):
        _rows(1)[(0, -1)] = ()
    assert _rows(1)[(0, -1)] == (((1,), -1),)
    assert _rows(3)[(0, -3)] == (((3,), -1), ((1, 1, 1), -4))


def test_rows_extend_one_widest_table(monkeypatch):
    # the rows of a weight are the words of that weight in the table built
    # up to any bound above it: each R_nu is built once, by one action,
    # whatever order the weights are asked in
    hexpansion._state.cache_clear()
    hexpansion._rows.cache_clear()
    actions = []
    original = hexpansion._act

    def counted(state, *args):
        actions.append(state)
        return original(state, *args)

    monkeypatch.setattr(hexpansion, "_act", counted)
    widest = rows_at(16)
    for weight in (5, 0, 9, 3, 16, *range(17)):
        want = {word: entries for word, entries in widest.items() if -sum(word) == weight}
        assert hexpansion._rows(weight) == want, weight
    odd = [nu for nu in partitions_upto(16) if nu and all(part % 2 for part in nu)]
    assert len(actions) == len(odd)


def test_paren_pairing_skips_words_past_the_bound(monkeypatch):
    # no library ket carries a word past the bound
    # (test_library_kets_stay_within_the_bound), so such a word is misuse:
    # it is refused by name, beside light words too, before any image is
    # taken.  Paired at its own weight and cut back, its paren image adds
    # nothing to the light words
    bound = 4
    heavy = flat_terms({(4, 3, 2, 0): ONE, (5, 1): BETA})
    light = flat_terms({(3, 1): ONE, (2, 0): BETA})
    images = []
    original = hexpansion._image_sum

    def recorded(*args):
        images.append(args)
        return original(*args)

    monkeypatch.setattr(hexpansion, "_image_sum", recorded)
    for key, word in zip(heavy, [(0, -2, -3, -4), (-1, -5)]):
        message = f"{word} has weight {-sum(word)}, past the bound {bound}"
        with pytest.raises(ValueError, match=re.escape(message)):
            vacuum_expectation(bra({key: heavy[key], **light}), "paren", bound)
    assert not images
    got = vacuum_expectation(bra({**heavy, **light}), "paren", 9)
    assert truncate(got, bound) == vacuum_expectation(bra(light), "paren", bound)


def test_library_kets_stay_within_the_bound(monkeypatch):
    # the exit refuses a word past the bound, so every bra a route hands
    # it must have weight <= D: gq_fermionic cuts grades below -top, top
    # ending at D, and each dual-ket row lowers the grade by at most its part
    bras = []
    for module in (gq, dualq):
        def recorded(state, flavor, bound, original=module.vacuum_expectation):
            bras.append((state, bound))
            return original(state, flavor, bound)

        monkeypatch.setattr(module, "vacuum_expectation", recorded)
    calls = 0
    for bound in range(11):
        for lam in strict_partitions_upto(bound):
            for route in (gq.gq_fermionic, dualq.o_fermionic, dualq.gp):
                route(lam, bound)
                calls += 1
    assert len(bras) == calls
    slack = {bound - max((-sum(word) for word, _ in state.terms), default=0)
             for state, bound in bras}
    assert min(slack) == 0  # never past the bound, which is reached


def test_exit_walks_the_bra_once():
    # one pass reads every word: the checks, the odd words and the rows
    class Counted(dict):
        def items(self):
            reads.append("items")
            return super().items()

        def __iter__(self):
            reads.append("iter")
            return super().__iter__()

    state = bra({((5, 0), 2): 1, ((3,), 0): 1, ((2, 0), 0): Fraction(1, 3)})
    want = vacuum_expectation(state, "bracket", 5)
    for flavor in ("paren", "bracket"):
        reads = []
        state.terms = Counted(state.terms)
        got = vacuum_expectation(state, flavor, 5)
        assert reads == ["items"], flavor
    assert got == want


def test_rows_are_the_pfaffian_q():
    # R_nu at the word of mu is [p~_nu] (-1)^{|mu|} 2^{-l(mu)} Q_mu, Q_mu by
    # the two-row Pfaffian; and every word of a row is the word of some mu,
    # over the tables of every weight up to the bound
    bound = 10
    rows = {word: entries for weight in range(bound + 1) for word, entries in _rows(weight).items()}
    words = set()
    for mu in strict_partitions_upto(bound):
        padded = mu + (0,) if len(mu) % 2 else mu
        word = tuple(-m for m in reversed(padded))
        words.add(word)
        got = dict(rows.get(word, ()))
        q = classical_q(mu, bound)
        scale = Fraction(-1 if sum(mu) % 2 else 1, 2 ** len(mu))
        for nu in partitions_upto(bound):
            want = series_coefficient(q, nu) * z_lambda(nu) * scale
            assert Qb(got.get(nu, 0)) == want, (mu, nu)
    assert set(rows) <= words


# heavier than the bound, which the exit refuses: at their own weight,
# bracket images push them down into the bound and paren images cannot
# reach it; the values are those of one image per mu, cut back to the bound
HEAVY = [
    ({((5, 0), 2): 1}, 3,
     PSeries({(1,): BETA ** 6 * Fraction(1, 8), (2,): BETA ** 5 * Fraction(1, 2),
              (1, 1, 1): BETA ** 4, (3,): BETA ** 4}, 3)),
    ({((4, 1), 2): 1}, 3,
     PSeries({(1,): BETA ** 6 * Fraction(-1, 4), (2,): -BETA ** 5, (3,): BETA ** 4 * -2}, 3)),
    ({((5, 2), 2): 1}, 4,
     PSeries({(1,): BETA ** 8 * Fraction(1, 16), (2,): BETA ** 7 * Fraction(3, 8),
              (1, 1, 1): BETA ** 6 * Fraction(-1, 4), (3,): BETA ** 6 * Fraction(5, 4),
              (2, 1, 1): -BETA ** 5, (4,): BETA ** 5 * Fraction(5, 2)}, 4)),
]


@pytest.mark.parametrize("terms, bound, want", HEAVY)
def test_bracket_reaches_down_from_heavy_words(terms, bound, want):
    # refused in either flavor at the bound; a caller that wants the value
    # pairs at the word's weight and cuts back
    state = bra(terms)
    (word, _), = state.terms
    weight = -sum(word)
    for flavor in ("bracket", "paren"):
        with pytest.raises(ValueError, match=re.escape(
                f"{word} has weight {weight}, past the bound {bound}")):
            vacuum_expectation(state, flavor, bound)
    assert truncate(vacuum_expectation(state, "bracket", weight), bound) == want
    assert is_zero(truncate(vacuum_expectation(state, "paren", weight), bound))


def test_bracket_widening_mixes_with_light_words():
    # heavy words refuse the whole state, the light words beside them too;
    # one image at the heaviest weight, cut back, serves every word
    state = bra({((5, 0), 2): 1, ((4, 1), 2): -2, ((2, 0), 0): Fraction(1, 3)})
    light = PSeries({(1, 1): Fraction(2, 3)}, 3)
    want = HEAVY[0][2] - HEAVY[1][2] * 2 + light
    for flavor in ("bracket", "paren"):
        with pytest.raises(ValueError, match="past the bound 3"):
            vacuum_expectation(state, flavor, 3)
    assert truncate(vacuum_expectation(state, "bracket", 5), 3) == want
    assert truncate(vacuum_expectation(state, "paren", 5), 3) == PSeries(
        {(1, 1): Fraction(2, 3), (2, 1): BETA * Fraction(-2, 3)}, 3)


@pytest.mark.parametrize("flavor", ["paren", "bracket"])
@pytest.mark.parametrize("word", [(1, 0), (2, 1), (6, 5, 3, 0)])
def test_bra_passed_as_ket_is_rejected(word, flavor):
    # the exit takes the bra the routes build, not the ket it stands for;
    # a ket word reversed and negated is a bra word with a row of its own,
    # so only a check can keep a state passed in its ket form from pairing
    with pytest.raises(ValueError, match=re.escape(str(word))):
        vacuum_expectation(fock.FockState({(word, 0): 1}), flavor, 6)


@pytest.mark.parametrize("flavor", ["paren", "bracket"])
@pytest.mark.parametrize("terms", [{((3,), 0): 1},
                                   {((3,), 0): 1, ((-1, -2), 0): 1, ((0, -3), 1): 2}],
                         ids=["alone", "among-ket-words"])
def test_odd_bra_word_is_rejected(terms, flavor):
    # odd words pair to zero, but a word of the wrong kind among them is
    # still misuse: the odd ket word (3,), alone or beside the bra words
    # the exit takes, would otherwise be dropped unseen
    with pytest.raises(ValueError, match=re.escape("(3,)")):
        vacuum_expectation(fock.FockState(terms), flavor, 6)


@pytest.mark.parametrize("state", [{}, None, PSeries({(1,): 1}, 4)], ids=["dict", "None", "PSeries"])
def test_non_state_bra_is_a_type_error(state):
    # the exit takes a fock.FockState, as bilinear_pair takes series
    with pytest.raises(TypeError, match=f"FockState, got {type(state).__name__}"):
        vacuum_expectation(state, "paren", 4)
