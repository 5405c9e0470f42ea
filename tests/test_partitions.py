import pytest

from kq import partitions as pt
from kq.dualq import o_two_index, q_bracket_series
from kq.gq import gq_fermionic, gq_series, gq_two_index
from kq.laurent import f_table, g_table
from kq.pseries import PSeries
from referees import (contains, power_sum, row_count, strict_partitions_of,
                      strict_partitions_upto, sub_strict_partitions)


def test_check_partition():
    assert pt.check_partition([3, 1]) == (3, 1)
    assert pt.check_partition(()) == ()
    assert pt.check_partition([2, 2]) == (2, 2)
    with pytest.raises(ValueError):
        pt.check_partition([1, 2])
    with pytest.raises(ValueError):
        pt.check_partition([2, 0])
    with pytest.raises(ValueError):
        pt.check_partition([2, 2], strict=True)


@pytest.mark.parametrize("parts", [(2.5, 1), ("3",), (2.0, 1), (True,), (3, False)])
def test_check_partition_rejects_non_integer_parts(parts):
    with pytest.raises(ValueError, match=r"integers, got \("):
        pt.check_partition(parts)


def test_non_integer_parts_fail_at_the_routes():
    with pytest.raises(ValueError, match=r"\(2\.9, 1\)"):
        gq_fermionic((2.9, 1), 4)
    # operator.index reads True as 1: a bool part would compute GQ_(1)
    with pytest.raises(ValueError, match=r"\(True,\)"):
        gq_fermionic((True,), 3)
    with pytest.raises(ValueError, match=r"\(True,\)"):
        PSeries({(True,): 1}, 3)
    with pytest.raises(ValueError):
        PSeries({(1.7,): 1}, 3)


def test_negative_degree_bound_is_named_at_the_routes():
    # |()| = 0 fits any bound; the bound itself is what is wrong
    with pytest.raises(ValueError, match=r">= 0, got -1"):
        gq_fermionic((), -1)


def test_non_integer_degree_bound_fails_at_the_routes():
    with pytest.raises(ValueError, match=r"integer, got 2\.5"):
        gq_fermionic((1,), 2.5)


def test_bool_degree_bound_fails_at_the_routes():
    # operator.index reads True as 1, so a flag passed by mistake would
    # silently compute at D = 1
    with pytest.raises(ValueError, match=r"integer, got True"):
        gq_fermionic((1,), True)
    with pytest.raises(ValueError, match=r"integer, got False"):
        PSeries.one(False)
    # a table already built at the int bound must not answer the flag, nor
    # a float equal to it: the bound is checked before any cache is read
    o_two_index(2, 1, 1), gq_two_index(1, 0, 1), q_bracket_series(1), gq_series(1)
    for misuse in (lambda: o_two_index(2, 1, True), lambda: gq_two_index(1, 0, True),
                   lambda: q_bracket_series(True), lambda: gq_series(True)):
        with pytest.raises(ValueError, match=r"integer, got True"):
            misuse()
    o_two_index(2, 1, 3)
    with pytest.raises(ValueError, match=r"integer, got 3\.0"):
        o_two_index(2, 1, 3.0)
    # and before a comparison with the bound can raise a TypeError
    for bound in (2.5, "4"):
        with pytest.raises(ValueError, match="integer, got"):
            o_two_index(2, 1, bound)
        with pytest.raises(ValueError, match="integer, got"):
            gq_two_index(1, 0, bound)
    # the indices are checked as the bound is, each by name, warm cache or not
    gq_two_index(1, 1, 4), o_two_index(2, 1, 4)
    for misuse, bad in [(lambda: gq_two_index(True, 1, 4), "a must be an integer, got True"),
                        (lambda: o_two_index(2, True, 4), "b must be an integer, got True"),
                        (lambda: gq_two_index(1, 1.0, 4), r"b must be an integer, got 1\.0"),
                        (lambda: o_two_index(2.0, 1, 4), r"a must be an integer, got 2\.0")]:
        with pytest.raises(ValueError, match=bad):
            misuse()
    # every argument is checked before a memo hashes it: a list is no index
    # or bound, and the kernel tables check their indices and windows too
    f_table(1, 2, 2, (3, 3)), g_table(1, 2, (3, 3))
    for misuse, bad in [
            (lambda: gq_two_index([1], 1, 4), r"a must be an integer, got \[1\]"),
            (lambda: o_two_index(1, [1], 4), r"b must be an integer, got \[1\]"),
            (lambda: gq_series([4]), r"integer, got \[4\]"),
            (lambda: f_table(True, 2, 2, (3, 3)), "i must be an integer, got True"),
            (lambda: f_table(1, 2, 2, (3.0, 3)), r"windows entry must be an integer, got 3\.0"),
            (lambda: g_table(1, 2, (3.0, 3)), r"windows entry must be an integer, got 3\.0"),
            (lambda: g_table(1, 2, 3), "windows must be a pair of integers, got 3"),
            (lambda: f_table(1, 2, 2, [3, 3]), r"windows must be a pair of integers, got \[3, 3\]"),
            (lambda: g_table(1, 2, [3, 3]), r"windows must be a pair of integers, got \[3, 3\]")]:
        with pytest.raises(ValueError, match=bad):
            misuse()


def test_non_integer_index_fails_at_the_one_row_tables():
    # a float index used to miss the table and raise KeyError
    with pytest.raises(TypeError, match="float"):
        gq_series(3)[1.5]
    # the row of q^[b], which the padding column of formula II reads
    with pytest.raises(TypeError, match="float"):
        q_bracket_series(3)[1.5]


def test_non_integer_degree_bound_fails_at_the_series_constructor():
    with pytest.raises(ValueError, match=r"integer, got 2\.5"):
        power_sum(1, 2.5)


def test_counts():
    # partition numbers 1, 1, 2, 3, 5, 7, 11 and strict 1, 1, 1, 2, 2, 3, 4
    assert [len(pt.partitions_of(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert [len(strict_partitions_of(n)) for n in range(7)] == [1, 1, 1, 2, 2, 3, 4]
    # every strict partition is strict and of the right weight
    for n in range(9):
        for p in strict_partitions_of(n):
            assert all(a > b for a, b in zip(p, p[1:])) and sum(p) == n


def test_bounded_partitions_are_a_filter_of_all():
    for n in range(10):
        for top in range(n + 2):
            want = tuple(p for p in pt.partitions_of(n) if not p or p[0] <= top)
            assert pt.partitions_of(n, top) == want, (n, top)


def test_strict_upto_matches_acceptance_inventory():
    inventory = list(strict_partitions_upto(6))
    assert len(inventory) == 14
    assert inventory[0] == ()
    assert (3, 2, 1) in inventory


def test_z_lambda():
    assert pt.z_lambda(()) == 1
    assert pt.z_lambda((3, 1, 1)) == 6
    assert pt.z_lambda((5, 3, 1)) == 15
    assert pt.z_lambda((2, 2)) == 8
    assert pt.z_lambda((1, 1, 1)) == 6


def test_even_ceil():
    assert pt.even_ceil(0) == 0
    assert pt.even_ceil(1) == 2
    assert pt.even_ceil(2) == 2
    assert pt.even_ceil(3) == 4


def test_containment_and_rows():
    assert contains((3, 1), (2,))
    assert contains((3, 1), (3, 1))
    assert contains((3, 1), (1, 1))
    assert not contains((3, 1), (2, 2))
    assert not contains((2,), (1, 1))
    # skew (2,1)/(1) meets both rows; (2,1)/(2) meets one
    assert row_count((2, 1), (1,)) == 2
    assert row_count((2, 1), (2,)) == 1
    assert row_count((2, 1), (2, 1)) == 0
    with pytest.raises(ValueError):
        row_count((2,), (3,))


def test_sub_strict_partitions():
    subs = sub_strict_partitions((3, 1))
    assert subs == [(), (1,), (2,), (2, 1), (3,), (3, 1)]
    # no duplicates, all strict, all contained
    assert len(set(subs)) == len(subs)
    for q in subs:
        assert all(a > b for a, b in zip(q, q[1:])) and contains((3, 1), q)
    assert sub_strict_partitions(()) == [()]


def test_merge_and_misc():
    assert pt.merge((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert pt.multiplicities((3, 1, 1)) == {3: 1, 1: 2}
