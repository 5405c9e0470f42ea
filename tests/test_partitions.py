import pytest

from kq import partitions as pt
from kq.dualq import o_series
from kq.gq import gq_fermionic, gq_series
from kq.pseries import PSeries
from referees import strict_partitions_of, strict_partitions_upto


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


@pytest.mark.parametrize("parts", [(2.5, 1), ("3",), (2.0, 1)])
def test_check_partition_rejects_non_integer_parts(parts):
    with pytest.raises(ValueError, match=r"integers, got \("):
        pt.check_partition(parts)


def test_non_integer_parts_fail_at_the_routes():
    with pytest.raises(ValueError, match=r"\(2\.9, 1\)"):
        gq_fermionic((2.9, 1), 4)
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


def test_non_integer_index_fails_at_the_one_row_tables():
    # a float index used to miss the table and raise KeyError
    with pytest.raises(TypeError, match="float"):
        gq_series(3).coefficient(1.5)
    with pytest.raises(TypeError, match="float"):
        o_series(3).coefficient(1.5)


def test_non_integer_degree_bound_fails_at_the_series_constructor():
    with pytest.raises(ValueError, match=r"integer, got 2\.5"):
        PSeries.p(1, 2.5)


def test_counts():
    # partition numbers 1, 1, 2, 3, 5, 7, 11 and strict 1, 1, 1, 2, 2, 3, 4
    assert [len(pt.partitions_of(n)) for n in range(7)] == [1, 1, 2, 3, 5, 7, 11]
    assert [len(strict_partitions_of(n)) for n in range(7)] == [1, 1, 1, 2, 2, 3, 4]
    # every strict partition is strict and of the right weight
    for n in range(9):
        for p in strict_partitions_of(n):
            assert all(a > b for a, b in zip(p, p[1:])) and sum(p) == n


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
    assert pt.contains((3, 1), (2,))
    assert pt.contains((3, 1), (3, 1))
    assert pt.contains((3, 1), (1, 1))
    assert not pt.contains((3, 1), (2, 2))
    assert not pt.contains((2,), (1, 1))
    # skew (2,1)/(1) meets both rows; (2,1)/(2) meets one
    assert pt.row_count((2, 1), (1,)) == 2
    assert pt.row_count((2, 1), (2,)) == 1
    assert pt.row_count((2, 1), (2, 1)) == 0
    with pytest.raises(ValueError):
        pt.row_count((2,), (3,))


def test_sub_strict_partitions():
    subs = pt.sub_strict_partitions((3, 1))
    assert subs == [(), (1,), (2,), (2, 1), (3,), (3, 1)]
    # no duplicates, all strict, all contained
    assert len(set(subs)) == len(subs)
    for q in subs:
        assert all(a > b for a, b in zip(q, q[1:])) and pt.contains((3, 1), q)
    assert pt.sub_strict_partitions(()) == [()]


def test_merge_and_misc():
    assert pt.merge((3, 1), (2, 1)) == (3, 2, 1, 1)
    assert pt.multiplicities((3, 1, 1)) == {3: 1, 1: 2}
