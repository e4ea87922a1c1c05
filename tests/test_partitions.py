import math

import pytest

from _oracles import contains
from ennola.partitions import (
    conjugate,
    dominates,
    hooks,
    multiplicities,
    n_stat,
    partitions_of,
    z_stat,
)


def test_conjugate_examples():
    assert conjugate((3, 2)) == (2, 2, 1)
    assert conjugate(()) == ()
    assert conjugate((1, 1, 1)) == (3,)


def test_conjugate_involution():
    for n in range(13):
        for lam in partitions_of(n):
            assert conjugate(conjugate(lam)) == lam


def test_n_stat():
    assert n_stat((2,)) == 0
    assert n_stat((1, 1)) == 1
    assert n_stat((3, 2)) == 2
    # n(lam) = sum_j C(lam'_j, 2)
    for lam in partitions_of(8):
        assert n_stat(lam) == sum(c * (c - 1) // 2 for c in conjugate(lam))


def test_z_stat():
    assert z_stat((1, 1)) == 2
    assert z_stat((2,)) == 2
    assert z_stat((2, 1, 1)) == 4
    for n in range(1, 9):
        assert sum(math.factorial(n) // z_stat(lam) for lam in partitions_of(n)) == math.factorial(n)


def test_hooks():
    assert sorted(hooks((3, 2))) == sorted([4, 3, 1, 2, 1])
    assert sorted(hooks((2, 1, 1))) == sorted([4, 1, 2, 1])
    assert hooks((1,)) == [1]
    for n in range(13):
        for lam in partitions_of(n):
            assert sum(hooks(lam)) == n + n_stat(lam) + n_stat(conjugate(lam))


def test_partitions_of():
    assert partitions_of(0) == ((),)
    assert len(partitions_of(4)) == 5
    assert len(partitions_of(10)) == 42
    assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    with pytest.raises(ValueError):
        partitions_of(-1)
    # uniqueness and validity
    for n in range(11):
        ps = partitions_of(n)
        assert len(set(ps)) == len(ps)
        for lam in ps:
            assert sum(lam) == n
            assert all(a >= b >= 1 for a, b in zip(lam, (*lam[1:], 1)))


def test_dominance_and_containment():
    assert dominates((4,), (2, 2))
    assert dominates((2, 2), (2, 1, 1))
    assert not dominates((2, 1, 1), (2, 2))
    assert not dominates((3,), (2, 2))
    assert contains((3, 2), (2, 2))
    assert not contains((3, 1), (2, 2))
    assert multiplicities((3, 2, 2, 1)) == {3: 1, 2: 2, 1: 1}
