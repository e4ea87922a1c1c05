"""Tests for the brute-force matrix model.

Oracles: closed-form group orders, the centralizer-order class equation, the
degree-sum theorem for symmetric counts, and hand computations in the rank-1
cyclic groups.
"""

from __future__ import annotations

import random
import time

import pytest

from ennola.bruteforce import (
    MAX_FIELD_ORDER,
    MAX_Q,
    ClassRepresentative,
    UMatrix,
    _prime_power,
    class_census,
    class_representative,
    classify,
    enumerate_group,
    field,
    involution_count,
    symmetric_count,
    symmetric_profile,
    twisted_fs,
)
from ennola.charmap import char_table
from ennola.multipartitions import (
    MultiPartition,
    centralizer_order,
    enumerate_mp,
    unitary_group_order,
)
from ennola.orbits import OrbitId, enumerate_orbits
from ennola.reptables import degree_sum


def test_field_moduli() -> None:
    assert field(2, 2).modulus == (1, 1, 1)
    assert field(3, 2).modulus == (2, 1, 1)
    assert field(2, 4).modulus == (1, 1, 0, 0, 1)


@pytest.mark.parametrize(
    "p,e,modulus",
    [
        # the tower field K of the (n, q) = (3, 2) census
        (2, 12, (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)),
        (3, 4, (2, 1, 0, 0, 1)),
        (5, 2, (2, 1, 1)),
    ],
)
def test_field_modulus_is_pinned(p: int, e: int, modulus: tuple[int, ...]) -> None:
    assert field(p, e).modulus == modulus


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_prime_field_is_the_integers_mod_p(p: int) -> None:
    # the modulus t - c is primitive only when c is a primitive root mod p,
    # and then the packed element a is the residue a itself
    F = field(p, 1)
    for a in range(p):
        for b in range(p):
            assert F.add(a, b) == (a + b) % p
            assert F.mul(a, b) == a * b % p


@pytest.mark.parametrize("p,e", [(2, 2), (2, 4), (3, 2), (3, 4), (5, 2)])
def test_field_arithmetic(p: int, e: int) -> None:
    F = field(p, e)
    assert len(set(F.exp)) == F.order - 1
    for a in range(1, F.order):
        assert F.mul(a, F.inv(a)) == F.one
        assert F.add(a, F.neg(a)) == F.zero
    for a, b, c in [(1, 2, 3), (F.order - 1, 2, 5 % F.order)]:
        assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))


def test_field_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError):
        field(6, 2)
    with pytest.raises(ValueError):
        field(2, 0)


@pytest.mark.parametrize(
    # the last is the largest prime below MAX_Q
    "q", [1000000007, 999999999989, 10**18 + 3, 3317044064679887385961813]
)
def test_a_large_prime_splits_at_once(q: int) -> None:
    # one Miller-Rabin test, no trial division
    start = time.perf_counter()
    assert _prime_power(q) == (q, 1)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("p,e", [(1000003, 4), (3, 50), (2, 81), (10**9 + 7, 2)])
def test_a_large_prime_power_splits_at_once(p: int, e: int) -> None:
    # one integer root and one primality test per exponent
    start = time.perf_counter()
    assert _prime_power(p**e) == (p, e)
    assert time.perf_counter() - start < 1


def test_prime_power_splits() -> None:
    assert [_prime_power(q) for q in (2, 4, 9, 25, 49, 243, 1024)] == [
        (2, 1), (2, 2), (3, 2), (5, 2), (7, 2), (3, 5), (2, 10)
    ]


@pytest.mark.parametrize(
    "q",
    [
        6, 12, 1000000006, 0, 1,
        6 * 10**17,
        # Carmichael numbers and a strong pseudoprime to the bases 2, 3, 5, 7
        561, 3215031751,
        1000003**2 * 1000033,
        2**40 * 3,
        (10**18 + 3) * 2,
    ],
)
def test_prime_power_refuses_other_numbers(q: int) -> None:
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{q} is not a prime power$"):
        _prime_power(q)
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("q", [MAX_Q, MAX_Q + 1, 10**30])
def test_prime_power_refuses_q_from_its_bound_on(q: int) -> None:
    # the first twelve prime bases make Miller-Rabin exact only below MAX_Q
    with pytest.raises(ValueError, match=f"MAX_Q = {MAX_Q}"):
        _prime_power(q)


def test_prime_power_agrees_with_sympy() -> None:
    sympy = pytest.importorskip("sympy")
    rng = random.Random(30)
    qs = list(range(2, 3000))
    qs += [rng.randrange(2, MAX_Q) for _ in range(300)]
    primes = [int(sympy.nextprime(rng.randrange(2, 10**k))) for k in (3, 6, 8) for _ in range(30)]
    qs += [p ** rng.randrange(1, 4) for p in primes]
    for q in qs:
        # sympy's largest perfect power has a prime base exactly when q = p^e
        power = (q, 1) if sympy.isprime(q) else sympy.perfect_power(q)
        if power and sympy.isprime(power[0]):
            assert _prime_power(q) == tuple(map(int, power)), q
        else:
            with pytest.raises(ValueError):
                _prime_power(q)


@pytest.mark.parametrize(
    "n,q,order", [(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (2, 2, 18), (2, 3, 96)]
)
def test_group_order(n: int, q: int, order: int) -> None:
    group = enumerate_group(n, q)
    assert len(group) == order == unitary_group_order(q, n)
    assert len(set(group)) == order
    assert all(g.is_unitary() for g in group)


def test_large_group_needs_no_flag() -> None:
    group = enumerate_group(3, 2)
    assert len(group) == 648


def test_unsupported_sizes() -> None:
    with pytest.raises(ValueError):
        enumerate_group(4, 2)
    with pytest.raises(ValueError):
        enumerate_group(2, 3, max_order=50)


@pytest.mark.parametrize(
    "call",
    [
        lambda: twisted_fs(4, 2),
        lambda: involution_count(4, 2),
        lambda: classify(UMatrix(2, tuple(tuple(int(i == j) for j in range(4)) for i in range(4)))),
    ],
    ids=["twisted_fs", "involution_count", "classify"],
)
def test_oversize_tower_field_is_refused_before_it_is_built(call) -> None:
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"tower field of 2\^24 elements exceeds MAX_FIELD_ORDER"):
        call()
    assert time.perf_counter() - start < 1


def test_entry_field_beyond_the_bound_is_refused_at_once() -> None:
    # F_{q^2} for q = 65537 would be built with tables of q^2 entries
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"\(1, 65537\): tower field of 65537\^2 elements exceeds"):
        UMatrix(65537, ((1,),)).is_unitary()
    assert time.perf_counter() - start < 1


def test_field_bound_admits_a_field_of_its_own_size() -> None:
    assert MAX_FIELD_ORDER == 256**2
    census = class_census(1, 256)
    assert len(census) == 257 and set(census.values()) == {1}
    with pytest.raises(ValueError, match=r"257\^2 elements"):
        class_census(1, 257)
    with pytest.raises(ValueError, match="group order 258 exceeds max_order = 257"):
        class_census(1, 257, max_order=257)


def test_is_unitary_detects_failure() -> None:
    assert UMatrix(2, ((1, 0), (0, 1))).is_unitary()
    assert not UMatrix(2, ((1, 1), (0, 1))).is_unitary()
    with pytest.raises(ValueError):
        UMatrix(2, ((4, 0), (0, 1)))
    with pytest.raises(ValueError):
        UMatrix(2, ((1, 0, 0), (0, 1, 0)))


def test_umatrix_json() -> None:
    blob = UMatrix(2, ((1, 0), (0, 1))).to_json()
    assert blob == {"q": 2, "n": 2, "entries": [[1, 0], [0, 1]]}


def _trivial_orbit(q: int) -> OrbitId:
    return OrbitId("phi", q, 1, 0)


def test_classify_identity() -> None:
    for n, q in [(1, 2), (2, 2), (2, 3), (3, 2)]:
        eye = UMatrix(q, tuple(tuple(int(i == j) for j in range(n)) for i in range(n)))
        mu = classify(eye)
        assert mu.assignment == ((_trivial_orbit(q), (1,) * n),)


def test_classify_transvections() -> None:
    q = 2
    F = field(2, 2)
    triv = _trivial_orbit(q)
    expected = MultiPartition("phi", q, ((triv, (2,)),))
    found = 0
    for g in enumerate_group(2, q):
        (a, b), (c, d) = g.entries
        trace = F.add(a, d)
        det = F.add(F.mul(a, d), F.mul(b, c))
        if trace == 0 and det == 1 and g.entries != ((1, 0), (0, 1)):
            shifted = (F.add(a, 1), b, c, F.add(d, 1))
            shifted_det = F.add(
                F.mul(shifted[0], shifted[3]), F.mul(shifted[1], shifted[2])
            )
            assert any(shifted) and shifted_det == 0
            assert classify(g) == expected
            found += 1
    assert found == 3


@pytest.mark.parametrize("q,top", [(2, 3), (3, 2)])
def test_representative_round_trip(q: int, top: int) -> None:
    for n in range(1, top + 1):
        for mu in enumerate_mp(q, "phi", n):
            rep = class_representative(mu)
            assert isinstance(rep, ClassRepresentative)
            assert rep.label == mu
            assert rep.matrix.n == n


def test_representative_examples() -> None:
    q = 2
    triv = _trivial_orbit(q)
    eye = class_representative(MultiPartition("phi", q, ((triv, (1, 1)),)))
    assert eye.matrix.entries == ((1, 0), (0, 1))
    assert eye.unitary
    jordan = class_representative(MultiPartition("phi", q, ((triv, (2,)),)))
    assert jordan.matrix.entries == ((0, 1), (1, 0))


def test_representative_pair_orbit() -> None:
    q = 3
    pair = next(o for o in enumerate_orbits(q, "phi", 2) if o.size == 2)
    mu = MultiPartition("phi", q, ((pair, (1,)),))
    rep = class_representative(mu)
    entries = rep.matrix.entries
    assert entries[0][1] == entries[1][0] == 0
    assert entries[0][0] != entries[1][1]
    assert classify(rep.matrix) == mu


def test_representative_rejects_bad_labels() -> None:
    theta = MultiPartition("theta", 2, ((OrbitId("theta", 2, 1, 0), (1,)),))
    with pytest.raises(ValueError):
        class_representative(theta)
    big = MultiPartition(
        "phi", 2, ((_trivial_orbit(2), (1, 1, 1, 1)),)
    )
    with pytest.raises(ValueError):
        class_representative(big)


def test_census_rank_two() -> None:
    census = class_census(2, 2)
    assert len(census) == 9
    assert sorted(census.values()) == [1, 1, 1, 2, 2, 2, 3, 3, 3]
    assert sum(census.values()) == 18
    triv = _trivial_orbit(2)
    assert census[MultiPartition("phi", 2, ((triv, (1, 1)),))] == 1
    assert census[MultiPartition("phi", 2, ((triv, (2,)),))] == 3


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_census_matches_class_equation(n: int, q: int) -> None:
    census = class_census(n, q)
    order = unitary_group_order(q, n)
    assert list(census) == enumerate_mp(q, "phi", n)
    for mu, size in census.items():
        assert size * centralizer_order(mu) == order


def test_census_large() -> None:
    census = class_census(3, 2)
    assert len(census) == 24
    assert sum(census.values()) == 648


def test_table_columns_match_brute_centralizers() -> None:
    n, q = 2, 2
    census = class_census(n, q)
    table = char_table(n, q)
    order = unitary_group_order(q, n)
    for k, mu in enumerate(table.cols):
        total = sum(
            (table.values[i][k] * table.values[i][k].conj()).rational_value()
            for i in range(len(table.rows))
        )
        assert total == order // census[mu]


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_symmetric_count_equals_degree_sum(n: int, q: int) -> None:
    assert symmetric_count(n, q) == degree_sum(n, q)


def test_symmetric_count_values() -> None:
    assert symmetric_count(1, 2) == 3
    assert symmetric_count(2, 2) == 12
    assert symmetric_count(2, 3) == 36
    assert symmetric_count(3, 2) == 108


def test_symmetric_profile_orbits() -> None:
    prof = symmetric_profile(2, 2)
    assert prof.stabilizer_orders == (2, 6)
    assert prof.orbit_sizes == (9, 3)
    prof = symmetric_profile(2, 3)
    assert prof.stabilizer_orders == (4, 8)
    assert prof.orbit_sizes == (24, 12)
    prof = symmetric_profile(1, 3)
    assert prof.stabilizer_orders == (2, 2)
    assert prof.orbit_sizes == (2, 2)
    prof = symmetric_profile(3, 2)
    assert prof.stabilizer_orders == (6,)
    assert prof.orbit_sizes == (108,)
    blob = prof.to_json()
    assert blob["count"] == 108 and blob["orbit_sizes"] == [108]


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_transpose_inverse_indicators_are_one(n: int, q: int) -> None:
    indicators = twisted_fs(n, q, "transpose_inverse")
    assert len(indicators) == len(enumerate_mp(q, "theta", n))
    assert all(v == 1 for v in indicators.values())


def test_trivial_indicators_cyclic() -> None:
    indicators = twisted_fs(1, 2, "trivial")
    assert sorted(indicators.values()) == [0, 0, 1]
    assert involution_count(1, 2) == 1


def test_trivial_indicators_rank_two() -> None:
    assert sorted(twisted_fs(2, 2, "trivial").values()) == [0] * 6 + [1] * 3
    assert involution_count(2, 2) == 4
    values = sorted(twisted_fs(2, 3, "trivial").values())
    assert values == [-1] + [0] * 10 + [1] * 5
    assert involution_count(2, 3) == 8


def test_twisted_fs_rejects_unknown_twist() -> None:
    with pytest.raises(ValueError):
        twisted_fs(2, 2, "weird")
