import random

import pytest

from _oracles import transform_p
from ennola.exactnum import Cyclotomic
from ennola.orbits import (
    CyclicElt,
    OrbitId,
    char_eval,
    enumerate_orbits,
    level_order,
    orbit_count,
    orbit_of,
)


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def test_level_order():
    assert level_order(2, 1) == 3
    assert level_order(2, 2) == 3
    assert level_order(2, 3) == 9
    assert level_order(3, 4) == 80


def test_orbit_count_examples():
    assert orbit_count(2, 1) == 3
    assert orbit_count(2, 2) == 0
    assert orbit_count(2, 3) == 2
    assert [orbit_count(3, r) for r in (1, 2, 3, 4)] == [4, 2, 8, 18]
    assert [orbit_count(4, r) for r in (1, 2, 3, 4)] == [5, 5, 20, 60]


def test_orbit_count_direct_enumeration_oracle():
    # fixed residues of multiplication by -q on Z/N_1
    for q in (2, 3, 4, 5):
        n = level_order(q, 1)
        fixed = [k for k in range(n) if k * -q % n == k]
        assert orbit_count(q, 1) == len(fixed) == n


def test_divisor_sum_identity():
    for q in (2, 3, 4, 5):
        for m in range(1, 9):
            assert sum(r * orbit_count(q, r) for r in _divisors(m)) == level_order(q, m)


def test_enumerate_orbits_examples():
    one = enumerate_orbits(2, "phi", 1)
    assert [(o.size, o.residue) for o in one] == [(1, 0), (1, 1), (1, 2)]
    assert enumerate_orbits(2, "phi", 2) == one
    assert len(enumerate_orbits(3, "theta", 1)) == 4
    three = enumerate_orbits(2, "theta", 3)
    assert [(o.size, o.residue) for o in three] == [(1, 0), (1, 1), (1, 2), (3, 1), (3, 2)]


def test_enumerate_orbits_counts_and_order():
    for q in (2, 3, 4):
        orbs = enumerate_orbits(q, "phi", 4)
        keys = [(o.size, o.residue) for o in orbs]
        assert keys == sorted(keys)
        for r in range(1, 5):
            assert sum(1 for o in orbs if o.size == r) == orbit_count(q, r)


def test_orbit_id_validation():
    with pytest.raises(ValueError):
        OrbitId("phi", 2, 3, 7)  # in the orbit of 1, not minimal
    with pytest.raises(ValueError):
        OrbitId("phi", 2, 3, 3)  # image of level 1, not primitive
    with pytest.raises(ValueError):
        OrbitId("bogus", 2, 1, 0)
    assert OrbitId("phi", 2, 3, 1).to_json() == {
        "kind": "phi", "q": 2, "size": 3, "residue": 1,
    }


def test_f_of_x_examples():
    orb = orbit_of("phi", CyclicElt(2, 1, 0))
    assert (orb.size, orb.residue) == (1, 0)
    for k in (1, 2, 4, 5, 7, 8):  # order-9 residues at level 3
        assert orbit_of("phi", CyclicElt(2, 3, k)).size == 3
    assert orbit_of("phi", CyclicElt(2, 1, 1)).size == 1
    # level-3 residue 3 is the embedded image of level-1 residue 1
    assert orbit_of("phi", CyclicElt(2, 3, 3)) == OrbitId("phi", 2, 1, 1)
    assert CyclicElt(2, 1, 1).embed(3) == CyclicElt(2, 3, 3)


def test_f_of_x_tiling():
    # degrees divide the level, and each degree d accounts for d * orbit_count residues
    for q in (2, 3):
        for m in range(1, 7):
            by_degree: dict[int, int] = {}
            for k in range(level_order(q, m)):
                d = orbit_of("phi", CyclicElt(q, m, k)).size
                assert m % d == 0
                by_degree[d] = by_degree.get(d, 0) + 1
            for d in _divisors(m):
                assert by_degree.get(d, 0) == d * orbit_count(q, d)


# ---------------------------------------------------------------------------
# field oracle for the character pairing: F_{2^6} = F_2[x]/(x^6 + x + 1),
# elements as 6-bit integers, x = 0b10

def _gf64_mul(a, b):
    result = 0
    while b:
        if b & 1:
            result ^= a
        b >>= 1
        a <<= 1
        if a & 0x40:
            a ^= 0x43
    return result


def _gf64_pow(a, e):
    e %= 63
    result = 1
    while e:
        if e & 1:
            result = _gf64_mul(result, a)
        a = _gf64_mul(a, a)
        e >>= 1
    return result


def test_char_eval_field_norm_oracle():
    # the modulus is primitive, so x generates the multiplicative group
    g = 0b10
    order = 1
    y = g
    while y != 1:
        y = _gf64_mul(y, g)
        order += 1
    assert order == 63

    # aligned generators of the order-9 and order-3 subgroups
    w3 = _gf64_pow(g, 7)
    w1 = _gf64_pow(g, 21)
    assert _gf64_pow(w3, 3) == w1

    def frob(v):
        return _gf64_pow(v, 61)  # v -> v^{-2}

    for k in range(9):
        y = _gf64_pow(w3, k)
        norm = _gf64_mul(_gf64_mul(y, frob(y)), frob(frob(y)))
        assert norm == _gf64_pow(w1, k % 3)
        # so the level-1 character of residue j pairs with y as zeta_3^{j k}
        for j in range(3):
            got = char_eval(CyclicElt(2, 1, j), CyclicElt(2, 3, k))
            assert got == Cyclotomic.root(3, j * k)


def test_char_eval_examples():
    one = Cyclotomic.from_rational(1, 3)
    assert char_eval(CyclicElt(2, 1, 0), CyclicElt(2, 3, 5)) == one
    assert char_eval(CyclicElt(2, 1, 1), CyclicElt(2, 1, 1)) == Cyclotomic.root(3)
    # norm pairing across levels 1 | 3, certified by the field oracle above
    assert char_eval(CyclicElt(2, 1, 1), CyclicElt(2, 3, 1)) == Cyclotomic.root(3)
    with pytest.raises(ValueError):
        char_eval(CyclicElt(2, 2, 1), CyclicElt(2, 3, 1))


def test_char_eval_norm_exponent_identity():
    # the alternating norm exponent collapses to (-1)^(m+r) N_m/N_r, and the
    # literal norm lands on the embedded image of the closed-form residue
    rng = random.Random(5)
    for _ in range(300):
        q = rng.choice([2, 3, 4, 5])
        m = rng.randint(1, 8)
        r = rng.choice(_divisors(m))
        nm, nr = level_order(q, m), level_order(q, r)
        exponent = sum((-q) ** (r * i) for i in range(m // r))
        assert exponent == (-1) ** (m + r) * (nm // nr)
        k = rng.randrange(nm)
        assert k * exponent % nm == (-1) ** (m + r) * k % nr * (nm // nr) % nm


def test_char_eval_homomorphism():
    rng = random.Random(11)
    for _ in range(150):
        q = rng.choice([2, 3])
        m = rng.randint(1, 6)
        r = rng.choice(_divisors(m))
        nm, nr = level_order(q, m), level_order(q, r)
        j1, j2 = rng.randrange(nr), rng.randrange(nr)
        k1, k2 = rng.randrange(nm), rng.randrange(nm)
        xi1, xi2 = CyclicElt(q, r, j1), CyclicElt(q, r, j2)
        x1, x2 = CyclicElt(q, m, k1), CyclicElt(q, m, k2)
        both = char_eval(xi1, CyclicElt(q, m, k1 + k2))
        assert both == char_eval(xi1, x1) * char_eval(xi1, x2)
        joint = char_eval(CyclicElt(q, r, j1 + j2), x1)
        assert joint == char_eval(xi1, x1) * char_eval(xi2, x1)


def test_transform_p_degree_one():
    orb = [OrbitId("phi", 2, 1, k) for k in range(3)]
    trivial = transform_p(OrbitId("theta", 2, 1, 0), 1, 2)
    assert trivial == {(orb[k], 1): Cyclotomic.from_rational(1, 3) for k in range(3)}
    twisted = transform_p(OrbitId("theta", 2, 1, 1), 1, 2)
    assert twisted == {(orb[k], 1): Cyclotomic.root(3, k) for k in range(3)}


def test_transform_p_inverse_dft():
    # summing the expansions against conjugate characters isolates each
    # degree-1 point orbit
    for kprime in range(3):
        for k in range(3):
            total = Cyclotomic.zero(3)
            for j in range(3):
                coeffs = transform_p(OrbitId("theta", 2, 1, j), 1, 2)
                c = coeffs.get((OrbitId("phi", 2, 1, k), 1), Cyclotomic.zero(3))
                total = total + Cyclotomic.root(3, -j * kprime) * c
            assert total == Cyclotomic.from_rational(3 if k == kprime else 0, 3)


def test_transform_p_coefficient_mass():
    # trivial character: every point contributes +1, so the coefficients sum
    # to (-1)^(m-1) N_m; any other character orbit sums to zero
    for q, n in [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)]:
        out = transform_p(OrbitId("theta", q, 1, 0), n, q)
        total = Cyclotomic.zero(level_order(q, 1))
        for v in out.values():
            total = total + v
        expect = (-1) ** (n - 1) * level_order(q, n)
        assert total == Cyclotomic.from_rational(expect, level_order(q, 1))
    for q, phi_res, n in [(2, 1, 1), (2, 1, 2), (2, 2, 3), (3, 1, 2), (3, 3, 1)]:
        out = transform_p(OrbitId("theta", q, 1, phi_res), n, q)
        total = Cyclotomic.zero(level_order(q, 1))
        for v in out.values():
            total = total + v
        assert not total


def test_transform_p_local_powers_partition_level():
    # keys carry local power m/d; each point orbit of degree d absorbs exactly
    # d residues, so sizes weighted by orbit degree tile the level
    for q, phi_res, n in [(2, 0, 4), (3, 2, 2)]:
        out = transform_p(OrbitId("theta", q, 1, phi_res), n, q)
        m = n
        for (orb, power), _ in out.items():
            assert orb.size * power == m


def test_transform_p_representative_independent():
    # recompute the sum with the non-canonical characters of the same orbit
    phi = OrbitId("theta", 2, 3, 1)
    base = transform_p(phi, 1, 2)
    m = 3
    for j in (7, 4):  # the rest of the orbit of 1 under multiplication by -2
        xi = CyclicElt(2, 3, j)
        acc: dict = {}
        for k in range(level_order(2, m)):
            x = CyclicElt(2, m, k)
            orb = orbit_of("phi", x)
            key = (orb, m // orb.size)
            val = char_eval(xi, x)
            acc[key] = acc[key] + val if key in acc else val
        alt = {key: v for key, v in acc.items() if v}
        assert alt == base


def test_transform_p_input_validation():
    with pytest.raises(ValueError):
        transform_p(OrbitId("phi", 2, 1, 0), 1, 2)
    with pytest.raises(ValueError):
        transform_p(OrbitId("theta", 2, 1, 0), 1, 3)
    with pytest.raises(ValueError):
        transform_p(OrbitId("theta", 2, 1, 0), 0, 2)
