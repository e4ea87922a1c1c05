import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from _oracles import gamma_t, general_linear_order, levi_order, semisimple_part, unipotent_part
from ennola.multipartitions import (
    MultiPartition,
    centralizer_order,
    class_size,
    enumerate_mp,
    mp_conjugate,
    mp_size,
    mp_stats,
    torus_data,
    unitary_group_order,
)
from ennola.orbits import CyclicElt, OrbitId, enumerate_orbits, level_order, orbit_count
from ennola.partitions import partitions_of


def test_group_orders():
    assert [unitary_group_order(2, n) for n in (1, 2, 3)] == [3, 18, 648]
    assert unitary_group_order(3, 2) == 96
    assert general_linear_order(2, 2) == 6
    assert general_linear_order(4, 1) == 3


def test_multipartition_validation():
    trivial = OrbitId("phi", 2, 1, 0)
    with pytest.raises(ValueError):
        MultiPartition("theta", 2, ((trivial, (1,)),))  # kind mismatch
    with pytest.raises(ValueError):
        MultiPartition("phi", 3, ((trivial, (1,)),))  # q mismatch
    with pytest.raises(ValueError):
        MultiPartition("phi", 2, ((trivial, ()),))  # empty block
    with pytest.raises(ValueError):
        MultiPartition("phi", 2, ((trivial, (1,)), (trivial, (2,))))  # repeat
    mp = MultiPartition("phi", 2, {OrbitId("phi", 2, 3, 1): (1,), trivial: (2,)})
    assert [orb.size for orb in mp.orbits()] == [1, 3]
    assert mp.part(trivial) == (2,)
    assert mp.part(OrbitId("phi", 2, 1, 1)) == ()


def test_cached_hash_agrees_with_equality():
    triv, cubic = OrbitId("phi", 2, 1, 0), OrbitId("phi", 2, 3, 1)
    from_dict = MultiPartition("phi", 2, {cubic: (1,), triv: [2]})
    from_tuple = MultiPartition("phi", 2, ((cubic, (1,)), (triv, (2,))))
    assert from_dict is not from_tuple
    assert from_dict == from_tuple
    assert hash(from_dict) == hash(from_tuple)
    assert {from_dict: 1}[from_tuple] == 1
    # the positional field order is kind, q, assignment, in the constructor and in __reduce__
    cls, args = from_dict.__reduce__()
    assert cls is MultiPartition
    assert args == (from_dict.kind, from_dict.q, from_dict.assignment)
    assert MultiPartition(*args) == MultiPartition(kind="phi", q=2, assignment=args[2]) == from_dict


_PICKLE_SCRIPT = """
import pickle, sys
from ennola.multipartitions import MultiPartition
from ennola.orbits import OrbitId

def build():
    return MultiPartition("phi", 3, {OrbitId("phi", 3, 2, 1): (2,), OrbitId("phi", 3, 1, 0): (2, 1)})

if sys.argv[1] == "dump":
    print(pickle.dumps(build()).hex(), hash(build()))
else:
    loaded = pickle.loads(bytes.fromhex(sys.stdin.read().split()[0]))
    print({build(): "found"}.get(loaded, "missing"), hash(build()))
"""


def test_pickled_multipartition_is_found_under_another_hash_seed():
    # string hashes differ between processes, so a hash cached at
    # construction must not travel with the pickle
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH", "")) if p)

    def run(seed: str, mode: str, stdin: str = "") -> list[str]:
        proc = subprocess.run(
            [sys.executable, "-c", _PICKLE_SCRIPT, mode], input=stdin,
            env={**env, "PYTHONHASHSEED": seed}, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    dumped, hash_1 = run("1", "dump")
    found, hash_2 = run("2", "load", dumped)
    assert hash_1 != hash_2
    assert found == "found"


@pytest.mark.parametrize("q, n", [(2, 4), (3, 3), (4, 2)])
def test_stored_size_is_the_weighted_block_sum(q, n):
    # the size is kept like the hash, in a slot outside the fields
    import pickle

    assert "_size" not in MultiPartition._fields
    for kind in ("phi", "theta"):
        for m in range(1, n + 1):
            for mp in enumerate_mp(q, kind, m):
                weighted = sum(orb.size * sum(lam) for orb, lam in mp.assignment)
                assert weighted == m
                assert mp_size(mp) == mp._size == weighted
                loaded = pickle.loads(pickle.dumps(mp))
                assert loaded == mp and mp_size(loaded) == loaded._size == weighted
                with pytest.raises(AttributeError):
                    mp._size = weighted + 1
                with pytest.raises(AttributeError):
                    del mp._size
                assert mp_size(mp) == weighted


def _example_18() -> MultiPartition:
    # degree-1 block (2,2), degree-2 blocks (2) and (4,1)
    return MultiPartition("phi", 3, {
        OrbitId("phi", 3, 1, 0): (2, 2),
        OrbitId("phi", 3, 2, 1): (2,),
        OrbitId("phi", 3, 2, 3): (4, 1),
    })


def test_mp_stats():
    mu = _example_18()
    stats = mp_stats(mu)
    assert stats.size == 18
    assert stats.n == 4

    box = MultiPartition("phi", 2, ((OrbitId("phi", 2, 1, 1), (1,)),))
    assert mp_stats(box) == (1, 0, box, 1, 1)

    twocol = MultiPartition("phi", 2, ((OrbitId("phi", 2, 1, 0), (2, 2)),))
    assert mp_stats(mp_conjugate(twocol)).odd == 0


def test_mp_conjugate_involution():
    rng = random.Random(3)
    for _ in range(30):
        q = rng.choice([2, 3])
        orbs = enumerate_orbits(q, "phi", 3)
        picked = rng.sample(orbs, rng.randint(1, 3))
        mp = MultiPartition("phi", q, tuple(
            (orb, rng.choice(partitions_of(rng.randint(1, 4)))) for orb in picked
        ))
        assert mp_conjugate(mp_conjugate(mp)) == mp


def test_semisimple_and_unipotent_parts():
    mu = _example_18()
    ss = semisimple_part(mu)
    assert [lam for _, lam in ss.assignment] == [(1, 1, 1, 1), (1, 1), (1, 1, 1, 1, 1)]
    assert semisimple_part(ss) == ss
    uni = unipotent_part(mu)
    assert uni.assignment == ((OrbitId("phi", 3, 1, 0), (8, 4, 2, 2, 2)),)
    assert mp_size(uni) == mp_size(mu) == 18

    box2 = MultiPartition("phi", 3, ((OrbitId("phi", 3, 2, 1), (1,)),))
    assert unipotent_part(box2).part(OrbitId("phi", 3, 1, 0)) == (2,)


def test_unipotent_size_invariant():
    rng = random.Random(7)
    for _ in range(30):
        q = rng.choice([2, 3])
        orbs = enumerate_orbits(q, "theta", 3)
        picked = rng.sample(orbs, rng.randint(1, 3))
        mp = MultiPartition("theta", q, tuple(
            (orb, rng.choice(partitions_of(rng.randint(1, 3)))) for orb in picked
        ))
        assert mp_size(unipotent_part(mp)) == mp_size(mp)
        assert semisimple_part(semisimple_part(mp)) == semisimple_part(mp)


def test_enumerate_mp_counts():
    assert len(enumerate_mp(2, "phi", 0)) == 1
    assert len(enumerate_mp(2, "phi", 1)) == 3
    assert len(enumerate_mp(2, "phi", 2)) == 9
    assert len(enumerate_mp(2, "phi", 3)) == 24
    assert len(enumerate_mp(3, "phi", 1)) == 4
    assert len(enumerate_mp(3, "phi", 2)) == 16
    assert len(enumerate_mp(3, "theta", 3)) == 56
    assert len(enumerate_mp(3, "theta", 4)) == 188


def test_enumerate_mp_generating_function():
    # prod over orbit sizes r of (sum_lambda x^{r|lambda|})^{d_r}
    top = 6
    for q in (2, 3):
        series = [1] + [0] * top
        for r in range(1, top + 1):
            block = [
                len(partitions_of(k // r)) if k % r == 0 else 0 for k in range(top + 1)
            ]
            for _ in range(orbit_count(q, r)):
                new = [0] * (top + 1)
                for a in range(top + 1):
                    if series[a]:
                        for b in range(0, top + 1 - a, r):
                            new[a + b] += series[a] * block[b]
                series = new
        for n in range(top + 1):
            assert len(enumerate_mp(q, "phi", n)) == series[n]


def test_enumerate_mp_deterministic_and_sorted():
    mps = enumerate_mp(2, "phi", 3)
    keys = [mp.sort_key() for mp in mps]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert all(mp_size(mp) == 3 for mp in mps)


def test_centralizer_order_examples():
    trivial = OrbitId("phi", 2, 1, 0)
    identity2 = MultiPartition("phi", 2, ((trivial, (1, 1)),))
    assert centralizer_order(identity2) == 18
    transvection = MultiPartition("phi", 2, ((trivial, (2,)),))
    assert centralizer_order(transvection) == 6
    assert class_size(transvection) == 3
    for orb in enumerate_orbits(2, "phi", 1):
        assert centralizer_order(MultiPartition("phi", 2, ((orb, (1,)),))) == 3


def test_integer_centralizer_matches_the_psi_polynomial_formula():
    # a_lam(x) = x^(|lam| + 2 n(lam)) prod_j psi_{m_j}(1/x), with the psi
    # polynomials built and evaluated by sympy
    sympy = pytest.importorskip("sympy")
    from ennola.multipartitions import _block_centralizer
    from ennola.partitions import multiplicities, n_stat

    t = sympy.Symbol("t")

    def reference(lam, x) -> int:
        value = sympy.Integer(x) ** (sum(lam) + 2 * n_stat(lam))
        for m in multiplicities(lam).values():
            psi = sympy.prod([1 - t**i for i in range(1, m + 1)])
            value *= psi.subs(t, sympy.Rational(1, x))
        assert value.is_integer
        return int(value)

    for k in range(1, 8):
        for lam in partitions_of(k):
            for x in (-2, -3, 4, -8, 9, -27):
                assert _block_centralizer(lam, x) == reference(lam, x), (lam, x)
    for q, n in [(2, 5), (3, 3), (4, 2)]:
        for mu in enumerate_mp(q, "phi", n):
            sign = (-1) ** mp_size(mu)
            expect = sign * math.prod(reference(lam, (-q) ** orb.size) for orb, lam in mu.assignment)
            assert centralizer_order(mu) == expect


def test_class_equation():
    for q in (2, 3):
        for n in range(1, 5):
            order = unitary_group_order(q, n)
            total = sum(class_size(mu) for mu in enumerate_mp(q, "phi", n))
            assert total == order


def test_levi_order_matches_semisimple_centralizer():
    for q in (2, 3):
        for n in range(1, 5):
            for mu in enumerate_mp(q, "phi", n):
                assert centralizer_order(semisimple_part(mu)) == levi_order(mu)


def test_torus_data_examples():
    trivial = OrbitId("phi", 2, 1, 0)
    col2 = MultiPartition("phi", 2, ((trivial, (1, 1)),))
    data = torus_data(col2)
    assert data.weyl_order == 2
    assert sorted(lab.z for lab in data.labels) == [2, 2]
    assert sorted(lab.factors for lab in data.labels) == [(1, 1), (2,)]

    two_orbits = MultiPartition("phi", 2, (
        (trivial, (1,)), (OrbitId("phi", 2, 1, 1), (1,)),
    ))
    data = torus_data(two_orbits)
    assert data.weyl_order == 1
    assert len(data.labels) == 1 and data.labels[0].z == 1

    # a degree-2 orbit scales its torus factor
    box2 = MultiPartition("phi", 3, ((OrbitId("phi", 3, 2, 1), (1,)),))
    assert torus_data(box2).labels[0].factors == (2,)


def test_torus_data_class_equation():
    rng = random.Random(13)
    for q in (2, 3):
        for n in range(1, 5):
            mps = enumerate_mp(q, "phi", n)
            for nu in rng.sample(mps, min(6, len(mps))):
                data = torus_data(nu)
                assert sum(lab.weyl_class_size for lab in data.labels) == data.weyl_order
                for lab in data.labels:
                    assert semisimple_part(lab.gamma) == semisimple_part(nu)


def test_gamma_t_identity():
    blocks = [(2, CyclicElt(2, 2, 0)), (1, CyclicElt(2, 1, 0))]
    out = gamma_t(blocks)
    assert out.assignment == ((OrbitId("phi", 2, 1, 0), (2, 1)),)


def test_gamma_t_mixed_blocks():
    # block sizes (4,4,2,2,1): two blocks on a degree-2 orbit, three on the
    # trivial orbit, matching parts (4,2,1) and (2,1)
    blocks = [
        (4, CyclicElt(3, 4, 10)),
        (4, CyclicElt(3, 4, 0)),
        (2, CyclicElt(3, 2, 1)),
        (2, CyclicElt(3, 2, 0)),
        (1, CyclicElt(3, 1, 0)),
    ]
    out = gamma_t(blocks)
    assert out.part(OrbitId("phi", 3, 1, 0)) == (4, 2, 1)
    assert out.part(OrbitId("phi", 3, 2, 1)) == (2, 1)


def test_gamma_t_unipotent_part_recovers_block_sizes():
    rng = random.Random(17)
    for _ in range(40):
        q = rng.choice([2, 3])
        blocks = []
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, 4)
            blocks.append((size, CyclicElt(q, size, rng.randrange(level_order(q, size)))))
        out = gamma_t(blocks)
        expected = tuple(sorted((s for s, _ in blocks), reverse=True))
        assert unipotent_part(out).part(OrbitId("phi", q, 1, 0)) == expected


def test_gamma_t_validation():
    with pytest.raises(ValueError):
        gamma_t([(2, CyclicElt(2, 1, 0))])
    with pytest.raises(ValueError):
        gamma_t([(1, CyclicElt(2, 1, 0)), (1, CyclicElt(3, 1, 0))])
    with pytest.raises(ValueError):
        gamma_t([])
