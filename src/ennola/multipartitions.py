"""Multipartitions over Frobenius orbits and their class statistics.

A multipartition assigns a nonempty partition to finitely many orbits of one
kind. For kind phi these index the conjugacy classes of the unitary group,
and the centralizer orders, class sizes, and torus data computed here are the
combinatorial side of that correspondence.
"""

from __future__ import annotations

import bisect
import itertools
import math
from functools import cache
from typing import NamedTuple

from ._record import Record, _set
from .orbits import OrbitId, enumerate_orbits, level_order
from .partitions import (
    Partition,
    conjugate,
    is_partition,
    multiplicities,
    n_stat,
    partitions_of,
    z_stat,
)


def unitary_group_order(q: int, n: int) -> int:
    """Order q^(n(n-1)/2) * prod(q^i - (-1)^i) of the rank-n unitary group.

    >>> [unitary_group_order(2, n) for n in (1, 2, 3)]
    [3, 18, 648]
    """
    return q ** (n * (n - 1) // 2) * math.prod(level_order(q, i) for i in range(1, n + 1))


class MultiPartition(Record):
    """Finite map from orbits to nonempty partitions, canonically sorted.

    The hash is the hash of the three fields, computed once at construction:
    class keys are looked up far more often than they are built. The size
    (``mp_size``) is kept the same way. String hashes differ between
    processes, so pickling keeps only the fields and loading computes the
    hash and the size afresh.
    """

    _fields = ("kind", "q", "assignment")
    __slots__ = (*_fields, "_hash", "_size")
    kind: str
    q: int
    assignment: tuple[tuple[OrbitId, Partition], ...]

    def __init__(
        self,
        kind: str,
        q: int,
        assignment: tuple[tuple[OrbitId, Partition], ...] | dict[OrbitId, Partition],
    ) -> None:
        if isinstance(assignment, dict):
            assignment = tuple(assignment.items())
        blocks = []
        for orb, lam in assignment:
            lam = tuple(lam)
            if orb.kind != kind or orb.q != q:
                raise ValueError("orbit kind or q does not match the multipartition")
            if not lam or not is_partition(lam):
                raise ValueError(f"invalid block partition {lam!r}")
            blocks.append((orb, lam))
        blocks.sort(key=lambda b: (b[0].size, b[0].residue))
        if len({orb for orb, _ in blocks}) != len(blocks):
            raise ValueError("repeated orbit in assignment")
        assignment = tuple(blocks)
        _set(self, "kind", kind)
        _set(self, "q", q)
        _set(self, "assignment", assignment)
        _set(self, "_hash", hash((kind, q, assignment)))
        _set(self, "_size", sum(orb.size * sum(lam) for orb, lam in assignment))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not MultiPartition:
            return NotImplemented
        return (
            self._hash == other._hash
            and self.assignment == other.assignment
            and self.q == other.q
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return MultiPartition, (self.kind, self.q, self.assignment)

    def part(self, orb: OrbitId) -> Partition:
        for other, lam in self.assignment:
            if other == orb:
                return lam
        return ()

    def orbits(self) -> tuple[OrbitId, ...]:
        return tuple(orb for orb, _ in self.assignment)

    def sort_key(self) -> tuple:
        return tuple((orb.size, orb.residue, lam) for orb, lam in self.assignment)

    def to_json(self) -> list:
        return [[orb.to_json(), list(lam)] for orb, lam in self.assignment]


@cache
def _orbit(kind: str, q: int, size: int, residue: int) -> OrbitId:
    """One shared, validated orbit object per (kind, q, size, residue)."""
    return OrbitId(kind, q, size, residue)


@cache
def mp_of_blocks(kind: str, q: int, key: tuple) -> MultiPartition:
    """The multipartition of a sorted tuple of (orbit size, orbit residue,
    part) blocks, built once per key: equal keys give one shared object,
    and ``enumerate_mp`` lists these same objects.

    >>> nu = mp_of_blocks("phi", 2, ((1, 0, 1), (1, 0, 2)))
    >>> nu.assignment[0][1], any(mu is nu for mu in enumerate_mp(2, "phi", 3))
    ((2, 1), True)
    """
    parts: dict[tuple[int, int], list[int]] = {}
    for size, residue, power in key:
        parts.setdefault((size, residue), []).append(power)
    return MultiPartition(
        kind, q, tuple((_orbit(kind, q, *f), tuple(reversed(ps))) for f, ps in parts.items())
    )


def mp_size(nu: MultiPartition) -> int:
    """Total size, each block weighted by its orbit degree."""
    return nu._size


class MPStats(NamedTuple):
    size: int
    n: int
    conjugate: MultiPartition
    height: int
    odd: int


@cache
def mp_conjugate(nu: MultiPartition) -> MultiPartition:
    """Blockwise partition conjugation: the shared ``mp_of_blocks`` object of
    the conjugated sorted block key, so equal arguments give one object, the
    one ``enumerate_mp`` lists, and conjugating a shared object twice returns
    it. The cache is keyed by the argument.

    >>> nu = enumerate_mp(2, "theta", 3)[0]
    >>> any(mu is mp_conjugate(nu) for mu in enumerate_mp(2, "theta", 3))
    True
    >>> mp_conjugate(mp_conjugate(nu)) is nu
    True
    """
    key = tuple(
        (orb.size, orb.residue, p) for orb, lam in nu.assignment for p in reversed(conjugate(lam))
    )
    return mp_of_blocks(nu.kind, nu.q, key)


@cache
def mp_stats(nu: MultiPartition) -> MPStats:
    """Size, n statistic, blockwise conjugate, height, and odd-part count.

    The n and odd statistics weight each block by its orbit degree; height is
    the maximal block length.
    """
    return MPStats(
        size=mp_size(nu),
        n=sum(orb.size * n_stat(lam) for orb, lam in nu.assignment),
        conjugate=mp_conjugate(nu),
        height=max((len(lam) for _, lam in nu.assignment), default=0),
        odd=sum(orb.size * sum(1 for v in lam if v % 2) for orb, lam in nu.assignment),
    )


@cache
def _enumerate_mp(q: int, kind: str, n: int) -> tuple[MultiPartition, ...]:
    orbs = enumerate_orbits(q, kind, max(n, 1))
    sizes = [orb.size for orb in orbs]
    found: list[MultiPartition] = []

    def assign(index: int, remaining: int, blocks: tuple) -> None:
        # blocks on orbits before index are chosen; the next one goes on a
        # later orbit that fits, so the recursion is at most n deep. Orbits
        # are sorted by size, and the last that fits is tried first.
        if remaining == 0:
            key = tuple((orb.size, orb.residue, p) for orb, lam in blocks for p in reversed(lam))
            found.append(mp_of_blocks(kind, q, key))
            return
        for i in reversed(range(index, bisect.bisect_right(sizes, remaining))):
            orb = orbs[i]
            for k in range(1, remaining // orb.size + 1):
                for lam in partitions_of(k):
                    assign(i + 1, remaining - orb.size * k, blocks + ((orb, lam),))

    assign(0, n, ())
    found.sort(key=MultiPartition.sort_key)
    return tuple(found)


def enumerate_mp(q: int, kind: str, n: int) -> list[MultiPartition]:
    """All multipartitions of the given size, in a stable canonical order."""
    if n < 0:
        raise ValueError("size must be nonnegative")
    return list(_enumerate_mp(q, kind, n))


def _block_centralizer(lam: Partition, x: int) -> int:
    """a_lam(x) = x^(|lam| + 2 n(lam)) prod_j psi_{m_j}(1/x), in integers.

    With psi_m(1/x) = x^(-m(m+1)/2) prod_{i<=m} (x^i - 1), each multiplicity
    m_j moves m_j(m_j+1)/2 out of the exponent, which stays nonnegative.

    >>> _block_centralizer((1, 1), -2)
    18
    """
    mults = multiplicities(lam).values()
    value = x ** (sum(lam) + 2 * n_stat(lam) - sum(m * (m + 1) // 2 for m in mults))
    for m in mults:
        for i in range(1, m + 1):
            value *= x**i - 1
    return value


def centralizer_order(mu: MultiPartition) -> int:
    """Centralizer order a_mu, a positive integer dividing the group order.

    >>> trivial = OrbitId("phi", 2, 1, 0)
    >>> centralizer_order(MultiPartition("phi", 2, ((trivial, (1, 1)),)))
    18
    """
    value = (-1) ** mp_size(mu)
    for orb, lam in mu.assignment:
        value *= _block_centralizer(lam, (-orb.q) ** orb.size)
    if value <= 0:
        raise AssertionError(f"centralizer order came out as {value}")
    return value


def class_size(mu: MultiPartition) -> int:
    """Conjugacy class size, the group order divided by a_mu."""
    order = unitary_group_order(mu.q, mp_size(mu))
    a = centralizer_order(mu)
    if order % a:
        raise AssertionError("centralizer order does not divide the group order")
    return order // a


class TorusLabel(Record):
    """Conjugacy datum in the relative Weyl group with its torus factors."""

    __slots__ = _fields = ("gamma", "factors", "z", "weyl_class_size")
    gamma: MultiPartition
    factors: tuple[int, ...]
    z: int
    weyl_class_size: int


class TorusData(NamedTuple):
    weyl_order: int
    labels: tuple[TorusLabel, ...]


def torus_data(nu: MultiPartition) -> TorusData:
    """Weyl group order and the torus labels gamma with gamma_s = nu_s.

    Each label carries z_gamma (the product of the blockwise cycle-type
    centralizer orders) and its class size in the product of symmetric groups.
    """
    sizes = [(orb, sum(lam)) for orb, lam in nu.assignment]
    weyl_order = math.prod(math.factorial(m) for _, m in sizes)
    labels = []
    for blocks in itertools.product(*([(orb, lam) for lam in partitions_of(m)] for orb, m in sizes)):
        gamma = MultiPartition(nu.kind, nu.q, blocks)
        z = math.prod(z_stat(lam) for _, lam in blocks)
        factors = tuple(
            sorted((orb.size * v for orb, lam in blocks for v in lam), reverse=True)
        )
        if weyl_order % z:
            raise AssertionError("cycle-type centralizer does not divide the Weyl order")
        labels.append(TorusLabel(gamma, factors, z, weyl_order // z))
    labels.sort(key=lambda lab: lab.gamma.sort_key())
    return TorusData(weyl_order, tuple(labels))
