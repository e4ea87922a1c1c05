"""Integer partitions and their classical statistics.

A partition is a plain tuple of weakly decreasing positive integers; () is the
empty partition.
"""

from __future__ import annotations

import functools
import math

Partition = tuple[int, ...]

__all__ = [
    "Partition",
    "is_partition",
    "conjugate",
    "n_stat",
    "z_stat",
    "hooks",
    "partitions_of",
    "dominates",
    "multiplicities",
]


def is_partition(parts: tuple[int, ...]) -> bool:
    return all(a >= b for a, b in zip(parts, parts[1:])) and all(p >= 1 for p in parts)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lam'_j = #{i : lam_i >= j}.

    >>> conjugate((3, 2))
    (2, 2, 1)
    >>> conjugate(())
    ()
    """
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def n_stat(lam: Partition) -> int:
    """n(lam) = sum_i (i-1)*lam_i = sum_j C(lam'_j, 2)."""
    return sum(i * p for i, p in enumerate(lam))


def z_stat(lam: Partition) -> int:
    """z_lam = prod_i i^{m_i} m_i!, the S_n centralizer order of cycle type lam."""
    z = 1
    for i, m in multiplicities(lam).items():
        z *= i**m * math.factorial(m)
    return z


def multiplicities(lam: Partition) -> dict[int, int]:
    """Map part -> multiplicity."""
    out: dict[int, int] = {}
    for p in lam:
        out[p] = out.get(p, 0) + 1
    return out


def hooks(lam: Partition) -> list[int]:
    """Hook lengths lam_i + lam'_j - i - j + 1 over all cells, row by row.

    >>> hooks((3, 2))
    [4, 3, 1, 2, 1]
    """
    conj = conjugate(lam)
    return [
        lam[i] + conj[j] - i - j - 1
        for i in range(len(lam))
        for j in range(lam[i])
    ]


@functools.cache
def partitions_of(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """All partitions of n in reverse lexicographic order, largest part first.

    >>> partitions_of(4)
    ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if max_part is None or max_part > n:
        max_part = n
    if n == 0:
        return ((),)
    out = []
    for first in range(max_part, 0, -1):
        for rest in partitions_of(n - first, first):
            out.append((first, *rest))
    return tuple(out)


def dominates(lam: Partition, mu: Partition) -> bool:
    """Dominance order: partial sums of lam weakly exceed those of mu (equal sizes)."""
    total_l = total_m = 0
    for i in range(max(len(lam), len(mu))):
        total_l += lam[i] if i < len(lam) else 0
        total_m += mu[i] if i < len(mu) else 0
        if total_l < total_m:
            return False
    return total_l == total_m
