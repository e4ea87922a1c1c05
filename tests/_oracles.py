"""Oracles and small class statistics that only the tests use.

Each one is either an independent second route to a quantity the library
computes (the identity column of the table by Green polynomials, the
variable-change transform as ``Cyclotomic`` coefficients, the hook-length
sum) or a classical statistic the tests check the library's class data
against (Levi orders, semisimple and unipotent parts, torus element labels,
horizontal strips).
"""

from __future__ import annotations

import math
from fractions import Fraction

from ennola.charmap import CharLabel, _green_block
from ennola.exactnum import Cyclotomic, _reduced
from ennola.multipartitions import (
    MultiPartition,
    mp_stats,
    torus_data,
    unitary_group_order,
)
from ennola.orbits import CyclicElt, OrbitId, _transform_counts, level_order, orbit_of
from ennola.partitions import Partition, conjugate
from ennola.reptables import weighted_hooks
from ennola.symfunc import sn_char


def transform_p(phi: OrbitId, n: int, q: int) -> dict[tuple[OrbitId, int], Cyclotomic]:
    """Expand the degree-n power sum at a character orbit into point orbits.

    Returns the coefficient map of
    p_n(phi) = (-1)^(n|phi|-1) sum over x at level n|phi| of xi(x) p_{n|phi|/d}(f_x),
    keyed by (point orbit, local power index); coefficients live at
    conductor N_{|phi|}. The counts are the library's ``_transform_counts``.
    """
    if phi.kind != "theta":
        raise ValueError("transform_p expects a character orbit")
    if phi.q != q:
        raise ValueError("mismatched q")
    if n < 1:
        raise ValueError("power index must be positive")
    nr = level_order(q, phi.size)
    return {
        (OrbitId("phi", q, size, residue), power): Cyclotomic(nr, _reduced(nr, counts))
        for (size, residue, power), counts in _transform_counts(phi, n)
    }


def general_linear_order(q: int, n: int) -> int:
    """Order of GL_n over the field with q elements."""
    return q ** (n * (n - 1) // 2) * math.prod(q**i - 1 for i in range(1, n + 1))


def levi_order(mu: MultiPartition) -> int:
    """Order of the Levi subgroup: one factor per point orbit of degree d
    and block size m, unitary for odd d and general linear over the
    degree-d extension for even d."""
    total = 1
    for orb, lam in mu.assignment:
        d, m = orb.size, sum(lam)
        if d % 2:
            total *= unitary_group_order(mu.q**d, m)
        else:
            total *= general_linear_order(mu.q**d, m)
    return total


def semisimple_part(nu: MultiPartition) -> MultiPartition:
    """Replace each block by a single column of the same size."""
    return MultiPartition(
        nu.kind, nu.q,
        tuple((orb, (1,) * sum(lam)) for orb, lam in nu.assignment),
    )


def unipotent_part(nu: MultiPartition) -> MultiPartition:
    """Collect the degree-scaled parts on the trivial orbit."""
    parts = sorted(
        (orb.size * v for orb, lam in nu.assignment for v in lam), reverse=True
    )
    if not parts:
        return MultiPartition(nu.kind, nu.q, ())
    trivial = OrbitId(nu.kind, nu.q, 1, 0)
    return MultiPartition(nu.kind, nu.q, ((trivial, tuple(parts)),))


def gamma_t(blocks: list[tuple[int, CyclicElt]]) -> MultiPartition:
    """Class label of a torus element given as (block size, element) pairs.

    Each element contributes the part (block size)/(orbit degree) at its
    point orbit; the unipotent part of the result recovers the block sizes.
    """
    collected: dict[OrbitId, list[int]] = {}
    q = None
    for size, x in blocks:
        if x.level != size:
            raise ValueError(f"element level {x.level} does not match block size {size}")
        if q is None:
            q = x.q
        elif q != x.q:
            raise ValueError("mixed q in torus element")
        orb = orbit_of("phi", x)
        collected.setdefault(orb, []).append(size // orb.size)
    if q is None:
        raise ValueError("empty torus element")
    return MultiPartition(
        "phi", q,
        tuple((orb, tuple(sorted(parts, reverse=True))) for orb, parts in collected.items()),
    )


def hook_sum_identity(lam: MultiPartition) -> bool:
    """Total weighted hook length equals size + n + n of the conjugate."""
    st = mp_stats(lam)
    expect = st.size + st.n + mp_stats(st.conjugate).n
    return sum(weighted_hooks(lam)) == expect


def identity_column_entry(label: CharLabel | MultiPartition) -> int:
    """Character degree read off the identity-class column, without expanding
    the full row: only torus labels supported on the trivial point orbit
    survive, leaving a rational sum of Green polynomial values."""
    label = label if isinstance(label, CharLabel) else CharLabel(label)
    lam = label.lam
    n = label.n
    q = label.q
    ones = (1,) * n
    total = Fraction(0)
    for tl in torus_data(lam).labels:
        w = math.prod(sn_char(lam.part(orb), tl.gamma.part(orb)) for orb in lam.orbits())
        if not w:
            continue
        g = _green_block(tl.factors, ones, -q)
        total += Fraction(w, tl.z) * (-1) ** (n - len(tl.factors)) * g
    value = label.sign() * total
    if value.denominator != 1 or value <= 0:
        raise AssertionError(f"character degree came out as {value}")
    return int(value)


def contains(lam: Partition, mu: Partition) -> bool:
    """Diagram containment mu subset-of lam."""
    return len(mu) <= len(lam) and all(mu[i] <= lam[i] for i in range(len(mu)))


def horizontal_strip(lam: Partition, nu: Partition, r: int) -> bool:
    """True iff nu is contained in lam, |lam| - |nu| = r, and lam/nu has no two cells in a column."""
    if not contains(lam, nu) or sum(lam) - sum(nu) != r:
        return False
    lc, nc = conjugate(lam), conjugate(nu)
    return all(lc[j] - (nc[j] if j < len(nc) else 0) <= 1 for j in range(len(lc)))
