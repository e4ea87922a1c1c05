"""Cyclic model of Frobenius orbits and the variable-change transform.

The multiplicative group fixed by the m-th power of the twisted Frobenius is
cyclic of order N_m = q^m - (-1)^m, with Frobenius acting as multiplication
by -q. Everything here works with residues in that abstract model; no finite
field arithmetic is needed.
"""

from __future__ import annotations

from functools import cache

from ._record import Record, _set
from .exactnum import Cyclotomic, _mobius, _reduced


def level_order(q: int, m: int) -> int:
    """Order N_m = q^m - (-1)^m of the level-m cyclic group.

    >>> [level_order(2, m) for m in (1, 2, 3, 4)]
    [3, 3, 9, 15]
    """
    return q**m - (-1) ** m


def _divisors(m: int) -> tuple[int, ...]:
    return tuple(d for d in range(1, m + 1) if m % d == 0)


class CyclicElt(Record):
    """Element of the level-m group: residue k mod N_m, Frobenius acts by -q."""

    __slots__ = _fields = ("q", "level", "residue")
    q: int
    level: int
    residue: int

    def __init__(self, q: int, level: int, residue: int) -> None:
        if level < 1:
            raise ValueError("level must be positive")
        _set(self, "q", q)
        _set(self, "level", level)
        _set(self, "residue", residue % level_order(q, level))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CyclicElt:
            return NotImplemented
        return (
            self.q == other.q and self.level == other.level and self.residue == other.residue
        )

    def __hash__(self) -> int:
        return hash((self.q, self.level, self.residue))

    def embed(self, m: int) -> CyclicElt:
        """Image at a higher compatible level, residue k -> k * N_m / N_r."""
        if m % self.level:
            raise ValueError(f"level {self.level} does not divide {m}")
        step = level_order(self.q, m) // level_order(self.q, self.level)
        return CyclicElt(self.q, m, self.residue * step)


def _orbit_residues(q: int, m: int, k: int) -> tuple[int, ...]:
    # trajectory of k under repeated multiplication by -q, without repeats
    n = level_order(q, m)
    out = []
    cur = k % n
    while cur not in out:
        out.append(cur)
        cur = cur * -q % n
    return tuple(out)


def _is_primitive(q: int, m: int, k: int) -> bool:
    # k lies in no proper sublevel: N_m/N_r divides k only for r = m
    n = level_order(q, m)
    for r in _divisors(m)[:-1]:
        if k % (n // level_order(q, r)) == 0:
            return False
    return True


class OrbitId(Record):
    """Frobenius orbit of characters (kind theta) or of points (kind phi).

    The residue is the minimal element of the orbit at its primitive level,
    and the level equals the orbit size.
    """

    __slots__ = _fields = ("kind", "q", "size", "residue")
    kind: str
    q: int
    size: int
    residue: int

    def __init__(self, kind: str, q: int, size: int, residue: int) -> None:
        if kind not in ("theta", "phi"):
            raise ValueError(f"unknown orbit kind {kind!r}")
        n = level_order(q, size)
        if not 0 <= residue < n:
            raise ValueError("residue out of range")
        if not _is_primitive(q, size, residue):
            raise ValueError("residue is not primitive at this level")
        traj = _orbit_residues(q, size, residue)
        if len(traj) != size or min(traj) != residue:
            raise ValueError("residue is not the canonical orbit representative")
        _set(self, "kind", kind)
        _set(self, "q", q)
        _set(self, "size", size)
        _set(self, "residue", residue)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not OrbitId:
            return NotImplemented
        return (
            self.residue == other.residue
            and self.size == other.size
            and self.q == other.q
            and self.kind == other.kind
        )

    def __hash__(self) -> int:
        return hash((self.kind, self.q, self.size, self.residue))

    def to_json(self) -> dict:
        return {"kind": self.kind, "q": self.q, "size": self.size, "residue": self.residue}


def orbit_of(kind: str, x: CyclicElt) -> OrbitId:
    """Canonical orbit through x: primitive level, then minimal residue."""
    q, m, k = x.q, x.level, x.residue
    n = level_order(q, m)
    for d in _divisors(m):
        step = n // level_order(q, d)
        if k % step == 0 and _is_primitive(q, d, k // step):
            return OrbitId(kind, q, d, min(_orbit_residues(q, d, k // step)))
    raise AssertionError("unreachable: level m itself always admits x")


def orbit_count(q: int, r: int) -> int:
    """Number of Frobenius orbits of size exactly r, by Mobius inversion.

    >>> [orbit_count(2, r) for r in (1, 2, 3)]
    [3, 0, 2]
    """
    if r < 1:
        raise ValueError("orbit size must be positive")
    total = sum(_mobius(r // s) * level_order(q, s) for s in _divisors(r))
    if total % r:
        raise AssertionError("Mobius inversion did not divide evenly")
    return total // r


@cache
def _enumerate_residues(q: int, max_size: int) -> tuple[tuple[int, int], ...]:
    # canonical (size, residue) pairs, sorted
    found = []
    for m in range(1, max_size + 1):
        seen: set[int] = set()
        for k in range(level_order(q, m)):
            if k in seen or not _is_primitive(q, m, k):
                continue
            traj = _orbit_residues(q, m, k)
            seen.update(traj)
            if len(traj) != m:
                raise AssertionError("primitive residue with wrong orbit size")
            found.append((m, min(traj)))
    return tuple(sorted(found))


def enumerate_orbits(q: int, kind: str, max_size: int) -> list[OrbitId]:
    """All orbits of size at most max_size, sorted by (size, residue)."""
    if max_size < 1:
        raise ValueError("max_size must be positive")
    return [OrbitId(kind, q, m, k) for m, k in _enumerate_residues(q, max_size)]


def char_eval(xi: CyclicElt, x: CyclicElt) -> Cyclotomic:
    """Pair a level-r character with a level-m point, r dividing m.

    The character of residue j is lifted along the relative norm, which on
    residues is multiplication by (-1)^(m+r) N_m/N_r; identifying the image
    with the level-r group divides that factor back out, leaving
    zeta_{N_r}^e with e = (-1)^(m+r) j k mod N_r.

    >>> char_eval(CyclicElt(2, 1, 1), CyclicElt(2, 3, 1)) == Cyclotomic.root(3)
    True
    """
    if xi.q != x.q:
        raise ValueError("mismatched q")
    r, m = xi.level, x.level
    if m % r:
        raise ValueError(f"character level {r} does not divide point level {m}")
    nr = level_order(xi.q, r)
    e = (-1) ** (m + r) * xi.residue * x.residue % nr
    return Cyclotomic.root(nr, e)


@cache
def _level_points(q: int, m: int) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
    """The level-m points grouped by point orbit, one ``orbit_of`` per point:
    ((orbit size, orbit residue, local power m/size), residues), sorted."""
    groups: dict[tuple[int, int, int], list[int]] = {}
    for k in range(level_order(q, m)):
        orb = orbit_of("phi", CyclicElt(q, m, k))
        groups.setdefault((orb.size, orb.residue, m // orb.size), []).append(k)
    return tuple(sorted((key, tuple(ks)) for key, ks in groups.items()))


@cache
def _transform_counts(phi: OrbitId, n: int) -> tuple[tuple[tuple, tuple], ...]:
    """The variable-change transform of the degree-n power sum at a character
    orbit phi of character xi, in point-orbit power sums,

        p_n(phi) = (-1)^(n|phi|-1) sum_x xi(x) p_{n|phi|/d}(f_x),

    x over the level-n|phi| points, f_x the orbit of x and d its size. Its
    coefficients are left unreduced, as integer counts: each key (orbit
    size, orbit residue, local power) carries the (exponent, count) pairs of
    its coefficient as a sum of N_{|phi|}-th roots of unity, every point x
    of that orbit adding the sign at the exponent of ``char_eval``. Those roots have order dividing the order o of
    the point orbit, so once the exponents are lifted to a common conductor N,
    each is a multiple of N/o: unreduced, the coefficient can be divided down
    to conductor o. Keys whose coefficient is zero are left out.
    """
    q, r = phi.q, phi.size
    m = n * r
    nr = level_order(q, r)
    mult = (-1) ** (m + r) * phi.residue
    sign = (-1) ** (m - 1)
    out = []
    for key, ks in _level_points(q, m):
        counts: dict[int, int] = {}
        for k in ks:
            e = mult * k % nr
            counts[e] = counts.get(e, 0) + sign
        if any(_reduced(nr, counts.items()).values()):
            out.append((key, tuple(sorted(counts.items()))))
    return tuple(out)
