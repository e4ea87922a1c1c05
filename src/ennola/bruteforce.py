"""Ground-truth matrix model of small finite unitary groups.

Everything here is brute force on purpose: the group is enumerated as
explicit matrices over the quadratic extension field, conjugacy classes are
read off from characteristic polynomials and rank sequences, and symmetric
matrices and Frobenius-Schur indicators are counted one element at a time.
None of it consults the symmetric-function machinery, so agreement with the
combinatorial class data and the character table is a genuine cross-check.

Two cost bounds decide which (n, q) it accepts, and a refusal is a ValueError
naming its bound: enumeration refuses a group of more than ``max_order``
elements (default ``DEFAULT_MAX_ORDER``), and the field data that every entry
point shares refuses a tower field F_{q^(2L)}, L = lcm(1..n), of more than
``MAX_FIELD_ORDER`` elements. So (3, 2), (2, q) for q <= 16 and (1, q) for
q <= 256 are accepted, and (4, 2) and (3, 3) are not.

Field elements are integers packing base-p coefficient vectors of the
quotient by a fixed monic modulus: the lexicographically least primitive
irreducible of the right degree, so every construction is deterministic.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction
from functools import cache

from ._record import Record, _set
from .charmap import CharLabel, char_table
from .exactnum import Cyclotomic
from .multipartitions import (
    MultiPartition,
    centralizer_order,
    enumerate_mp,
    mp_size,
    unitary_group_order,
)
from .orbits import OrbitId, enumerate_orbits, level_order
from .partitions import conjugate
from .reptables import degree_hook, degree_sum

DEFAULT_MAX_ORDER = 100_000
MAX_FIELD_ORDER = 1 << 16

IntPoly = tuple[int, ...]


# Miller-Rabin with the first twelve primes as bases is deterministic below
# this bound (Sorenson and Webster, 2015), so every q under it splits exactly
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MAX_Q = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality for n < ``MAX_Q``."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_power(q: int) -> tuple[int, int]:
    """Split q as p^e with p prime; ValueError otherwise.

    For each e the only candidate p is the integer e-th root of q, and it is
    tested by ``_is_prime``, so the split costs O(log q) root extractions and
    primality tests; q at or above ``MAX_Q`` is refused with a ValueError that
    names the bound.
    """
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q >= MAX_Q:
        raise ValueError(
            f"q = {q} is at least MAX_Q = {MAX_Q}, the bound of the exact prime-power test"
        )
    if _is_prime(q):
        return q, 1
    for e in range(2, q.bit_length()):
        # below MAX_Q an integer e-th root is at most 2^41, and the float root
        # is within 10^-3 of it, so rounding finds it
        p = round(q ** (1 / e))
        if p**e == q and _is_prime(p):
            return p, e
    raise ValueError(f"{q} is not a prime power")


def _ptrim(a: list[int]) -> IntPoly:
    while a and a[-1] == 0:
        a.pop()
    return tuple(a)


def _powers_of_t(p: int, e: int, m: IntPoly) -> list[int] | None:
    """The packed powers t^0, ..., t^(N-1) modulo the monic m of degree e,
    N = p^e - 1, if t first returns to 1 at step N; None otherwise.

    Then t^0, ..., t^(N-1) are N distinct units of F_p[t]/(m), so every nonzero
    residue is a unit and m is irreducible as well as primitive.
    """
    top = p**e - 1
    weights = [p**i for i in range(e)]
    low = [(j, y) for j, y in enumerate(m[:-1]) if y]
    exp, cur = [1], [1] + [0] * (e - 1)
    while True:
        # times t: shift the coefficients up, and reduce t^e by m
        lead = cur.pop()
        cur.insert(0, 0)
        if lead:
            for j, y in low:
                cur[j] = (cur[j] - lead * y) % p
        v = sum(c * w for c, w in zip(cur, weights))
        if v == 1 or len(exp) == top:
            return exp if v == 1 and len(exp) == top else None
        exp.append(v)


class GF:
    """Arithmetic in the field of p^e elements, elements packed as integers.

    An element sum(a_i x^i) is stored as the integer sum(a_i p^i), where x is
    the class of t modulo the field's primitive modulus. The class of t
    itself therefore generates the multiplicative group, and exp/log tables
    make multiplication a lookup.
    """

    def __init__(self, p: int, e: int, modulus: IntPoly, exp: list[int]) -> None:
        self.p = p
        self.e = e
        self.modulus = modulus
        self.order = p**e
        self.zero = 0
        self.one = 1
        self.exp = exp
        log = [0] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        self.log = log
        self._add_table: list[list[int]] | None = None
        if p != 2 and self.order <= 1024:
            self._add_table = [
                [self._add_digits(a, b) for b in range(self.order)]
                for a in range(self.order)
            ]

    def _add_digits(self, a: int, b: int) -> int:
        out = 0
        mult = 1
        p = self.p
        for _ in range(self.e):
            out += (a % p + b % p) % p * mult
            a //= p
            b //= p
            mult *= p
        return out

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self._add_table is not None:
            return self._add_table[a][b]
        return self._add_digits(a, b)

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        out = 0
        mult = 1
        for _ in range(self.e):
            out += -a % self.p * mult
            a //= self.p
            mult *= self.p
        return out

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self.exp[(self.log[a] + self.log[b]) % (self.order - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("field inverse of zero")
        return self.exp[-self.log[a] % (self.order - 1)]

    def pow(self, a: int, k: int) -> int:
        if a == 0:
            if k <= 0:
                raise ZeroDivisionError("zero to a nonpositive power")
            return 0
        return self.exp[self.log[a] * k % (self.order - 1)]

    def frob(self, a: int, j: int = 1) -> int:
        return self.pow(a, self.p**j)


@cache
def field(p: int, e: int) -> GF:
    """The field of p^e elements on its lexicographically least modulus.

    Monic candidates t^e + c are scanned in increasing order of the integer
    encoding of c, keeping the first primitive one (which is irreducible).

    >>> field(2, 2).modulus
    (1, 1, 1)
    """
    if e < 1:
        raise ValueError("extension degree must be positive")
    if p < 2 or any(p % d == 0 for d in range(2, p)):
        raise ValueError(f"{p} is not prime")
    for low in range(p**e):
        coeffs = []
        v = low
        for _ in range(e):
            coeffs.append(v % p)
            v //= p
        m = tuple(coeffs) + (1,)
        if m[0] and (exp := _powers_of_t(p, e, m)) is not None:
            return GF(p, e, m, exp)
    raise AssertionError("no primitive modulus found")


def _fp_mul(F: GF, a: IntPoly, b: IntPoly) -> IntPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _ptrim(out)


def _fp_add(F: GF, a: IntPoly, b: IntPoly) -> IntPoly:
    out = [F.add(x, y) for x, y in itertools.zip_longest(a, b, fillvalue=0)]
    return _ptrim(out)


def _fp_divmod(F: GF, a: IntPoly, b: IntPoly) -> tuple[IntPoly, IntPoly]:
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    linv = F.inv(b[-1])
    for i in range(len(rem) - 1, len(b) - 2, -1):
        c = rem[i]
        if c:
            f = F.mul(c, linv)
            quot[i - len(b) + 1] = f
            for j, y in enumerate(b):
                rem[i - len(b) + 1 + j] = F.add(rem[i - len(b) + 1 + j], F.neg(F.mul(f, y)))
    return _ptrim(quot), _ptrim(rem)


def _fp_eval(F: GF, a: IntPoly, x: int) -> int:
    out = 0
    for c in reversed(a):
        out = F.add(F.mul(out, x), c)
    return out


class UMatrix(Record):
    """Square matrix over the field of q^2 elements, entries packed as ints."""

    __slots__ = _fields = ("q", "entries")
    q: int
    entries: tuple[tuple[int, ...], ...]

    def __init__(self, q: int, entries) -> None:
        entries = tuple(tuple(row) for row in entries)
        n = len(entries)
        p, e0 = _prime_power(q)
        bound = p ** (2 * e0)
        for row in entries:
            if len(row) != n:
                raise ValueError("matrix is not square")
            if any(not 0 <= v < bound for v in row):
                raise ValueError("entry out of field range")
        _set(self, "q", q)
        _set(self, "entries", entries)

    @property
    def n(self) -> int:
        return len(self.entries)

    def is_unitary(self) -> bool:
        """Whether the matrix times its conjugate transpose is the identity.

        >>> UMatrix(2, ((2, 0), (0, 3))).is_unitary()
        True
        """
        F, conj = _small(self.q)
        return _is_unitary(F, conj, self.entries)

    def to_json(self) -> dict:
        return {"q": self.q, "n": self.n, "entries": [list(row) for row in self.entries]}


def _check_field_order(n: int, q: int) -> None:
    """Refuse (n, q) when the tower field F_{q^(2L)}, L = lcm(1..n), that
    holds every eigenvalue of an n x n matrix over F_{q^2} has more than
    ``MAX_FIELD_ORDER`` elements. The first test spares computing q^(2L)
    when L is large."""
    L = math.lcm(*range(1, n + 1))
    if 2 * L > MAX_FIELD_ORDER.bit_length() or q ** (2 * L) > MAX_FIELD_ORDER:
        raise ValueError(
            f"(n, q) = ({n}, {q}): tower field of {q}^{2 * L} elements exceeds "
            f"MAX_FIELD_ORDER = {MAX_FIELD_ORDER}"
        )


@cache
def _small(q: int) -> tuple[GF, tuple[int, ...]]:
    """The field of q^2 elements with its entrywise q-power conjugation table:
    the tower field of n = 1, refused as that is."""
    _check_field_order(1, q)
    p, e0 = _prime_power(q)
    F = field(p, 2 * e0)
    return F, tuple(F.frob(a, e0) for a in range(F.order))


class _Context:
    """Shared field data for one (n, q): tower field, embeddings, orbit polynomials."""

    def __init__(self, n: int, q: int) -> None:
        _check_field_order(n, q)
        L = math.lcm(*range(1, n + 1))
        p, e0 = _prime_power(q)
        self.n = n
        self.q = q
        self.F, self.conj = _small(q)
        self.K = field(p, 2 * e0 * L)
        self._embed_small()
        self.orbit_polys: dict[OrbitId, tuple[IntPoly, ...]] = {}
        self.poly_orbit: dict[IntPoly, OrbitId] = {}
        for orb in enumerate_orbits(q, "phi", n):
            polys = self._build_orbit_polys(orb)
            self.orbit_polys[orb] = polys
            for h in polys:
                self.poly_orbit[h] = orb

    def _embed_small(self) -> None:
        F, K = self.F, self.K
        if F.order == K.order:
            self.eps = tuple(range(F.order))
        else:
            small_mod = F.modulus
            root = None
            for j in range(K.order - 1):
                y = K.exp[j]
                if _fp_eval(K, small_mod, y) == 0:
                    root = y
                    break
            if root is None:
                raise AssertionError("no embedding root found")
            fwd = []
            for a in range(F.order):
                digits = []
                v = a
                for _ in range(F.e):
                    digits.append(v % F.p)
                    v //= F.p
                acc = 0
                for d in reversed(digits):
                    acc = K.add(K.mul(acc, root), d)
                fwd.append(acc)
            self.eps = tuple(fwd)
        self.eps_inv = {v: i for i, v in enumerate(self.eps)}
        if len(self.eps_inv) != self.F.order:
            raise AssertionError("subfield embedding is not injective")

    def _level_root(self, d: int, residue: int) -> int:
        N = level_order(self.q, d)
        w = self.K.exp[(self.K.order - 1) // N]
        return self.K.pow(w, residue) if residue else self.K.one

    def _poly_from_residues(self, d: int, residues: list[int]) -> IntPoly:
        K = self.K
        out: IntPoly = (1,)
        for k in residues:
            root = self._level_root(d, k)
            out = _fp_mul(K, out, (K.neg(root), 1))
        coerced = []
        for c in out:
            if c not in self.eps_inv:
                raise AssertionError("orbit polynomial does not land in the small field")
            coerced.append(self.eps_inv[c])
        return tuple(coerced)

    def _build_orbit_polys(self, orb: OrbitId) -> tuple[IntPoly, ...]:
        d = orb.size
        N = level_order(self.q, d)
        traj = []
        k = orb.residue
        for _ in range(d):
            traj.append(k)
            k = k * -self.q % N
        if d % 2:
            h = self._poly_from_residues(d, traj)
            if self._twist(h) != h:
                raise AssertionError("odd orbit polynomial is not self-paired")
            return (h,)
        h = self._poly_from_residues(d, traj[0::2])
        ht = self._poly_from_residues(d, traj[1::2])
        if self._twist(h) != ht or h == ht:
            raise AssertionError("even orbit polynomials do not pair up")
        return (h, ht)

    def _twist(self, h: IntPoly) -> IntPoly:
        """Monic polynomial whose roots are the inverse q-th powers of h's roots."""
        F, conj = self.F, self.conj
        scale = F.inv(conj[h[0]])
        return tuple(F.mul(conj[c], scale) for c in reversed(h))


@cache
def _context(n: int, q: int) -> _Context:
    return _Context(n, q)


def _is_unitary(F: GF, conj: tuple[int, ...], g: tuple[tuple[int, ...], ...]) -> bool:
    n = len(g)
    for i in range(n):
        for j in range(n):
            s = 0
            for k in range(n):
                s = F.add(s, F.mul(g[i][k], conj[g[j][k]]))
            if s != (F.one if i == j else 0):
                return False
    return True


@cache
def _group_entries(n: int, q: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    ctx = _context(n, q)
    F, conj = ctx.F, ctx.conj

    def herm(u: tuple[int, ...], v: tuple[int, ...]) -> int:
        s = 0
        for x, y in zip(u, v):
            s = F.add(s, F.mul(x, conj[y]))
        return s

    vectors = list(itertools.product(range(F.order), repeat=n))
    units = [v for v in vectors if herm(v, v) == F.one]
    out: list[tuple[tuple[int, ...], ...]] = []

    def extend(rows: tuple[tuple[int, ...], ...]) -> None:
        if len(rows) == n:
            out.append(rows)
            return
        for v in units:
            if all(herm(v, r) == 0 for r in rows):
                extend(rows + (v,))

    extend(())
    if len(out) != unitary_group_order(q, n):
        raise AssertionError("enumeration misses the group order")
    return tuple(out)


def enumerate_group(n: int, q: int, max_order: int = DEFAULT_MAX_ORDER) -> list[UMatrix]:
    """All matrices satisfying the unitarity equation, built row by row.

    Rows are chosen orthonormal under the hermitian form sum(u_i v_i^q); the
    count is checked against the closed-form group order.

    >>> len(enumerate_group(1, 2))
    3
    """
    order = unitary_group_order(q, n)
    if order > max_order:
        raise ValueError(
            f"(n, q) = ({n}, {q}): group order {order} exceeds "
            f"max_order = {max_order} (--max-group-order)"
        )
    return [UMatrix(q, g) for g in _group_entries(n, q)]


def _mat_mul(F: GF, a, b):
    n = len(a)
    return tuple(
        tuple(
            _dot(F, a[i], tuple(b[k][j] for k in range(n)))
            for j in range(n)
        )
        for i in range(n)
    )


def _dot(F: GF, u, v) -> int:
    s = 0
    for x, y in zip(u, v):
        s = F.add(s, F.mul(x, y))
    return s


def _identity(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def _mat_conj(ctx: _Context, a):
    return tuple(tuple(ctx.conj[v] for v in row) for row in a)


def _mat_transpose(a):
    return tuple(zip(*a))


def _rank(F: GF, a) -> int:
    rows = [list(r) for r in a]
    n = len(rows)
    rank = 0
    col = 0
    while rank < n and col < n:
        pivot = next((i for i in range(rank, n) if rows[i][col]), None)
        if pivot is None:
            col += 1
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = F.inv(rows[rank][col])
        rows[rank] = [F.mul(v, inv) for v in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][col]:
                f = F.neg(rows[i][col])
                rows[i] = [F.add(x, F.mul(f, y)) for x, y in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def _charpoly(F: GF, g) -> IntPoly:
    n = len(g)
    total: IntPoly = ()
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j]
        )
        term: IntPoly = (F.one,)
        for i in range(n):
            j = perm[i]
            factor = (F.neg(g[i][j]), F.one) if i == j else (F.neg(g[i][j]),)
            term = _fp_mul(F, term, factor)
            if not term:
                break
        if inversions % 2:
            term = tuple(F.neg(c) for c in term)
        total = _fp_add(F, total, term)
    return total


def _fpoly_at_matrix(F: GF, coeffs: IntPoly, g):
    n = len(g)
    out = tuple((0,) * n for _ in range(n))
    for c in reversed(coeffs):
        out = _mat_mul(F, out, g)
        if c:
            out = tuple(
                tuple(F.add(out[i][j], c if i == j else 0) for j in range(n))
                for i in range(n)
            )
    return out


def classify(g: UMatrix) -> MultiPartition:
    """Conjugacy class of g: one partition per Frobenius orbit of eigenvalues.

    The characteristic polynomial is split by trial division against the
    orbit polynomials, and part multiplicities are read from the rank
    sequence of powers of each factor evaluated at g.

    >>> from ennola.multipartitions import mp_size
    >>> mp_size(classify(UMatrix(2, ((1, 0), (0, 1)))))
    2
    """
    n, q = g.n, g.q
    ctx = _context(n, q)
    F = ctx.F
    chi = _charpoly(F, g.entries)
    assignment = []
    for orb, polys in ctx.orbit_polys.items():
        mults = []
        for h in polys:
            m = 0
            while True:
                quot, rem = _fp_divmod(F, chi, h)
                if rem:
                    break
                chi = quot
                m += 1
            mults.append(m)
        if len(set(mults)) != 1:
            raise AssertionError("paired factors have unequal multiplicities")
        a = mults[0]
        if a == 0:
            continue
        if a == 1:
            assignment.append((orb, (1,)))
            continue
        h = polys[0]
        deg = len(h) - 1
        M = _fpoly_at_matrix(F, h, g.entries)
        ranks = [n]
        P = _identity(n)
        for _ in range(a):
            P = _mat_mul(F, P, M)
            r = _rank(F, P)
            ranks.append(r)
            if r == ranks[-2]:
                break
        cols = []
        for j in range(1, len(ranks)):
            drop = ranks[j - 1] - ranks[j]
            if drop % deg:
                raise AssertionError("rank drop is not a multiple of the factor degree")
            if drop:
                cols.append(drop // deg)
        parts = conjugate(tuple(cols))
        if sum(parts) != a:
            raise AssertionError("rank sequence does not account for the multiplicity")
        assignment.append((orb, parts))
    if len(chi) != 1:
        raise AssertionError("characteristic polynomial has an unrecognized factor")
    mu = MultiPartition("phi", q, tuple(assignment))
    if mp_size(mu) != n:
        raise AssertionError("class label has the wrong size")
    return mu


def _companion(F: GF, h: IntPoly):
    s = len(h) - 1
    return tuple(
        tuple(
            F.neg(h[i]) if j == s - 1 else (1 if i == j + 1 else 0)
            for j in range(s)
        )
        for i in range(s)
    )


class ClassRepresentative(Record):
    """A matrix with the invariant factors of one class, conjugate over the
    big linear group to every member; it need not itself be unitary."""

    __slots__ = _fields = ("label", "matrix", "unitary")
    label: MultiPartition
    matrix: UMatrix
    unitary: bool


def class_representative(mu: MultiPartition) -> ClassRepresentative:
    """Block-diagonal companion-matrix representative of a class label.

    Each part m of the block at an orbit contributes the companion matrix of
    the m-th power of the orbit polynomial (both halves, for an even orbit).

    >>> from ennola.multipartitions import enumerate_mp
    >>> mu = enumerate_mp(2, "phi", 2)[0]
    >>> class_representative(mu).matrix.n
    2
    """
    if mu.kind != "phi":
        raise ValueError("class labels are indexed by point orbits")
    n, q = mp_size(mu), mu.q
    ctx = _context(n, q)
    F = ctx.F
    blocks = []
    for orb, lam in mu.assignment:
        for part in lam:
            for h in ctx.orbit_polys[orb]:
                power: IntPoly = (1,)
                for _ in range(part):
                    power = _fp_mul(F, power, h)
                blocks.append(_companion(F, power))
    total = sum(len(b) for b in blocks)
    entries = [[0] * total for _ in range(total)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                entries[at + i][at + j] = v
        at += len(b)
    matrix = UMatrix(q, tuple(tuple(row) for row in entries))
    rep = ClassRepresentative(mu, matrix, _is_unitary(ctx.F, ctx.conj, matrix.entries))
    check = classify(matrix)
    if check != mu:
        raise AssertionError("representative classifies to a different label")
    return rep


def class_census(
    n: int, q: int, max_order: int = DEFAULT_MAX_ORDER
) -> dict[MultiPartition, int]:
    """Brute class sizes, checked against the centralizer-order formula."""
    counts = Counter(classify(g) for g in enumerate_group(n, q, max_order))
    order = unitary_group_order(q, n)
    expected = enumerate_mp(q, "phi", n)
    if sorted(counts, key=lambda m: m.sort_key()) != list(expected):
        raise AssertionError("census misses some class labels")
    for mu, size in counts.items():
        if size * centralizer_order(mu) != order:
            raise AssertionError(f"class size {size} disagrees with the formula at {mu}")
    return {mu: counts[mu] for mu in expected}


def symmetric_count(n: int, q: int, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """Number of symmetric matrices in the group.

    >>> symmetric_count(2, 2)
    12
    """
    return sum(
        1
        for g in enumerate_group(n, q, max_order)
        if g.entries == _mat_transpose(g.entries)
    )


class SymmetricProfile(Record):
    """Orbit structure of symmetric group elements under g . s = g s g^T."""

    __slots__ = _fields = ("n", "q", "count", "stabilizer_orders", "orbit_sizes")
    n: int
    q: int
    count: int
    stabilizer_orders: tuple[int, ...]
    orbit_sizes: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "count": self.count,
            "stabilizer_orders": list(self.stabilizer_orders),
            "orbit_sizes": list(self.orbit_sizes),
        }


def symmetric_profile(
    n: int, q: int, max_order: int = DEFAULT_MAX_ORDER
) -> SymmetricProfile:
    """Brute symmetric count with the closed-form orbit stabilizer orders.

    The stabilizers are orthogonal groups (odd q: one type per quadratic
    form class; even q, odd n: the single orthogonal group; even q, even n:
    the diagonal-entry stabilizer and the symplectic group), and the orbit
    sizes they predict must tile the brute count exactly.
    """
    count = symmetric_count(n, q, max_order)
    if q % 2:
        if n % 2:
            o = 2 * q ** ((n - 1) ** 2 // 4) * math.prod(
                q ** (2 * i) - 1 for i in range(1, (n - 1) // 2 + 1)
            )
            stabilizers = (o, o)
        else:
            base = 2 * q ** ((n * n - 2 * n) // 4) * math.prod(
                q ** (2 * i) - 1 for i in range(1, (n - 2) // 2 + 1)
            )
            stabilizers = (base * (q ** (n // 2) - 1), base * (q ** (n // 2) + 1))
    else:
        if n % 2:
            o = q ** ((n - 1) ** 2 // 4) * math.prod(
                q ** (2 * i) - 1 for i in range(1, (n - 1) // 2 + 1)
            )
            stabilizers = (o,)
        else:
            head = q ** (n * n // 4)
            stab1 = head * math.prod(q ** (2 * i) - 1 for i in range(1, (n - 2) // 2 + 1))
            sp = head * math.prod(q ** (2 * i) - 1 for i in range(1, n // 2 + 1))
            stabilizers = (stab1, sp)
    order = unitary_group_order(q, n)
    sizes = tuple(order // s for s in stabilizers)
    if sum(sizes) != count or count != degree_sum(n, q):
        raise AssertionError("symmetric count disagrees with the closed forms")
    return SymmetricProfile(n, q, count, stabilizers, sizes)


def involution_count(n: int, q: int, max_order: int = DEFAULT_MAX_ORDER) -> int:
    """Number of group elements squaring to the identity (identity included)."""
    group = enumerate_group(n, q, max_order)
    F = _context(n, q).F
    eye = _identity(n)
    return sum(1 for g in group if _mat_mul(F, g.entries, g.entries) == eye)


def twisted_fs(
    n: int,
    q: int,
    iota: str = "transpose_inverse",
    max_order: int = DEFAULT_MAX_ORDER,
) -> dict[CharLabel, int]:
    """Twisted Frobenius-Schur indicators from the brute group and the table.

    The indicator of a character is the group average of its value at
    g * iota(g), looked up through classify. For the transpose-inverse twist
    (where iota(g) equals the entrywise conjugate of g, by unitarity) every
    indicator is 1; for the trivial twist it is the classical indicator. In
    both cases the degree-weighted indicator sum must count the fixed points
    of g -> iota(g)^(-1): symmetric elements, respectively involutions.
    """
    if iota not in ("transpose_inverse", "trivial"):
        raise ValueError(f"unknown twist {iota!r}")
    group = enumerate_group(n, q, max_order)
    ctx = _context(n, q)
    F = ctx.F
    counts: Counter[MultiPartition] = Counter()
    for g in group:
        partner = _mat_conj(ctx, g.entries) if iota == "transpose_inverse" else g.entries
        counts[classify(UMatrix(q, _mat_mul(F, g.entries, partner)))] += 1
    table = char_table(n, q)
    col = {mu: k for k, mu in enumerate(table.cols)}
    order = unitary_group_order(q, n)
    out = {}
    for i, label in enumerate(table.rows):
        total = Cyclotomic.zero(1)
        for mu, c in counts.items():
            total = total + table.values[i][col[mu]] * Fraction(c)
        total = total * Fraction(1, order)
        if not total.is_rational():
            raise AssertionError("indicator is not rational")
        value = total.rational_value()
        if value.denominator != 1 or abs(value) > 1:
            raise AssertionError(f"indicator {value} is not in -1..1")
        out[label] = int(value)
    if iota == "transpose_inverse":
        if any(v != 1 for v in out.values()):
            raise AssertionError("a transpose-inverse indicator is not 1")
        fixed = symmetric_count(n, q, max_order)
    else:
        fixed = involution_count(n, q, max_order)
    weighted = sum(v * degree_hook(label.lam) for label, v in out.items())
    if weighted != fixed:
        raise AssertionError("indicator sum does not count the twisted fixed points")
    return out
