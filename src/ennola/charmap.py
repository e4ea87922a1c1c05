"""The characteristic map between unitary class functions and symmetric functions.

Class functions of the rank-n unitary groups, summed over all n, form a graded
ring under either of two products: the Ennola product, whose structure
constants are Hall polynomials evaluated at (-q)^d, and Deligne-Lusztig
induction. The characteristic map identifies this ring with a graded ring of
symmetric functions spread over the point orbits, sending the indicator of a
class to a normalized Hall-Littlewood element. Under the variable-change
transform of module ``orbits``, power sums indexed by character orbits
correspond to the virtual characters induced from tori, and Schur elements
correspond, up to an explicit sign, to the irreducible characters. Expanding
Schur elements in the Hall-Littlewood basis therefore computes the full
character table.

Elements are exact: coefficients are cyclotomic numbers, and every basis
conversion is a finite integer or rational linear map (symmetric group
characters, Green polynomial evaluations, and the orbit transform). The
conversions run along s_theta <-> p_theta <-> P, and pi shares the
coefficients of P. The steps s_theta <-> p_theta and p_theta -> P factor over
orbits: one row entry is chosen per block, and the entries multiply. The step
P -> p_theta does not: since the characteristic map is an isometry, it is T,
the p_theta -> P transition, conjugated, transposed and scaled by the squared
norms. Both transitions store each entry at its class's column conductor e_mu,
as the one ``Cyclotomic`` that the cache ``_value`` holds for its stored form.
Arithmetic runs at the conductor its operands bring: a basis change or
product writes its results at the lcm of the conductors of its inputs and of
the map values it reads, and the degree-n common conductor N serves only the
exponent ring of ``_build_T``, the Galois plan and output. A one-term change,
a basis element times a rational c over a row whose values share one
conductor that c's conductor divides, is read off the row: each result is a
row value times c, and for c = 1 the row's own value, so a class indicator's
p_theta image is its column of the transpose, object for object. Every other
change and product accumulates integer vectors, and takes each result from
``_built``, one cache for the whole process keyed by (conductor, denominator,
sorted exponent terms), bounded at ``_BUILT_MAX`` entries with the least
recently used evicted. The Ennola product reads Hall polynomial values from a
cache per (partition, partition, (-q)^d), and never from the tables of the
characteristic map. Every memo that lives as long as the process is a
``functools`` cache on the builder it memoises, so ``cache_info`` reports it
and ``cache_clear`` empties it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache, lru_cache
from itertools import product as iproduct

from ._record import Record, _set
from .exactnum import Cyclotomic, _reduced, _stored_form, _unit_generators
from .multipartitions import (
    MultiPartition,
    centralizer_order,
    class_size,
    enumerate_mp,
    mp_conjugate,
    mp_of_blocks,
    mp_size,
    mp_stats,
    torus_data,
)
from .orbits import (
    CyclicElt,
    OrbitId,
    _transform_counts,
    char_eval,
    level_order,
    orbit_of,
)
from .partitions import Partition, partitions_of, z_stat
from .symfunc import green_poly, hall_polynomial, sn_char

_BASIS_KIND = {"P": "phi", "pi": "phi", "p_theta": "theta", "s_theta": "theta"}

# Cyclotomic is frozen, so one zero serves every missing coefficient
_ZERO = Cyclotomic.zero(1)


@cache
def conductor(q: int, n: int) -> int:
    """Common conductor of every root of unity appearing in degree n.

    >>> conductor(2, 3)
    9
    >>> conductor(3, 3)
    56
    """
    return math.lcm(*(level_order(q, m) for m in range(1, n + 1))) if n else 1


def _acc(table: dict[MultiPartition, Cyclotomic], key: MultiPartition, val: Cyclotomic) -> None:
    prev = table.get(key)
    table[key] = val if prev is None else prev + val


class SymElement(Record):
    """Exact linear combination of basis elements of one graded component.

    The basis tag is one of ``P`` and ``pi`` (indexed by point-orbit
    multipartitions; ``pi`` marks the class-function side, ``P`` its image)
    or ``p_theta`` and ``s_theta`` (indexed by character-orbit
    multipartitions). All index multipartitions must have total size n.
    """

    __slots__ = _fields = ("q", "n", "basis", "coeffs")
    q: int
    n: int
    basis: str
    coeffs: dict[MultiPartition, Cyclotomic]

    def __init__(
        self, q: int, n: int, basis: str, coeffs: dict[MultiPartition, Cyclotomic]
    ) -> None:
        if basis not in _BASIS_KIND:
            raise ValueError(f"unknown basis {basis!r}")
        kind = _BASIS_KIND[basis]
        cleaned = {}
        for mp, v in coeffs.items():
            if mp.kind != kind or mp.q != q:
                raise ValueError("index multipartition does not match basis or q")
            if mp_size(mp) != n:
                raise ValueError("index multipartition has the wrong size")
            if not isinstance(v, Cyclotomic):
                raise TypeError(f"coefficients must be Cyclotomic, not {type(v).__name__}")
            if v:
                cleaned[mp] = v
        _set(self, "q", q)
        _set(self, "n", n)
        _set(self, "basis", basis)
        _set(self, "coeffs", cleaned)

    def coefficient(self, mp: MultiPartition) -> Cyclotomic:
        return self.coeffs.get(mp, _ZERO)

    def __add__(self, other: SymElement) -> SymElement:
        if (self.q, self.n, self.basis) != (other.q, other.n, other.basis):
            raise ValueError("can only add elements of one basis and degree")
        out = dict(self.coeffs)
        for mp, v in other.coeffs.items():
            _acc(out, mp, v)
        return SymElement(self.q, self.n, self.basis, out)

    def scale(self, c: Cyclotomic | Fraction | int) -> SymElement:
        return SymElement(
            self.q, self.n, self.basis, {mp: v * c for mp, v in self.coeffs.items()}
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymElement):
            return NotImplemented
        if (self.q, self.n) != (other.q, other.n):
            return False
        if self.basis != other.basis:
            return to_basis(self, "p_theta") == to_basis(other, "p_theta")
        # both maps hold no zeros, so equal elements have equal supports
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"SymElement(q={self.q}, n={self.n}, basis={self.basis!r}, terms={len(self.coeffs)})"


def pi_class(mp: MultiPartition) -> SymElement:
    """Indicator class function of one conjugacy class."""
    return SymElement(mp.q, mp_size(mp), "pi", {mp: Cyclotomic.from_rational(1)})


def power_theta(gamma: MultiPartition) -> SymElement:
    """Power-sum basis element at a character-orbit multipartition."""
    return SymElement(gamma.q, mp_size(gamma), "p_theta", {gamma: Cyclotomic.from_rational(1)})


def schur(lam: MultiPartition) -> SymElement:
    """Schur basis element at a character-orbit multipartition."""
    return SymElement(lam.q, mp_size(lam), "s_theta", {lam: Cyclotomic.from_rational(1)})


def _blockwise(mp: MultiPartition, rows) -> tuple[tuple[MultiPartition, object], ...]:
    """Multiply out a basis change that factors over orbits, in canonical order.

    ``rows(orb, block)`` lists the (partition, coefficient) pairs one block
    of ``mp`` expands to. Each choice of one pair per block gives the product
    of its coefficients at the shared ``mp_of_blocks`` object of its key.
    """
    per_orbit = [
        [(tuple((orb.size, orb.residue, p) for p in reversed(part)), cf)
         for part, cf in rows(orb, bl)]
        for orb, bl in mp.assignment
    ]
    out = []
    for combo in iproduct(*per_orbit):
        key = tuple(b for blocks, _ in combo for b in blocks)
        out.append((mp_of_blocks(mp.kind, mp.q, key), math.prod(cf for _, cf in combo)))
    return tuple(sorted(out, key=lambda kv: kv[0].sort_key()))


def _green_block(nu: Partition, mu: Partition, t: int) -> int:
    val = green_poly(nu, mu).eval(t)
    if val.denominator != 1:
        raise AssertionError("Green polynomial evaluation is not integral")
    return int(val)


@cache
def _green_row(nu: Partition, t: int) -> tuple[tuple[Partition, int], ...]:
    """One single-orbit power sum at parameter value t, written in
    Hall-Littlewood elements: the nonzero Green polynomial values at t."""
    return tuple((mu, g) for mu in partitions_of(sum(nu)) if (g := _green_block(nu, mu, t)))


def _mul_into(out: dict[int, int], a, b, big: int) -> None:
    """Add the product of two sums of integer multiples of N-th roots of
    unity, N = big, given as (exponent, integer) pairs, into ``out``."""
    get = out.get
    for e, x in a:
        for f, y in b:
            s = (e + f) % big
            out[s] = get(s, 0) + x * y


def _multiply_blocks(big: int, blocks) -> dict[tuple, dict[int, int]]:
    """Multiply out a product of sums block by block.

    Each block is a list of options (key part, terms), the terms (exponent,
    integer) pairs over exponents mod big. Partial products are keyed by the
    sorted tuple of key parts chosen so far and summed per key as they form,
    so products only add exponents.
    """
    state: dict[tuple, dict[int, int]] = {(): {0: 1}}
    for opts in blocks:
        grown: dict[tuple, dict[int, int]] = {}
        for key, vec in state.items():
            for part, terms in opts:
                _mul_into(grown.setdefault(tuple(sorted(key + (part,))), {}), vec.items(), terms, big)
        state = grown
    return state


def _class_conductor(q: int, orbits) -> int:
    """The conductor e of a class with the given point orbits, as (size,
    residue) pairs: the lcm of the orbit orders N_d/gcd(residue, N_d).

    By the Deligne-Lusztig character formula every character value at the
    class lies in Q(zeta_e): the semisimple part contributes roots of unity
    of those orders, and unitary Green functions are integers.

    >>> _class_conductor(3, [(1, 0), (1, 2), (2, 1)])
    8
    """
    return math.lcm(*(level_order(q, d) // math.gcd(k, level_order(q, d)) for d, k in orbits))


@cache
def _columns(q: int, n: int) -> tuple[tuple[MultiPartition, ...], dict, tuple[int, ...]]:
    """The classes of degree n in table order, their column indices, and
    each column's conductor."""
    cols = tuple(enumerate_mp(q, "phi", n))
    conductors = tuple(
        _class_conductor(q, [(orb.size, orb.residue) for orb in mu.orbits()]) for mu in cols
    )
    return cols, {mu: k for k, mu in enumerate(cols)}, conductors


@cache
def _green_cols(q: int, key: tuple) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The point-orbit power sum nu of a sorted block key: its conductor, and
    its Hall-Littlewood expansion keyed by column index, the only cache of
    these rows. The coefficient at mu is the product over point orbits of
    classical Green polynomials evaluated at (-q)^d, and vanishes unless mu
    has the point orbits of nu, each with the same total, so every column
    there shares nu's conductor."""
    nu = mp_of_blocks("phi", q, key)
    _, index, conductors = _columns(q, mp_size(nu))
    e = _class_conductor(q, [(size, residue) for size, residue, _ in key])
    rows = _blockwise(nu, lambda orb, parts: _green_row(parts, (-q) ** orb.size))
    green = tuple((index[mu], g) for mu, g in rows)
    if any(conductors[k] != e for k, _ in green):
        raise AssertionError(f"a Green row of {key} leaves its point orbits")
    return e, green


def _build_T(gamma: MultiPartition, cols) -> tuple[tuple[int, tuple], ...]:
    """T, the p_theta to P transition, built afresh on the column indices in
    ``cols``: one character-orbit power sum in the Hall-Littlewood basis, as
    (column index, terms) pairs, each entry's terms its nonzero power-basis
    coordinates at the column's conductor e_mu, sorted by index as a
    ``Cyclotomic`` stores them.

    Each part passes through the variable-change transform, whose
    coefficients stay unreduced integer counts of roots of unity, lifted to
    exponents mod N, N the degree-n common conductor. The resulting
    point-orbit power sums are multiplied out block by block, summing the
    products per point-orbit multipartition nu as they form, so products only
    add exponents. Each nu's exponents are then divided by N/e_nu, which must
    be exact, reduced to the power basis at e_nu once, and spread over the
    Green polynomial values of nu's row, dropping the columns not in
    ``cols`` first; a nu none of whose columns is left is skipped before any
    of this. Coefficients are algebraic integers, so each has denominator 1.
    """
    q = gamma.q
    big = conductor(q, mp_size(gamma))
    blocks = []
    for orb, lam in gamma.assignment:
        step = big // level_order(q, orb.size)
        for c in lam:
            blocks.append([
                (key, [(i * step, x) for i, x in counts])
                for key, counts in _transform_counts(orb, c)
            ])
    acc: dict[int, dict[int, int]] = {}
    for key, vec in _multiply_blocks(big, blocks).items():
        e, green = _green_cols(q, key)
        green = [t for t in green if t[0] in cols]
        if not green:
            continue
        div = big // e
        if any(i % div for i in vec):
            raise AssertionError(f"exponents at {key} do not divide down to conductor {e}")
        terms = [t for t in _reduced(e, ((i // div, x) for i, x in vec.items())).items() if t[1]]
        for col, g in green if terms else ():
            out = acc.setdefault(col, {})
            for i, x in terms:
                out[i] = out.get(i, 0) + g * x
    entries = ((col, tuple(sorted(t for t in acc[col].items() if t[1]))) for col in sorted(acc))
    return tuple((col, terms) for col, terms in entries if terms)


# T and its transpose repeat few values, so the caches below hold each
# distinct value once, for as long as the process lives.
@cache
def _value(conductor: int, terms: tuple[tuple[int, int], ...], den: int) -> Cyclotomic:
    """The one ``Cyclotomic`` that T and its transpose store at a stored form
    (conductor, terms, den), built on its first sight."""
    return Cyclotomic(conductor, dict(terms), den)


@cache
def _transposed_value(e: int, terms: tuple[tuple[int, int], ...], scale: int) -> Cyclotomic:
    """conj(v)/scale for the value v of T stored at e with these terms: the
    ``_value`` object of its stored form. Keyed by T's terms at e, not by
    T's value, since equal values at different conductors compare equal."""
    return _value(e, *_stored_form(_reduced(e, ((-j % e, x) for j, x in terms)), scale))


@cache
def _power_theta_to_P_cols(gamma: MultiPartition) -> tuple[tuple[int, ...], tuple[Cyclotomic, ...]]:
    """The cache of T: ``_build_T`` on every column, since the transpose
    reads all of T, as its column indices and its values, each value
    ``_value(e_mu, terms, 1)``, the one object of its stored form."""
    _, _, conductors = _columns(gamma.q, mp_size(gamma))
    cols, values = [], []
    for col, terms in _build_T(gamma, range(len(conductors))):
        cols.append(col)
        values.append(_value(conductors[col], terms, 1))
    return tuple(cols), tuple(values)


def _power_theta_to_P_items(gamma: MultiPartition) -> tuple[tuple[MultiPartition, Cyclotomic], ...]:
    """Expand a character-orbit power sum in the Hall-Littlewood basis: the
    entries of T as (class, value) pairs, the values the shared objects of
    ``_power_theta_to_P_cols``; nothing is built or lifted."""
    cols = _columns(gamma.q, mp_size(gamma))[0]
    return tuple((cols[k], v) for k, v in zip(*_power_theta_to_P_cols(gamma)))


@cache
def _transposed(q: int, n: int) -> tuple[tuple[tuple[MultiPartition, Cyclotomic], ...], ...]:
    """P to p_theta in degree n, read off T in one pass: for each column, the
    (torus label, value) pairs of its Hall-Littlewood element in
    character-orbit power sums.

    The characteristic map is an isometry: indicators pi_mu are orthogonal
    with squared norm 1/a_mu, a_mu the centralizer order, and the power sums
    p_gamma are orthogonal with squared norm z_gamma, the product of z_lam
    over gamma's blocks. So the coefficient of p_gamma in P_mu is
    conj(T[gamma, mu]) / (a_mu z_gamma), stored at the column conductor e_mu.
    Each torus label's row of T is walked once, in label order, and appended
    column by column. Each distinct (e_mu, terms, a_mu z_gamma) is conjugated
    once, by ``_transposed_value``, into the ``_value`` object of its stored
    form.
    """
    cols, _, conductors = _columns(q, n)
    scale = [centralizer_order(mu) for mu in cols]
    out: list[list] = [[] for _ in cols]
    for gamma in enumerate_mp(q, "theta", n):
        z = math.prod(z_stat(lam) for _, lam in gamma.assignment)
        for k, v in zip(*_power_theta_to_P_cols(gamma)):
            out[k].append((gamma, _transposed_value(conductors[k], v.terms, scale[k] * z)))
    return tuple(map(tuple, out))


def _P_to_power_theta_items(mu: MultiPartition) -> tuple[tuple[MultiPartition, Cyclotomic], ...]:
    """Expand one Hall-Littlewood element in character-orbit power sums: its
    column of ``_transposed``, which reads T backwards."""
    q, n = mu.q, mp_size(mu)
    return _transposed(q, n)[_columns(q, n)[1][mu]]


@cache
def _schur_to_power_row(lam: Partition) -> tuple[tuple[Partition, Fraction], ...]:
    """One-orbit Schur expansion s_lam = sum_nu (omega^lam(nu)/z_nu) p_nu."""
    return tuple(
        (nu, Fraction(w, z_stat(nu))) for nu in partitions_of(sum(lam)) if (w := sn_char(lam, nu))
    )


@cache
def _power_to_schur_row(nu: Partition) -> tuple[tuple[Partition, int], ...]:
    """One-orbit power sum p_nu = sum_lam omega^lam(nu) s_lam."""
    return tuple((lam, w) for lam in partitions_of(sum(nu)) if (w := sn_char(lam, nu)))


@cache
def _schur_items(lam: MultiPartition) -> tuple[tuple[MultiPartition, Fraction], ...]:
    return _blockwise(lam, lambda orb, block: _schur_to_power_row(block))


@cache
def _power_to_schur_items(gamma: MultiPartition) -> tuple[tuple[MultiPartition, int], ...]:
    return _blockwise(gamma, lambda orb, nu: _power_to_schur_row(nu))


def _coords(v: Cyclotomic | Fraction | int) -> tuple[int, tuple[tuple[int, int], ...], int]:
    """Conductor, (index, coordinate) terms and denominator of a coefficient;
    a rational one is written at conductor 1."""
    if isinstance(v, Cyclotomic):
        return v.conductor, v.terms, v.den
    if isinstance(v, int):
        return 1, ((0, v),), 1
    return 1, ((0, v.numerator),), v.denominator


def _exponents(form: tuple, big: int, den: int) -> list[tuple[int, int]]:
    """The terms of a coefficient's ``_coords`` form as integer multiples of
    exponents mod big, over the denominator den (a multiple of its own)."""
    n, terms, d = form
    step, scale = big // n, den // d
    return [(i * step, x * scale) for i, x in terms]


# The bound of ``_built``, set from measured traffic (kernel results,
# distinct keys): the 288 products pairs 14760 and 915, sameprod at (4, 3)
# 92868 and 1684, at (5, 2) 121176 and 5384, at (5, 3) 1218180 and 11402, at
# (6, 2) 846087 and 24961. At (6, 2), 4096 entries add 3 MB of peak RSS to a
# per-call table, 8192 add 6 MB, and no bound 16 MB.
_BUILT_MAX = 4096


@lru_cache(maxsize=_BUILT_MAX)
def _built(big: int, den: int, terms: tuple[tuple[int, int], ...]) -> Cyclotomic:
    """The one ``Cyclotomic`` of an accumulated vector of ``_expand_linear``,
    its sorted (exponent, integer) terms mod big over den, for the whole
    process. A result depends on its key alone, so a hit returns what a fresh
    build would; the least recently used key is evicted first."""
    return Cyclotomic(big, _reduced(big, terms), den)


def _expand_linear(coeffs: dict[MultiPartition, Cyclotomic], items_of) -> dict:
    """Apply a linear map given on basis elements by ``items_of`` to the
    coefficients of an element; zero results are dropped. This is every
    basis change of ``to_basis``, and, with ``items_of`` multiplying one
    factor's basis element into the other factor, the bilinear product of
    ``circ_product``.

    Products and sums are integer coordinates over exponents mod L, L the lcm
    of the conductors that the coefficients and the map's values carry
    (rational values count as conductor 1), over one common
    denominator. Each distinct map value (by identity; ``rows`` keeps every
    one alive for the call) is decomposed and written at L once. Each
    accumulated vector goes through ``_built``, the process-wide
    ``lru_cache`` keyed by (L, den, sorted exponent terms) that holds at most
    ``_BUILT_MAX`` results, least recently used evicted first: a vector is
    reduced and built only when the cache does not hold it, so equal results
    share one object across calls.

    One term needs no arithmetic: if ``coeffs`` is a single basis element
    times a rational c, and every value of its row (which lists each target
    once) is stored at one conductor e that c's conductor divides, then L = e
    and each result is that value times c, already in its stored form at e.
    Each distinct value is scaled once, and for c = 1 the results are the
    row's own values, as for a class indicator's column of the transpose of T.
    """
    rows = [(c, items_of(mp)) for mp, c in coeffs.items()]
    forms: dict[int, tuple] = {}
    for _, items in rows:
        for _, v in items:
            if id(v) not in forms:
                forms[id(v)] = _coords(v)
    big = math.lcm(*(c.conductor for c, _ in rows), *(n for n, _, _ in forms.values()))
    if len(rows) == 1 and rows[0][0].is_rational() and all(n == big for n, _, _ in forms.values()):
        c, items = rows[0]
        a, b = c.rational_value().as_integer_ratio()
        scaled: dict[int, Cyclotomic] = {}
        out = {}
        for target, v in items:
            w = scaled.get(id(v))
            if w is None:
                w = scaled[id(v)] = v._scaled(a, b) if isinstance(v, Cyclotomic) else c * v
            if w:
                out[target] = w
        return out
    den_c = math.lcm(*(c.den for c, _ in rows))
    den_v = math.lcm(*(d for _, _, d in forms.values()))
    exps = {key: _exponents(form, big, den_v) for key, form in forms.items()}
    acc: dict[MultiPartition, dict[int, int]] = {}
    for c, items in rows:
        cterms = _exponents(_coords(c), big, den_c)
        for target, v in items:
            _mul_into(acc.setdefault(target, {}), cterms, exps[id(v)], big)
    den = den_c * den_v
    out = {}
    for key, vec in acc.items():
        v = _built(big, den, tuple(sorted(vec.items())))
        if v:
            out[key] = v
    return out


_STEPS = {
    ("s_theta", "p_theta"): _schur_items,
    ("p_theta", "s_theta"): _power_to_schur_items,
    ("p_theta", "P"): _power_theta_to_P_items,
    ("P", "p_theta"): _P_to_power_theta_items,
}


def to_basis(elem: SymElement, basis: str) -> SymElement:
    """Rewrite an element in another basis; every route is exact: ``pi``
    shares the coefficients of ``P``, and other routes pass through ``p_theta``.
    Each step writes its results at the lcm of the conductors of the
    coefficients it reads and of the transition values it uses: a class
    indicator's ``p_theta`` image lies at the class's column conductor e_mu.
    A step from one basis element times a rational c, over a row at one
    conductor that c's conductor divides, reads its results off the row
    (``_expand_linear``): the indicator's image holds the transpose's own
    values."""
    if basis not in _BASIS_KIND:
        raise ValueError(f"unknown basis {basis!r}")
    if elem.basis == basis:
        return elem
    src, dst = ("P" if b == "pi" else b for b in (elem.basis, basis))
    coeffs = elem.coeffs
    if src != dst:
        for step in [(src, dst)] if (src, dst) in _STEPS else [(src, "p_theta"), ("p_theta", dst)]:
            coeffs = _expand_linear(coeffs, _STEPS[step])
    return SymElement(elem.q, elem.n, basis, coeffs)


def ch(elem: SymElement) -> SymElement:
    """The characteristic map: class indicators to Hall-Littlewood elements."""
    if elem.basis != "pi":
        raise ValueError("the characteristic map applies to class functions")
    return to_basis(elem, "P")


def ch_inverse(elem: SymElement) -> SymElement:
    """Inverse characteristic map, from any symmetric-function basis."""
    if elem.basis == "pi":
        raise ValueError("already a class function")
    return to_basis(elem, "pi")


class CharLabel(Record):
    """Label of an irreducible character: a character-orbit multipartition."""

    __slots__ = _fields = ("lam",)
    lam: MultiPartition

    def __init__(self, lam: MultiPartition) -> None:
        if lam.kind != "theta":
            raise ValueError("character labels are indexed by character orbits")
        _set(self, "lam", lam)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not CharLabel:
            return NotImplemented
        return self.lam is other.lam or self.lam == other.lam

    def __hash__(self) -> int:
        return hash(self.lam)

    @property
    def q(self) -> int:
        return self.lam.q

    @property
    def n(self) -> int:
        return mp_size(self.lam)

    def tau(self) -> int:
        """Sign exponent parity floor(n/2) + n(lam) of the character."""
        st = mp_stats(self.lam)
        return (st.size // 2 + st.n) % 2

    def sign(self) -> int:
        return -1 if self.tau() else 1

    def to_json(self) -> list:
        return self.lam.to_json()


def expand_schur(label: CharLabel | MultiPartition) -> SymElement:
    """Schur element of a label expanded in the Hall-Littlewood basis."""
    lam = label.lam if isinstance(label, CharLabel) else label
    return to_basis(schur(lam), "P")


def _row_cols(label: CharLabel, transition) -> tuple[dict[int, dict[int, int]], int]:
    """One table row keyed by column index: sign(label) times the sum over
    torus labels gamma of (chi(gamma)/z_gamma) T(gamma), summed per column as
    integer coordinates at the column's conductor, over the returned
    denominator. ``transition(gamma)`` gives T(gamma) as (column index,
    terms) pairs; ``char_table`` passes rows it holds for one support at a
    time."""
    items = _schur_items(label.lam)
    den = math.lcm(*(c.denominator for _, c in items))
    sign = label.sign()
    acc: dict[int, dict[int, int]] = {}
    for gamma, c in items:
        f = sign * c.numerator * (den // c.denominator)
        for col, terms in transition(gamma):
            out = acc.setdefault(col, {})
            for i, x in terms:
                out[i] = out.get(i, 0) + f * x
    return acc, den


def character_row(label: CharLabel | MultiPartition) -> SymElement:
    """The irreducible character of a label, as coefficients on class
    indicators: sign(label) times its Schur element in the Hall-Littlewood
    basis, the direct route for any single row, where ``char_table`` fills
    most entries by Galois action. Every coefficient is written at one
    conductor, the lcm of the column conductors of T(gamma)'s support over
    the torus labels gamma of the Schur expansion."""
    label = label if isinstance(label, CharLabel) else CharLabel(label)
    return SymElement(label.q, label.n, "pi", expand_schur(label).scale(label.sign()).coeffs)


@cache
def _galois_orbit(q: int, size: int, residue: int, a: int) -> tuple[int, int]:
    """(size, residue) of the orbit through residue * a at level size, for a
    unit a mod N_size. Point and character orbits carry the same (size,
    residue) labels, so one cache serves rows and columns."""
    orb = orbit_of("phi", CyclicElt(q, size, residue * a))
    return orb.size, orb.residue


def _galois_label(lam: MultiPartition, a: int) -> MultiPartition:
    """The label lam^a: every orbit residue multiplied by the unit a, each
    block moved to the canonical orbit through the product, which is cached
    per (size, residue, a). The character of a label lam^a is sigma_a
    applied to the character of lam, sigma_a the automorphism
    zeta -> zeta^a, and so is any character's value at a class mu^a applied
    to its value at mu.

    >>> x = OrbitId("theta", 2, 3, 1)
    >>> _galois_label(MultiPartition("theta", 2, ((x, (1,)),)), 2).orbits()[0].residue
    2
    """
    key = []
    for orb, part in lam.assignment:
        size, residue = _galois_orbit(lam.q, orb.size, orb.residue, a)
        key += [(size, residue, p) for p in part]
    return mp_of_blocks(lam.kind, lam.q, tuple(sorted(key)))


def _orbit_plan(q: int, n: int) -> tuple[tuple[int, int], ...]:
    """For each index of the degree-n table, rows and columns alike, the
    index it is filled from and a unit b mod N, N = ``conductor(q, n)``,
    such that the label there is that index's label to the b, and the class
    there that index's class to the b. The first of each Galois orbit is its
    representative, (its own index, 1); the rest of the orbit is reached from
    it through generators of the units mod N.

    One plan serves both kinds: ``enumerate_mp`` orders labels and classes
    by the same kind-blind ``MultiPartition.sort_key`` over the same orbit
    labels, and ``_galois_label`` moves only the (size, residue, part) keys.
    """
    mps = enumerate_mp(q, "theta", n)
    index = {mp: i for i, mp in enumerate(mps)}
    big = conductor(q, n)
    gens = _unit_generators(big)
    plan: list = [None] * len(mps)
    for i, mp in enumerate(mps):
        if plan[i] is not None:
            continue
        plan[i] = (i, 1)
        frontier = [(mp, 1)]
        while frontier:
            mu, a = frontier.pop()
            for g in gens:
                j = index[_galois_label(mu, g)]
                if plan[j] is None:
                    b = a * g % big
                    plan[j] = (i, b)
                    frontier.append((mps[j], b))
    return tuple(plan)


class CharTable(Record):
    """Full character table of one unitary group, with exact entries.

    Each entry is stored at its column's conductor e_mu, the lcm of the
    orders of the class's point orbits, and equal entries are one shared
    object. A block of one row per Galois orbit of labels, at one column per
    Galois orbit of classes, is computed from T, held for one support of
    labels at a time; every entry is an image of a block entry under some
    sigma_ab (see ``char_table``). ``rendered`` writes every
    entry at the common conductor N of degree n, as all output does.
    """

    __slots__ = _fields = ("n", "q", "rows", "cols", "values", "class_sizes")
    n: int
    q: int
    rows: tuple[CharLabel, ...]
    cols: tuple[MultiPartition, ...]
    values: tuple[tuple[Cyclotomic, ...], ...]
    class_sizes: tuple[int, ...]

    def rendered(self, render) -> list[list]:
        """The grid of values lifted to the common conductor N and passed
        through ``render``: each distinct entry object is lifted and rendered
        once, and equal objects share the result."""
        big = conductor(self.q, self.n)
        out: dict[int, object] = {}
        for row in self.values:
            for v in row:
                if id(v) not in out:
                    out[id(v)] = render(v.lift(big))
        return [[out[id(v)] for v in row] for row in self.values]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "q": self.q,
            "rows": [label.to_json() for label in self.rows],
            "cols": [mu.to_json() for mu in self.cols],
            "values": self.rendered(Cyclotomic.to_json),
            "class_sizes": list(self.class_sizes),
        }


def char_table(n: int, q: int) -> CharTable:
    """Character table of the rank-n unitary group over the q^2 field.

    Rows and columns follow the canonical multipartition order; the columns
    are the ``enumerate_mp`` objects. Galois action moves both: for units a
    and b, sigma_ab(chi_lam(mu)) = chi_lam^a(mu^b), with sigma_u
    zeta_e^i -> zeta_e^(i u) at each column conductor e_mu. One plan
    (``_orbit_plan``) gives every row and every column its orbit
    representative and unit, so the block of representative rows at
    representative columns is summed from T, and T is built only for the
    torus labels and columns the block uses. The block rows are built
    grouped by support, a label's orbits and block sizes, which its torus
    labels share: ``_build_T`` builds T once per torus label, held only while
    its support's rows are summed and never entering the cache of T. Then one
    fill sets the entry at the row of lam^a and the column of mu^b to
    sigma_ab of the block entry at (lam, mu). ``character_row`` stays the
    direct route for any single row. Entries are stored at e_mu, and equal
    entries are one shared object: the first ``Cyclotomic`` built of each
    distinct (conductor, terms, den).
    """
    if n < 1:
        raise ValueError("rank must be positive")
    rows = tuple(CharLabel(lam) for lam in enumerate_mp(q, "theta", n))
    cols, _, conductors = _columns(q, n)
    # entries are interned here, not in ``_value``, so the build leaves the
    # process caches as it found them
    interned: dict[tuple, Cyclotomic] = {}
    # the same coordinates recur across rows: each is brought to its stored
    # form once
    seen: dict[tuple, Cyclotomic] = {}

    def entry(e: int, coords: dict[int, int], den: int) -> Cyclotomic:
        raw = (e, den, *coords.items())
        v = seen.get(raw)
        if v is None:
            c = Cyclotomic(e, coords, den)
            v = seen[raw] = interned.setdefault((c.conductor, c.terms, c.den), c)
        return v

    plan = _orbit_plan(q, n)
    reps = {i for i, (r, _) in enumerate(plan) if r == i}
    # a row sums T only over torus labels of its own support, and the
    # supports split the torus labels, so T is held for one support at a time
    supports: dict[tuple, list[int]] = {}
    for i in sorted(reps):
        key = tuple((orb.size, orb.residue, sum(bl)) for orb, bl in rows[i].lam.assignment)
        supports.setdefault(key, []).append(i)
    held: dict[MultiPartition, tuple] = {}

    def transition(gamma: MultiPartition) -> tuple:
        t = held.get(gamma)
        if t is None:
            t = held[gamma] = _build_T(gamma, reps)
        return t

    block: dict[int, list[Cyclotomic | None]] = {}
    for group in supports.values():
        held.clear()
        for i in group:
            acc, den = _row_cols(rows[i], transition)
            block[i] = [entry(e, acc.get(k, {}), den) if k in reps else None
                        for k, e in enumerate(conductors)]
    held.clear()
    # entry (i, k) is sigma_u of block entry (r, c), u = ab mod e_k, for row
    # plan (r, a) and column plan (c, b); sigma_u fixes rational entries, and
    # each (entry, u) image is computed once
    images: dict[tuple[int, int], Cyclotomic] = {}
    values: list[tuple[Cyclotomic, ...]] = []
    for r, a in plan:
        src = block[r]
        row = []
        for (c, b), e in zip(plan, conductors):
            v = src[c]
            if not v.is_rational():
                u = a * b % e
                w = images.get((id(v), u))
                if w is None:
                    coords = _reduced(e, ((j * u % e, x) for j, x in v.terms))
                    w = images[id(v), u] = entry(e, coords, v.den)
                v = w
            row.append(v)
        values.append(tuple(row))
    sizes = tuple(class_size(mu) for mu in cols)
    return CharTable(n, q, rows, cols, tuple(values), sizes)


def dl_character(nu: MultiPartition) -> SymElement:
    """Torus-induced virtual character of a torus label, in the image basis.

    The label encodes a torus and a character of it as a character-orbit
    multipartition. The element is computed two independent ways: through the
    power-sum identification with sign (-1)^(size - blocks), and as the direct
    sum of character values against Green polynomial values over all torus
    elements; the two must agree.
    """
    if nu.kind != "theta":
        raise ValueError("torus labels are indexed by character orbits")
    n = mp_size(nu)
    blocks = sum(len(lam) for _, lam in nu.assignment)
    sign = (-1) ** (n - blocks)
    direct = to_basis(power_theta(nu), "P").scale(sign)
    if _dl_torus_sum(nu) != direct:
        raise AssertionError("torus-sum and power-sum routes disagree")
    return direct


def _dl_torus_sum(nu: MultiPartition) -> SymElement:
    """Sum character values times Green values over all torus elements.

    Each element's class label is read as its sorted block key, one
    (orbit size, orbit residue, part) per block, and its Green row is the
    one ``_green_cols`` holds for T, keyed by column index."""
    q = nu.q
    n = mp_size(nu)
    cols, _, _ = _columns(q, n)
    blocks = [(orb, c) for orb, lam in nu.assignment for c in lam]
    levels = [orb.size * c for orb, c in blocks]
    chars = [CyclicElt(q, orb.size, orb.residue) for orb, _ in blocks]
    acc: dict[MultiPartition, Cyclotomic] = {}
    for residues in iproduct(*(range(level_order(q, m)) for m in levels)):
        elts = [CyclicElt(q, m, k) for m, k in zip(levels, residues)]
        theta = Cyclotomic.from_rational(1)
        for xi, x in zip(chars, elts):
            theta = theta * char_eval(xi, x)
        key = []
        for m, x in zip(levels, elts):
            orb = orbit_of("phi", x)
            key.append((orb.size, orb.residue, m // orb.size))
        for k, g in _green_cols(q, tuple(sorted(key)))[1]:
            _acc(acc, cols[k], theta * g)
    return SymElement(q, n, "P", acc)


def ls_sum(label: CharLabel | MultiPartition) -> SymElement:
    """Weighted sum of torus-induced characters attached to a label.

    Summing the virtual characters of all torus labels with matching
    semisimple type, each weighted by a symmetric group character value over
    the cycle-type centralizer, and applying the closed-form sign, yields an
    irreducible character: the table row of the conjugate label.
    """
    label = label if isinstance(label, CharLabel) else CharLabel(label)
    lam = label.lam
    q = label.q
    n = label.n
    tau_prime = mp_stats(mp_conjugate(lam)).n + sum(
        orb.size * (sum(bl) // 2) for orb, bl in lam.assignment
    )
    exponent = tau_prime + n // 2 + sum(
        sum(bl) + orb.size * -(-sum(bl) // 2) for orb, bl in lam.assignment
    )
    acc: dict[MultiPartition, Cyclotomic] = {}
    for tl in torus_data(lam).labels:
        w = math.prod(sn_char(lam.part(orb), tl.gamma.part(orb)) for orb in lam.orbits())
        if not w:
            continue
        ell = sum(len(bl) for _, bl in tl.gamma.assignment)
        factor = Fraction(w * (-1) ** (n - ell), tl.z)
        for mu, v in _power_theta_to_P_items(tl.gamma):
            _acc(acc, mu, v * factor)
    return SymElement(q, n, "P", acc).scale((-1) ** exponent)


def inner_product(a: SymElement, b: SymElement) -> Cyclotomic:
    """Hermitian inner product, conjugating the second argument.

    Indicator classes are orthogonal with squared norm one over the
    centralizer order; irreducible character rows are orthonormal.
    """
    if a.q != b.q:
        raise ValueError("mismatched q")
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} vs {b.n}")
    left, right = to_basis(a, "P"), to_basis(b, "P")
    total = Cyclotomic.zero(1)
    for mu, u in left.coeffs.items():
        v = right.coeffs.get(mu)
        if v:
            total = total + u * v.conj() * Fraction(1, centralizer_order(mu))
    return total


@cache
def _hall_options(p1: Partition, p2: Partition, t: int) -> tuple[tuple[Partition, int], ...]:
    """The nonzero Hall polynomials g_{p1 p2}^lam evaluated at t, as (lam,
    value) pairs: the options of one orbit shared by both classes."""
    opts = []
    for lam in partitions_of(sum(p1) + sum(p2)):
        g = hall_polynomial(p1, p2, lam).eval(t)
        if g:
            if g.denominator != 1:
                raise AssertionError("Hall polynomial evaluation is not integral")
            opts.append((lam, int(g)))
    return tuple(opts)


def _hall_combine_items(
    mu1: MultiPartition, mu2: MultiPartition
) -> tuple[tuple[MultiPartition, int], ...]:
    """Structure constants of the Ennola product on a pair of classes, each
    class the shared ``mp_of_blocks`` object of its sorted block key."""
    q = mu1.q
    orbs = sorted(set(mu1.orbits()) | set(mu2.orbits()), key=lambda o: (o.size, o.residue))
    per_orbit = []
    for orb in orbs:
        p1, p2 = mu1.part(orb), mu2.part(orb)
        opts = _hall_options(p1, p2, (-q) ** orb.size) if p1 and p2 else ((p1 or p2, 1),)
        per_orbit.append(
            [(tuple((orb.size, orb.residue, c) for c in reversed(lam)), g) for lam, g in opts]
        )
    out = []
    for combo in iproduct(*per_orbit):
        key = tuple(b for blocks, _ in combo for b in blocks)
        out.append((mp_of_blocks("phi", q, key), math.prod(g for _, g in combo)))
    out.sort(key=lambda kv: kv[0].sort_key())
    return tuple(out)


def star_product(a: SymElement, b: SymElement) -> SymElement:
    """Ennola product of class functions: Hall polynomial structure
    constants evaluated at (-q)^d combine the two class supports."""
    if a.q != b.q:
        raise ValueError("mismatched q")
    left = to_basis(a, "pi")
    right = to_basis(b, "pi")
    acc: dict[MultiPartition, Cyclotomic] = {}
    for mu1, c1 in left.coeffs.items():
        for mu2, c2 in right.coeffs.items():
            c12 = c1 * c2
            for lam, g in _hall_combine_items(mu1, mu2):
                _acc(acc, lam, c12 * g)
    return SymElement(a.q, a.n + b.n, "pi", acc)


@cache
def _concat(g1: MultiPartition, g2: MultiPartition) -> MultiPartition:
    """The torus label gamma_1 gamma_2: the shared ``mp_of_blocks`` object of
    the sorted union of the two labels' (size, residue, part) blocks, built
    once per ordered pair of labels for the whole process."""
    key = [(orb.size, orb.residue, c) for g in (g1, g2) for orb, lam in g.assignment for c in lam]
    return mp_of_blocks(g1.kind, g1.q, tuple(sorted(key)))


def circ_product(a: SymElement, b: SymElement) -> SymElement:
    """Deligne-Lusztig induction product of class functions.

    Computed through the characteristic map: both factors are written in
    character-orbit power sums, where the product is concatenation of parts,
    and the result stays in that basis (``p_theta``); ``to_basis`` rewrites
    it where another basis is wanted. Agreement with the Ennola product is a
    theorem, and a genuine cross-check, because this route never touches
    Hall polynomials.

    The product is ``_expand_linear`` of the left factor's coefficients
    under the map sending gamma_1 to the sum of c_2 p_(gamma_1 gamma_2) over
    the right factor's terms c_2 p_gamma_2: results live at the lcm L of the
    conductors the two factors' coefficients carry, each reduced once and
    written at L; for two class indicators, L is lcm(e_mu1, e_mu2).
    gamma_1 gamma_2 is the multipartition of the sorted union of the two
    labels' (size, residue, part) blocks. It comes from ``_concat``, a
    process-wide ``functools`` cache keyed by the two labels (gamma_1,
    gamma_2) that holds one entry per ordered label pair multiplied, so each
    concatenation is sorted and looked up once per process.
    """
    if a.q != b.q:
        raise ValueError("mismatched q")
    left, right = (to_basis(elem, "p_theta").coeffs for elem in (a, b))

    def times_right(g1: MultiPartition) -> list:
        return [(_concat(g1, g2), v) for g2, v in right.items()]

    return SymElement(a.q, a.n + b.n, "p_theta", _expand_linear(left, times_right))
