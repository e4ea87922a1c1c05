"""Symmetric functions in one variable set: S_n characters, Kostka-Foulkes,
Green polynomials, basis conversions, and products.

Bases handled: power sums "p", Schur functions "s", Hall-Littlewood "hl"
(the P basis, coefficients in Q(t) represented as Laurent polynomials).
Conventions:
    s_lam = sum_nu omega^lam(nu)/z_nu * p_nu
    s_lam = sum_mu K_{lam mu}(t) * P_mu
    p_nu  = sum_mu X_nu^mu(t) * P_mu,  X_nu^mu(t) = Q_nu^mu(1/t) t^{n(mu)}
"""

from __future__ import annotations

import functools
from fractions import Fraction

from ._record import Record, _set
from .exactnum import QPoly
from .partitions import Partition, dominates, n_stat, partitions_of, z_stat

__all__ = [
    "SymFn1",
    "sn_char",
    "kostka_foulkes",
    "green_poly",
    "convert",
    "multiply",
    "lr_coefficient",
    "hall_polynomial",
    "delta_spec",
    "psi_poly",
    "charge",
]

def _as_qpoly(c: QPoly | Fraction | int) -> QPoly:
    return c if isinstance(c, QPoly) else QPoly({0: c})


class SymFn1(Record):
    """Homogeneous symmetric function: basis tag, degree, and a sparse coefficient map."""

    __slots__ = _fields = ("degree", "basis", "coeffs")
    degree: int
    basis: str
    coeffs: dict[Partition, QPoly]

    def __init__(
        self, degree: int, basis: str, coeffs: dict[Partition, QPoly | Fraction | int]
    ) -> None:
        if basis not in ("p", "s", "hl"):
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for lam, c in coeffs.items():
            if sum(lam) != degree:
                raise ValueError(f"{lam} does not have size {degree}")
            c = _as_qpoly(c)
            if c:
                clean[lam] = c
        _set(self, "degree", degree)
        _set(self, "basis", basis)
        _set(self, "coeffs", clean)

    def __add__(self, other: SymFn1) -> SymFn1:
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise ValueError("degree/basis mismatch")
        out = dict(self.coeffs)
        for lam, c in other.coeffs.items():
            out[lam] = out.get(lam, QPoly()) + c
        return SymFn1(self.degree, self.basis, out)

    def scale(self, c: QPoly | Fraction | int) -> SymFn1:
        c = _as_qpoly(c)
        return SymFn1(self.degree, self.basis, {lam: v * c for lam, v in self.coeffs.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymFn1):
            return NotImplemented
        return (self.degree, self.basis, self.coeffs) == (other.degree, other.basis, other.coeffs)


def _remove_border_strips(lam: Partition, r: int):
    """Yield (mu, sign) over removals of a border strip of size r from lam.

    Uses beta-numbers: strips of size r correspond to b in the beta-set with
    b - r >= 0 not in the set; the sign is (-1)^(rows spanned - 1).
    """
    ell = len(lam)
    beta = [lam[i] + ell - 1 - i for i in range(ell)]
    bset = set(beta)
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        height = sum(1 for c in beta if nb < c < b)
        newbeta = sorted((bset - {b}) | {nb}, reverse=True)
        mu = tuple(x - (ell - 1 - i) for i, x in enumerate(newbeta))
        while mu and mu[-1] == 0:
            mu = mu[:-1]
        yield mu, -1 if height % 2 else 1


@functools.cache
def sn_char(lam: Partition, nu: Partition) -> int:
    """Irreducible S_n character omega^lam at cycle type nu (Murnaghan-Nakayama).

    >>> sn_char((1, 1), (2,))
    -1
    >>> sn_char((2, 1), (1, 1, 1))
    2
    """
    if sum(lam) != sum(nu):
        raise ValueError("size mismatch")
    if not nu:
        return 1
    total = 0
    for mu, sign in _remove_border_strips(lam, nu[0]):
        total += sign * sn_char(mu, nu[1:])
    return total


def charge(word: tuple[int, ...]) -> int:
    """Lascoux-Schutzenberger charge of a word with partition content.

    Repeatedly extract a standard subword: take the rightmost 1, then for each
    next letter the first occurrence to the right, cyclically. Within the
    subword, the index of letter r+1 exceeds that of r exactly when r+1 sits
    to the left of r; charge accumulates the indices over all extractions.
    """
    word = list(word)
    total = 0
    while word:
        top = max(word)
        n = len(word)
        pos = next(i for i in range(n - 1, -1, -1) if word[i] == 1)
        positions = [pos]
        for letter in range(2, top + 1):
            p = (pos + 1) % n
            while word[p] != letter:
                p = (p + 1) % n
                if p == (pos + 1) % n:
                    raise ValueError("word content is not a partition")
            positions.append(p)
            pos = p
        index = 0
        for r in range(1, top):
            if positions[r] < positions[r - 1]:
                index += 1
            total += index
        for p in sorted(positions, reverse=True):
            del word[p]
    return total


def _strip_extensions(prev: Partition, outer: Partition, r: int):
    """Yield partitions tau with prev <= tau <= outer and tau/prev a horizontal r-strip."""
    rows = len(outer)
    prev_padded = tuple(prev) + (0,) * (rows - len(prev))

    def rec(i: int, remaining: int, acc: list[int]):
        if i == rows:
            if remaining == 0:
                tau = tuple(acc)
                while tau and tau[-1] == 0:
                    tau = tau[:-1]
                yield tau
            return
        low = prev_padded[i]
        high = min(outer[i], prev_padded[i - 1] if i > 0 else outer[i], low + remaining)
        if i > 0:
            high = min(high, acc[i - 1])
        for v in range(low, high + 1):
            yield from rec(i + 1, remaining - (v - low), acc + [v])

    yield from rec(0, r, [])


def _ssyt_reading_words(lam: Partition, mu: Partition):
    """Yield the reading word (rows right to left, top row first) of each SSYT
    of shape lam and content mu, via chains of horizontal strips."""
    if sum(lam) != sum(mu):
        return

    def rec(k: int, shape: Partition, chain: list[Partition]):
        if k == len(mu):
            if shape == lam:
                # rebuild tableau rows from the chain of shapes
                word = []
                for i in range(len(lam)):
                    row = []
                    for step in range(len(mu)):
                        a = chain[step][i] if i < len(chain[step]) else 0
                        b = chain[step + 1][i] if i < len(chain[step + 1]) else 0
                        row.extend([step + 1] * (b - a))
                    word.extend(reversed(row))
                yield tuple(word)
            return
        for tau in _strip_extensions(shape, lam, mu[k]):
            yield from rec(k + 1, tau, chain + [tau])

    yield from rec(0, (), [()])


@functools.cache
def kostka_foulkes(lam: Partition, mu: Partition) -> QPoly:
    """Kostka-Foulkes polynomial K_{lam mu}(t) = sum over SSYT(lam, mu) of t^charge.

    >>> kostka_foulkes((2,), (1, 1))
    QPoly(t)
    >>> kostka_foulkes((1, 1), (1, 1))
    QPoly(1)
    """
    if sum(lam) != sum(mu):
        raise ValueError("size mismatch")
    if not dominates(lam, mu):
        return QPoly()
    out: dict[int, int] = {}
    for word in _ssyt_reading_words(lam, mu):
        c = charge(word)
        out[c] = out.get(c, 0) + 1
    return QPoly(out)


def _x_green(nu: Partition, mu: Partition) -> QPoly:
    """X_nu^mu(t) = sum_lam omega^lam(nu) K_{lam mu}(t), the p -> hl transition entry."""
    out = QPoly()
    for lam in partitions_of(sum(nu)):
        w = sn_char(lam, nu)
        if w:
            out = out + kostka_foulkes(lam, mu) * w
    return out


@functools.cache
def green_poly(nu: Partition, mu: Partition) -> QPoly:
    """Classical Green polynomial Q_nu^mu(t) = t^{n(mu)} X_nu^mu(1/t).

    >>> green_poly((1, 1), (1, 1))
    QPoly(1 + t)
    >>> green_poly((2,), (1, 1))
    QPoly(1 + -1*t)
    """
    if sum(nu) != sum(mu):
        raise ValueError("size mismatch")
    q = _x_green(nu, mu).inverse_variable().shift(n_stat(mu))
    if q.min_exp() < 0:
        raise AssertionError("Green polynomial came out non-polynomial")
    return q


@functools.cache
def _hl_to_s_row(mu: Partition) -> tuple[tuple[Partition, QPoly], ...]:
    """P_mu = sum_lam c_lam s_lam, by unitriangular back-substitution of the Kostka matrix."""
    out: dict[Partition, QPoly] = {mu: QPoly({0: 1})}
    for nu in partitions_of(sum(mu)):
        if nu != mu and dominates(mu, nu):
            k = kostka_foulkes(mu, nu)
            if k:
                for lam, c in _hl_to_s_row(nu):
                    out[lam] = out.get(lam, QPoly()) - k * c
    return tuple(sorted((lam, c) for lam, c in out.items() if c))


def _convert_step(f: SymFn1, target: str) -> SymFn1:
    n = f.degree
    out: dict[Partition, QPoly] = {}

    def add(lam: Partition, c: QPoly):
        if c:
            out[lam] = out.get(lam, QPoly()) + c

    if f.basis == "s" and target == "p":
        for lam, c in f.coeffs.items():
            for nu in partitions_of(n):
                w = sn_char(lam, nu)
                if w:
                    add(nu, c * Fraction(w, z_stat(nu)))
    elif f.basis == "p" and target == "s":
        for nu, c in f.coeffs.items():
            for lam in partitions_of(n):
                w = sn_char(lam, nu)
                if w:
                    add(lam, c * w)
    elif f.basis == "s" and target == "hl":
        for lam, c in f.coeffs.items():
            for mu in partitions_of(n):
                k = kostka_foulkes(lam, mu)
                if k:
                    add(mu, c * k)
    elif f.basis == "hl" and target == "s":
        for mu, c in f.coeffs.items():
            for lam, k in _hl_to_s_row(mu):
                add(lam, c * k)
    else:
        raise ValueError(f"no direct step {f.basis} -> {target}")
    return SymFn1(n, target, out)


_PATHS = {
    ("p", "s"): ("s",),
    ("s", "p"): ("p",),
    ("s", "hl"): ("hl",),
    ("hl", "s"): ("s",),
    ("p", "hl"): ("s", "hl"),
    ("hl", "p"): ("s", "p"),
}


def convert(f: SymFn1, target_basis: str) -> SymFn1:
    """Change of basis among {p, s, hl}; round trips are exact identities."""
    if target_basis == f.basis:
        return f
    g = f
    for step in _PATHS[(f.basis, target_basis)]:
        g = _convert_step(g, step)
    return g


def multiply(f: SymFn1, g: SymFn1, basis: str | None = None) -> SymFn1:
    """Product computed in the p-basis (power sums concatenate); result in
    ``basis`` (default: p)."""
    fp, gp = convert(f, "p"), convert(g, "p")
    out: dict[Partition, QPoly] = {}
    for nu1, c1 in fp.coeffs.items():
        for nu2, c2 in gp.coeffs.items():
            nu = tuple(sorted(nu1 + nu2, reverse=True))
            c = c1 * c2
            if nu in out:
                out[nu] = out[nu] + c
            else:
                out[nu] = c
    prod = SymFn1(f.degree + g.degree, "p", out)
    return convert(prod, basis) if basis else prod


def lr_coefficient(mu: Partition, nu: Partition, lam: Partition) -> int:
    """Littlewood-Richardson coefficient c_{mu nu}^lam from the s-basis product.

    >>> lr_coefficient((1,), (1,), (3,))
    0
    """
    if sum(mu) + sum(nu) != sum(lam):
        return 0
    prod = multiply(
        SymFn1(sum(mu), "s", {mu: QPoly({0: 1})}),
        SymFn1(sum(nu), "s", {nu: QPoly({0: 1})}),
        basis="s",
    )
    c = prod.coeffs.get(lam, QPoly()).constant_value()
    if c.denominator != 1:
        raise AssertionError("LR coefficient came out non-integral")
    return int(c)


@functools.cache
def _hl_product(mu: Partition, nu: Partition) -> tuple[tuple[Partition, QPoly], ...]:
    """P_mu P_nu in the hl basis: the pairs (lam, f_{mu nu}^lam(t)) with
    nonzero structure constant, sorted by lam. Called with (mu, nu) in sorted
    order, since the product commutes."""
    prod = multiply(
        SymFn1(sum(mu), "hl", {mu: QPoly({0: 1})}),
        SymFn1(sum(nu), "hl", {nu: QPoly({0: 1})}),
        basis="hl",
    )
    return tuple(sorted(prod.coeffs.items()))


def hall_polynomial(mu: Partition, nu: Partition, lam: Partition) -> QPoly:
    """Hall polynomial g_{mu nu}^lam(t), from hl structure constants via
    g(t) = t^{n(lam)-n(mu)-n(nu)} f_{mu nu}^lam(1/t).

    The product P_mu P_nu is computed once per pair {mu, nu} and cached as a
    tuple; each lam reads its structure constant from it.

    >>> hall_polynomial((1,), (1,), (1, 1))
    QPoly(1 + t)
    """
    if sum(mu) + sum(nu) != sum(lam):
        raise ValueError("size mismatch")
    f = next((c for key, c in _hl_product(*sorted((mu, nu))) if key == lam), QPoly())
    g = f.inverse_variable().shift(n_stat(lam) - n_stat(mu) - n_stat(nu))
    if g and (g.min_exp() < 0 or not g.is_integral()):
        raise AssertionError("Hall polynomial came out non-polynomial")
    return g


def psi_poly(r: int) -> QPoly:
    """psi_r(t) = prod_{i=1}^r (1 - t^i)."""
    out = QPoly({0: 1})
    for i in range(1, r + 1):
        out = out * QPoly({0: 1, i: -1})
    return out


def delta_spec(f: SymFn1, orbit_size: int, q: Fraction | int) -> Fraction:
    """The degree-sum specialization homomorphism on power sums:
    p_m -> 1/(q^{d m} - (-1)^{d m}) with d = orbit_size, extended multiplicatively."""
    fp = convert(f, "p")
    q = Fraction(q)
    total = Fraction(0)
    for nu, c in fp.coeffs.items():
        val = c.constant_value()
        for m in nu:
            dm = orbit_size * m
            denom = q**dm - (-1) ** dm
            if denom == 0:
                raise ZeroDivisionError("specialization pole")
            val /= denom
        total += val
    return total
