"""Closed-form degree data and distinguished character decompositions.

Character degrees of the unitary groups obey a hook product formula: the
degree at a label of size n is q^{n(lambda')} times the product of
t^i - (-1)^i over i <= n, divided by one such factor per cell at its
orbit-weighted hook length h, at t = q. Each factor splits as
t^k - (-1)^k = (-1)^k prod_{d | k} Phi_d(-t), so the quotient is a sign
times prod_d Phi_d(-t)^{m_d}, where m_d counts the i <= n divisible by d
minus the hooks divisible by d. The cyclotomic polynomials are distinct
irreducibles of Q[t], so the quotient is a polynomial exactly when every
m_d >= 0; that is checked for every label, and degrees are then evaluated
in integers without any polynomial division.

Summing degrees over all labels, or over labels whose conjugate is even,
telescopes to short closed forms. Three distinguished nonnegative
decompositions are computed here as well: the Gelfand-Graev character
(height-one labels), the symplectic permutation character (even-conjugate
labels), and the Deligne-Lusztig model tiling all labels by the odd-column
count of their conjugates.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from ._record import Record
from .charmap import CharLabel, SymElement, circ_product, to_basis
from .exactnum import Cyclotomic, QPoly, cyclotomic_polynomial
from .multipartitions import MultiPartition, enumerate_mp, mp_conjugate, mp_size, mp_stats
from .partitions import Partition, conjugate, hooks, n_stat, partitions_of, z_stat
from .symfunc import SymFn1, delta_spec, lr_coefficient, psi_poly


def weighted_hooks(lam: MultiPartition) -> list[int]:
    """Hook lengths of all cells, each scaled by its orbit's degree."""
    return [
        orb.size * h for orb, block in lam.assignment for h in hooks(block)
    ]


def cyclotomic_factors(n: int, hooks: tuple[int, ...]) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Sign and Phi_d(-t) multiplicities of the hook quotient.

    The quotient of prod_{i <= n} (t^i - (-1)^i) by prod_h (t^h - (-1)^h)
    is sign * prod_d Phi_d(-t)^{m_d}, with m_d the number of i <= n that d
    divides minus the number of hooks that d divides. Returns the sign and
    the positive (d, m_d) in increasing d. Raises AssertionError if some
    m_d < 0 (the quotient is then not a polynomial) or if the leading
    coefficient is not positive.

    >>> cyclotomic_factors(3, (3, 2, 1))
    (1, ())
    >>> cyclotomic_factors(2, (1, 1))
    (-1, ((2, 1),))
    """
    mult = {d: n // d for d in range(1, n + 1)}
    for h in hooks:
        for d in range(1, h + 1):
            if h % d == 0:
                mult[d] = mult.get(d, 0) - 1
    short = [d for d, m in mult.items() if m < 0]
    if short:
        raise AssertionError(f"hook quotient is not a polynomial: Phi_{min(short)} is left over")
    sign = (-1) ** (n * (n + 1) // 2 + sum(hooks))
    # Phi_1(-t) and Phi_2(-t) lead with -1; every other Phi_d has even degree
    if sign * (-1) ** (mult.get(1, 0) + mult.get(2, 0)) < 0:
        raise AssertionError("hook quotient has a negative leading coefficient")
    return sign, tuple((d, m) for d, m in sorted(mult.items()) if m)


@cache
def hook_factors(lam: MultiPartition) -> tuple[int, int, tuple[tuple[int, int], ...]]:
    """The degree polynomial of a label as (sign, a, ((d, m_d), ...)).

    The polynomial is sign * t^a * prod_d Phi_d(-t)^{m_d}, with a the n
    statistic of the conjugate; see ``cyclotomic_factors``.
    """
    sign, factors = cyclotomic_factors(mp_size(lam), tuple(weighted_hooks(lam)))
    return sign, mp_stats(mp_conjugate(lam)).n, factors


@cache
def _cyclotomic_at(d: int, x: int) -> int:
    """The integer Phi_d(x)."""
    return sum(c * x**k for k, c in enumerate(cyclotomic_polynomial(d)))


def degree_polynomial(lam: MultiPartition) -> QPoly:
    """Character degree as a polynomial in q: the hook product formula.

    Multiplied out from ``hook_factors`` in integer coefficients: the sign,
    then each Phi_d(-t) m_d times, shifted by t^a. Every label's m_d >= 0 is
    checked there, which is exactly the condition that the hook quotient is
    a polynomial.
    """
    sign, a, factors = hook_factors(lam)
    coeffs = [sign]
    for d, m in factors:
        phi = [c * (-1) ** k for k, c in enumerate(cyclotomic_polynomial(d))]
        for _ in range(m):
            out = [0] * (len(coeffs) + len(phi) - 1)
            for i, c in enumerate(coeffs):
                for j, b in enumerate(phi):
                    out[i + j] += c * b
            coeffs = out
    return QPoly({a + k: c for k, c in enumerate(coeffs) if c})


def degree_hook(lam: CharLabel | MultiPartition) -> int:
    """Integer character degree by the hook product formula.

    Evaluates sign * q^a * prod_d Phi_d(-q)^{m_d} from ``hook_factors`` in
    integers, so every m_d >= 0 is checked, and rejects a value that is
    not positive.

    >>> from ennola.orbits import OrbitId
    >>> triv = OrbitId("theta", 2, 1, 0)
    >>> degree_hook(MultiPartition("theta", 2, ((triv, (2,)),)))
    2
    """
    lam = lam.lam if isinstance(lam, CharLabel) else lam
    sign, a, factors = hook_factors(lam)
    value = sign * lam.q**a * math.prod(_cyclotomic_at(d, -lam.q) ** m for d, m in factors)
    if value <= 0:
        raise AssertionError(f"hook degree came out as {value}")
    return value


class DegreeRecord(Record):
    """Degree data of one irreducible character."""

    __slots__ = _fields = (
        "label", "polynomial", "degree", "tau_parity", "height", "odd_conjugate"
    )
    label: CharLabel
    polynomial: QPoly
    degree: int
    tau_parity: int
    height: int
    odd_conjugate: int


def degree_records(m: int, q: int) -> tuple[DegreeRecord, ...]:
    """Degree data for every character of the rank-m group, canonical order."""
    out = []
    for lam in enumerate_mp(q, "theta", m):
        label = CharLabel(lam)
        out.append(
            DegreeRecord(
                label,
                degree_polynomial(lam),
                degree_hook(lam),
                label.tau(),
                mp_stats(lam).height,
                mp_stats(mp_conjugate(lam)).odd,
            )
        )
    return tuple(out)


def degree_sum_closed_form(m: int, q: int) -> int:
    """(q+1) q^2 (q^3+1) q^4 ... with +1 on the odd exponents.

    >>> degree_sum_closed_form(3, 2)
    108
    """
    return math.prod(q**i + (i % 2) for i in range(1, m + 1))


def degree_sum(m: int, q: int) -> int:
    """Sum of all character degrees; hook route checked against closed form."""
    total = sum(degree_hook(lam) for lam in enumerate_mp(q, "theta", m))
    if total != degree_sum_closed_form(m, q):
        raise AssertionError("hook degree sum disagrees with the closed form")
    return total


def _schur_fn(block: Partition) -> SymFn1:
    return SymFn1(sum(block), "s", {block: QPoly({0: 1})})


def degree_sum_delta(m: int, q: int) -> int:
    """Degree sum through the power-sum specialization homomorphism.

    Each degree is the specialized Schur product scaled by the group-order
    factors; no hook lengths and no table columns are involved.
    """
    scale = psi_poly(m).eval(-q)
    total = Fraction(0)
    for lam in enumerate_mp(q, "theta", m):
        value = Fraction(1)
        for orb, block in lam.assignment:
            value *= delta_spec(_schur_fn(block), orb.size, q)
        total += (-1) ** CharLabel(lam).tau() * value * scale
    if total.denominator != 1:
        raise AssertionError("specialized degree sum is not an integer")
    return int(total)


def is_even_conjugate(lam: MultiPartition) -> bool:
    """Whether every column length of every block is even."""
    return all(
        all(c % 2 == 0 for c in conjugate(block)) for _, block in lam.assignment
    )


def even_degree_sum_closed_form(m: int, q: int) -> int:
    """(q+1) q^2 (q^3+1) ... q^{2m-2} (q^{2m-1}+1).

    >>> even_degree_sum_closed_form(2, 2)
    108
    """
    return math.prod(q**i + (i % 2) for i in range(1, 2 * m))


def even_degree_sum(m: int, q: int) -> int:
    """Sum of degrees over even-conjugate labels of the rank-2m group."""
    total = sum(
        degree_hook(lam)
        for lam in enumerate_mp(q, "theta", 2 * m)
        if is_even_conjugate(lam)
    )
    if total != even_degree_sum_closed_form(m, q):
        raise AssertionError("even-conjugate degree sum disagrees with the closed form")
    return total


def _unit_element(q: int, basis: str) -> SymElement:
    empty = MultiPartition("theta", q, ())
    return SymElement(q, 0, basis, {empty: Cyclotomic.from_rational(1)})


def gelfand_graev(m: int, q: int) -> SymElement:
    """Image of the Gelfand-Graev character under the characteristic map.

    Computed and returned in its power-sum form (``p_theta``): the signed sum
    of p over all labels weighted by inverse centralizer orders in the
    blockwise symmetric groups. Its Schur expansion is checked to have
    exactly the height-one labels as support, each with coefficient
    (-1)^(m // 2); callers that need that basis rewrite it with ``to_basis``.
    """
    if m < 0:
        raise ValueError("rank must be nonnegative")
    if m == 0:
        return _unit_element(q, "p_theta")
    sign = (-1) ** (m // 2)
    coeffs = {}
    for gamma in enumerate_mp(q, "theta", m):
        z = math.prod(z_stat(block) for _, block in gamma.assignment)
        coeffs[gamma] = Cyclotomic.from_rational(Fraction(sign, z))
    element = SymElement(q, m, "p_theta", coeffs)
    for lam, v in to_basis(element, "s_theta").coeffs.items():
        ht = mp_stats(lam).height
        expect = sign if ht == 1 else 0
        if not (v.is_rational() and v.rational_value() == expect):
            raise AssertionError("Gelfand-Graev support is not the height-one labels")
    return element


def irreducible_multiplicities(elem: SymElement) -> dict[CharLabel, Fraction]:
    """Multiplicity of each irreducible character in a class function.

    Reads the Schur expansion and flips each coefficient by the label's sign;
    requires all coefficients rational.
    """
    out = {}
    for lam, v in to_basis(elem, "s_theta").coeffs.items():
        if not v.is_rational():
            raise AssertionError("non-rational Schur coefficient")
        label = CharLabel(lam)
        out[label] = label.sign() * v.rational_value()
    return out


def sp_induction(r: int, q: int, allow_even_q: bool = False) -> SymElement:
    """Image of the symplectic permutation character of the rank-2r group.

    Defined as the sum of the characters at even-conjugate labels, the known
    decomposition for odd q. For even q that decomposition is conjectural;
    pass allow_even_q to compute it anyway.
    """
    if r < 0:
        raise ValueError("rank must be nonnegative")
    if q % 2 == 0 and not allow_even_q:
        raise ValueError("the symplectic decomposition is proven for odd q only")
    if r == 0:
        return _unit_element(q, "s_theta")
    coeffs = {}
    for lam in enumerate_mp(q, "theta", 2 * r):
        if is_even_conjugate(lam):
            coeffs[lam] = Cyclotomic.from_rational(CharLabel(lam).sign())
    return SymElement(q, 2 * r, "s_theta", coeffs)


class ModelDecomposition(Record):
    """The model: one induced piece per r, tiling all labels exactly once."""

    __slots__ = _fields = ("m", "q", "parts")
    m: int
    q: int
    parts: tuple[tuple[int, tuple[CharLabel, ...]], ...]

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "q": self.q,
            "parts": [
                {"r": r, "labels": [label.to_json() for label in labels]}
                for r, labels in self.parts
            ],
        }


def model_decomposition(m: int, q: int, allow_even_q: bool = False) -> ModelDecomposition:
    """Decompose each Gelfand-Graev times symplectic product into irreducibles.

    For each r with 0 <= 2r <= m the induction product of the rank-(m-2r)
    Gelfand-Graev character with the symplectic permutation character of the
    rank-2r group decomposes with multiplicity one into the labels whose
    conjugate has odd-column count m-2r; the union over r covers every label
    of size m exactly once.
    """
    if m < 1:
        raise ValueError("rank must be positive")
    if q % 2 == 0 and not allow_even_q:
        raise ValueError("the model is proven for odd q only")
    parts = []
    seen: dict[CharLabel, int] = {}
    for r in range(m // 2 + 1):
        gg = gelfand_graev(m - 2 * r, q)
        sp = sp_induction(r, q, allow_even_q=allow_even_q)
        product = circ_product(gg, sp)
        mults = irreducible_multiplicities(product)
        support = []
        for label, mult in sorted(mults.items(), key=lambda kv: kv[0].lam.sort_key()):
            if not mult:
                continue
            if mult != 1:
                raise AssertionError(f"model multiplicity {mult} at {label}")
            odd = mp_stats(mp_conjugate(label.lam)).odd
            if odd != m - 2 * r:
                raise AssertionError("model support has the wrong odd-column count")
            support.append(label)
            seen[label] = seen.get(label, 0) + 1
        parts.append((r, tuple(support)))
    everything = {CharLabel(lam) for lam in enumerate_mp(q, "theta", m)}
    if set(seen) != everything or any(v != 1 for v in seen.values()):
        raise AssertionError("model does not tile the labels exactly once")
    return ModelDecomposition(m, q, tuple(parts))


def charprod_parity(mu: CharLabel | MultiPartition, nu: CharLabel | MultiPartition) -> bool:
    """Whether the induction product of two characters is again a character.

    True exactly when every label with a positive blockwise
    Littlewood-Richardson coefficient matches the parity of
    n(mu) + n(nu) + size(mu) * size(nu).
    """
    mu = mu.lam if isinstance(mu, CharLabel) else mu
    nu = nu.lam if isinstance(nu, CharLabel) else nu
    if mu.q != nu.q:
        raise ValueError("mismatched q")
    target = (mp_stats(mu).n + mp_stats(nu).n + mp_size(mu) * mp_size(nu)) % 2
    orbs = sorted(set(mu.orbits()) | set(nu.orbits()), key=lambda o: (o.size, o.residue))
    # Blockwise the n statistic is additive over the product, so check each
    # orbit's reachable-column parities independently against the target.
    parities = {0}
    for orb in orbs:
        p1, p2 = mu.part(orb), nu.part(orb)
        opts = {
            orb.size * n_stat(lam) % 2
            for lam in partitions_of(sum(p1) + sum(p2))
            if lr_coefficient(p1, p2, lam) > 0
        }
        parities = {(a + b) % 2 for a in parities for b in opts}
    return parities == {target}
