"""Exact coefficient domains: big rationals, Laurent polynomials over Q, and Q(zeta_N).

Everything here is immutable and pure, so values can be shared freely across
threads and memo caches.
"""

from __future__ import annotations

import cmath
import functools
import math
from fractions import Fraction

from ._record import Record, _set

__all__ = [
    "QPoly",
    "Cyclotomic",
    "cyclotomic_polynomial",
    "euler_phi",
]


def _prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n, ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


@functools.cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of the n-th cyclotomic polynomial Phi_n, little-endian.

    With r the product of the primes dividing n, Phi_n(x) = Phi_r(x^(n/r)).
    For squarefree n > 1, Phi_n is the product over divisors d of n of
    (1 - x^d)^mu(n/d), expanded as a power series up to degree phi(n): each
    factor costs one pass over the phi(n) + 1 coefficients.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    >>> cyclotomic_polynomial(12)
    (1, 0, -1, 0, 1)
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    if n == 1:
        return (-1, 1)
    primes = _prime_divisors(n)
    rad = math.prod(primes)
    if rad != n:
        base = cyclotomic_polynomial(rad)
        step = n // rad
        out = [0] * ((len(base) - 1) * step + 1)
        out[::step] = base
        return tuple(out)
    deg = math.prod(p - 1 for p in primes)
    series = [1] + [0] * deg
    divisors = [(1, len(primes) % 2)]  # (d, 1 if mu(n/d) = -1 else 0)
    for p in primes:
        divisors += [(d * p, 1 - odd) for d, odd in divisors]
    for d, odd in divisors:
        if odd:  # divide by 1 - x^d
            for k in range(d, deg + 1):
                series[k] += series[k - d]
        else:  # multiply by 1 - x^d
            for k in range(deg, d - 1, -1):
                series[k] -= series[k - d]
    return tuple(series)


@functools.cache
def euler_phi(n: int) -> int:
    """Euler totient, n times the product of (1 - 1/p) over the primes p dividing n.

    >>> [euler_phi(n) for n in (1, 2, 12, 560)]
    [1, 1, 4, 192]
    """
    if n < 1:
        raise ValueError("conductor must be positive")
    primes = _prime_divisors(n)
    return n // math.prod(primes) * math.prod(p - 1 for p in primes)


@functools.cache
def _unit_generators(n: int) -> tuple[int, ...]:
    """Generators of the unit group (Z/n)^*, the Galois group of Q(zeta_n).

    Each prime power p^k exactly dividing n contributes the generators of
    (Z/p^k)^*: a primitive root for odd p (one mod p that stays primitive
    mod p^2), and -1 and 5 for p = 2. The Chinese remainder theorem lifts
    each to the unit that is 1 modulo the other prime powers.

    >>> _unit_generators(560)
    (351, 421, 337, 241)
    """
    gens = []
    for p in _prime_divisors(n):
        pk = p
        while n % (pk * p) == 0:
            pk *= p
        if p == 2:
            local = [-1, 5][: (pk >= 4) + (pk >= 8)]
        else:
            orders = [(p - 1) // r for r in _prime_divisors(p - 1)]
            g = next(g for g in range(2, p) if all(pow(g, k, p) != 1 for k in orders))
            local = [g + p if pk > p and pow(g, p - 1, p * p) == 1 else g]
        rest = n // pk
        gens += [(1 + rest * ((g - 1) * pow(rest, -1, pk) % pk)) % n for g in local]
    return tuple(gens)


def _mobius(n: int) -> int:
    primes = _prime_divisors(n)
    return (-1) ** len(primes) if math.prod(primes) == n else 0


@functools.cache
def _trace_weights(n: int) -> tuple[Fraction, ...]:
    """Weight i = Tr(zeta_n^i) / phi(n) for 0 <= i < phi(n), the trace down to Q.

    With g = gcd(i, n), zeta_n^i is a primitive (n/g)-th root of unity, whose
    trace is mu(n/g) phi(n)/phi(n/g). Dividing by phi(n) makes the trace of
    a value the same at every conductor it can be written at.
    """
    out = []
    for i in range(euler_phi(n)):
        r = n // math.gcd(i, n)
        out.append(Fraction(_mobius(r), euler_phi(r)))
    return tuple(out)


@functools.cache
def _power_rows(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """Row e = the nonzero (index, coefficient) pairs of x^e modulo Phi_n,
    for 0 <= e < max(n, 2*phi(n) - 1).

    Each row is the previous one shifted up by one, with x^phi(n) replaced
    by x^phi(n) - Phi_n, so a row costs what its nonzero terms cost.
    """
    phi = cyclotomic_polynomial(n)
    d = len(phi) - 1
    low = [(i, c) for i, c in enumerate(phi[:d]) if c]
    rows = []
    row: dict[int, int] = {0: 1}
    for _ in range(max(n, 2 * d - 1)):
        rows.append(tuple(sorted(row.items())))
        top = row.pop(d - 1, 0)
        row = {i + 1: c for i, c in row.items()}
        if top:
            for i, c in low:
                v = row.get(i, 0) - top * c
                if v:
                    row[i] = v
                else:
                    row.pop(i, None)
    return tuple(rows)


class QPoly(Record):
    """Laurent polynomial over Q in one variable t.

    Stored as a sorted tuple of (exponent, coefficient) pairs with no zero
    coefficients; exponents may be negative.

    >>> p = QPoly({0: 1, 1: -1})
    >>> p.eval(-2)
    Fraction(3, 1)
    >>> (p * p).eval(-2)
    Fraction(9, 1)
    """

    __slots__ = _fields = ("coeffs",)
    coeffs: tuple[tuple[int, Fraction], ...]

    def __init__(self, coeffs: dict[int, Fraction | int] | None = None):
        items = []
        for e, c in sorted((coeffs or {}).items()):
            c = Fraction(c)
            if c:
                items.append((e, c))
        _set(self, "coeffs", tuple(items))

    def __reduce__(self) -> tuple:
        return QPoly, (dict(self.coeffs),)

    @staticmethod
    def gen() -> QPoly:
        """The variable t."""
        return QPoly({1: 1})

    @staticmethod
    def const(c: Fraction | int) -> QPoly:
        return QPoly({0: c})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: QPoly | int | Fraction) -> QPoly:
        if not isinstance(other, QPoly):
            other = QPoly.const(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs:
            out[e] = out.get(e, Fraction(0)) + c
        return QPoly(out)

    __radd__ = __add__

    def __neg__(self) -> QPoly:
        return QPoly({e: -c for e, c in self.coeffs})

    def __sub__(self, other: QPoly | int | Fraction) -> QPoly:
        return self + (-other if isinstance(other, QPoly) else QPoly.const(-Fraction(other)))

    def __rsub__(self, other: int | Fraction) -> QPoly:
        return QPoly.const(other) - self

    def __mul__(self, other: QPoly | int | Fraction) -> QPoly:
        if not isinstance(other, QPoly):
            other = QPoly.const(other)
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs:
            for e2, c2 in other.coeffs:
                e = e1 + e2
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return QPoly(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> QPoly:
        if k < 0:
            raise ValueError("negative powers: use shift/inverse_variable on monomials")
        out = QPoly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QPoly.const(other)
        if not isinstance(other, QPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        if self.min_exp() == self.max_exp() == 0:
            return hash(self.constant_value())
        return hash(self.coeffs)

    def shift(self, k: int) -> QPoly:
        """Multiply by t^k (k may be negative)."""
        return QPoly({e + k: c for e, c in self.coeffs})

    def inverse_variable(self) -> QPoly:
        """Substitute t -> 1/t."""
        return QPoly({-e: c for e, c in self.coeffs})

    def eval(self, v: Fraction | int) -> Fraction:
        """Evaluate at v exactly; raises ZeroDivisionError at v = 0 with negative exponents."""
        v = Fraction(v)
        total = Fraction(0)
        for e, c in self.coeffs:
            total += c * v**e
        return total

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for _, c in self.coeffs)

    def min_exp(self) -> int:
        return self.coeffs[0][0] if self.coeffs else 0

    def max_exp(self) -> int:
        return self.coeffs[-1][0] if self.coeffs else 0

    def constant_value(self) -> Fraction:
        """The value of a constant Laurent polynomial, error otherwise."""
        if not self.coeffs:
            return Fraction(0)
        if self.coeffs != ((0, self.coeffs[0][1]),):
            raise ValueError("not a constant polynomial")
        return self.coeffs[0][1]

    def __repr__(self) -> str:
        if not self.coeffs:
            return "QPoly(0)"
        parts = []
        for e, c in self.coeffs:
            if e == 0:
                parts.append(str(c))
            elif e == 1:
                parts.append(f"{c}*t" if c != 1 else "t")
            else:
                parts.append(f"{c}*t^{e}" if c != 1 else f"t^{e}")
        return "QPoly(" + " + ".join(parts) + ")"


def _rational(v: int | Fraction) -> int | Fraction:
    """An exact rational operand; ints and Fractions pass through unconverted."""
    return v if isinstance(v, (int, Fraction)) else Fraction(v)


def _reduced(n: int, powers) -> dict[int, int]:
    """Coordinates of the sum of c x^e over the (e, c) pairs, modulo Phi_n.

    Entries may be zero; the ``Cyclotomic`` constructor drops them.
    """
    rows = _power_rows(n)
    acc: dict[int, int] = {}
    get = acc.get
    for e, c in powers:
        for k, r in rows[e]:
            acc[k] = get(k, 0) + c * r
    return acc


def _stored_form(coords: dict[int, int], den: int) -> tuple[tuple[tuple[int, int], ...], int]:
    """The (terms, den) a ``Cyclotomic`` stores for the coordinates over den:
    the nonzero (index, coordinate) pairs sorted by index, over a positive
    denominator that shares no factor with them. Zero is ((), 1).

    >>> _stored_form({2: 0, 1: -4, 0: 2}, -6)
    (((0, -1), (1, 2)), 3)
    """
    terms = sorted([t for t in coords.items() if t[1]])
    if den != 1:
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            terms, den = [(i, -c) for i, c in terms], -den
        g = math.gcd(den, *[c for _, c in terms])
        if g > 1:
            terms = [(i, c // g) for i, c in terms]
            den //= g
    return tuple(terms), den


class Cyclotomic(Record):
    """Element of Q(zeta_N), stored sparsely: the nonzero integer coordinates
    over the power basis 1, zeta, ..., zeta^{phi(N)-1}, as (index, coordinate)
    pairs sorted by index, with one positive common denominator that shares
    no factor with them.

    So a value has one stored form at each conductor, and each operation
    costs what the nonzero terms of its operands cost. The constructor takes
    the coordinates either dense, as ``num`` reads them back, or as a
    mapping from index to coordinate.

    The conductor N is a detail of how a value is written. Sums, differences
    and products of values at different conductors lift both operands to the
    least common multiple, where the result lives; equality reduces their
    difference there without building either lift. ``lift`` is needed only
    to fix the conductor a value is written at, for output.
    The hash depends on the value alone: a rational value hashes as its
    Fraction, any value as its trace to Q divided by the field degree, which
    lifting leaves unchanged. So equal values hash equally at any conductor
    (Galois-conjugate values share a hash).

    >>> z = Cyclotomic.root(3)
    >>> z + z * z
    Cyclotomic(3, (-1, 0), 1)
    >>> (z + z * z).terms
    ((0, -1),)
    >>> z ** 3 == 1
    True
    >>> (z * Cyclotomic.root(4)).conductor
    12
    """

    __slots__ = _fields = ("conductor", "terms", "den")
    conductor: int
    terms: tuple[tuple[int, int], ...]
    den: int

    def __init__(
        self, conductor: int, num: tuple[int, ...] | list[int] | dict[int, int], den: int = 1
    ):
        d = euler_phi(conductor)
        if not isinstance(num, dict):
            if len(num) != d:
                raise ValueError(f"need {d} coordinates at conductor {conductor}, got {len(num)}")
            num = dict(enumerate(num))
        terms, den = _stored_form(num, den)
        if terms and (terms[0][0] < 0 or terms[-1][0] >= d):
            raise ValueError(f"coordinate index out of range at conductor {conductor}")
        _set(self, "conductor", conductor)
        _set(self, "terms", terms)
        _set(self, "den", den)

    def __reduce__(self) -> tuple:
        return Cyclotomic, (self.conductor, dict(self.terms), self.den)

    @property
    def num(self) -> tuple[int, ...]:
        """The dense coordinates, zeros included, built on each read."""
        out = [0] * euler_phi(self.conductor)
        for i, c in self.terms:
            out[i] = c
        return tuple(out)

    @staticmethod
    def zero(conductor: int = 1) -> Cyclotomic:
        return Cyclotomic(conductor, {})

    @staticmethod
    def from_rational(v: Fraction | int, conductor: int = 1) -> Cyclotomic:
        v = Fraction(v)
        return Cyclotomic(conductor, {0: v.numerator}, v.denominator)

    @staticmethod
    def root(conductor: int, power: int = 1) -> Cyclotomic:
        """zeta_N^power."""
        return Cyclotomic(conductor, dict(_power_rows(conductor)[power % conductor]))

    def _align(self, other: Cyclotomic) -> tuple[Cyclotomic, Cyclotomic]:
        """Both operands written at one conductor, the lcm of the two."""
        if other.conductor == self.conductor:
            return self, other
        m = math.lcm(self.conductor, other.conductor)
        return self.lift(m), other.lift(m)

    def _scaled(self, p: int, q: int = 1) -> Cyclotomic:
        """This value times the rational p/q."""
        if p == q == 1:
            return self
        return Cyclotomic(self.conductor, {i: c * p for i, c in self.terms}, self.den * q)

    def __add__(self, other: Cyclotomic | int | Fraction) -> Cyclotomic:
        if isinstance(other, Cyclotomic):
            a, b = self._align(other)
            bterms, bden = b.terms, b.den
        else:
            a, other = self, _rational(other)
            bterms, bden = ((0, other.numerator),), other.denominator
        den = a.den
        if den == bden:
            acc = dict(a.terms)
            for i, c in bterms:
                acc[i] = acc.get(i, 0) + c
        else:
            acc = {i: c * bden for i, c in a.terms}
            for i, c in bterms:
                acc[i] = acc.get(i, 0) + c * den
            den *= bden
        return Cyclotomic(a.conductor, acc, den)

    __radd__ = __add__

    def __neg__(self) -> Cyclotomic:
        return self._scaled(-1)

    def __sub__(self, other: Cyclotomic | int | Fraction) -> Cyclotomic:
        return self + (-other)

    def __rsub__(self, other: int | Fraction) -> Cyclotomic:
        return (-self) + other

    def __mul__(self, other: Cyclotomic | int | Fraction) -> Cyclotomic:
        if not isinstance(other, Cyclotomic):
            other = _rational(other)
            return self._scaled(other.numerator, other.denominator)
        a, b = self._align(other)
        if a.is_rational():
            a, b = b, a
        if b.is_rational():
            return a._scaled(b.terms[0][1] if b.terms else 0, b.den)
        acc = _reduced(
            a.conductor, ((i + j, x * y) for i, x in a.terms for j, y in b.terms)
        )
        return Cyclotomic(a.conductor, acc, a.den * b.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> Cyclotomic:
        if k < 0:
            raise ValueError("negative powers not supported")
        out = Cyclotomic.from_rational(1, self.conductor)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def conj(self) -> Cyclotomic:
        """Complex conjugation, zeta_N -> zeta_N^{-1}."""
        if self.is_rational():
            return self
        n = self.conductor
        return Cyclotomic(n, _reduced(n, ((-i % n, c) for i, c in self.terms)), self.den)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Cyclotomic):
            n, m = self.conductor, other.conductor
            if n == m or self.is_rational() or other.is_rational():
                # one stored form per value and conductor, and a rational
                # value's is the same at every conductor
                return self.terms == other.terms and self.den == other.den
            # self - other at the lcm, over the product of the denominators
            big = math.lcm(n, m)
            a, b = big // n, big // m
            da, db = self.den, other.den
            diff = [(i * a, c * db) for i, c in self.terms]
            diff += [(j * b, -c * da) for j, c in other.terms]
            return not any(_reduced(big, diff).values())
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.rational_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.is_rational():
            return hash(self.rational_value())
        weights = _trace_weights(self.conductor)
        return hash(sum(weights[i] * c for i, c in self.terms) / self.den)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_rational(self) -> bool:
        return not self.terms or self.terms[-1][0] == 0

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return Fraction(self.terms[0][1] if self.terms else 0, self.den)

    def lift(self, conductor: int) -> Cyclotomic:
        """Rewrite at a larger conductor (the current one must divide it)."""
        if conductor == self.conductor:
            return self
        if conductor % self.conductor != 0:
            raise ValueError(f"{self.conductor} does not divide {conductor}")
        if self.is_rational():
            return Cyclotomic(conductor, dict(self.terms), self.den)
        step = conductor // self.conductor
        acc = _reduced(conductor, ((i * step, c) for i, c in self.terms))
        return Cyclotomic(conductor, acc, self.den)

    def to_fractions(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    def to_json(self) -> dict:
        return {
            "N": self.conductor,
            "coeffs": [[c.numerator, c.denominator] for c in self.to_fractions()],
        }

    def approx(self) -> complex:
        """Float embedding zeta_N -> exp(2*pi*i/N); display use only."""
        z = cmath.exp(2j * cmath.pi / self.conductor)
        return sum((c * z**i for i, c in self.terms), 0j) / self.den

    def __repr__(self) -> str:
        return f"Cyclotomic({self.conductor}, {self.num}, {self.den})"
