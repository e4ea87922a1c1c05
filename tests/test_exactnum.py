import math
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ennola.exactnum import Cyclotomic, QPoly, _unit_generators, cyclotomic_polynomial, euler_phi


@pytest.mark.parametrize("n", [1, 2, 4, 8, 9, 16, 27, 50, 392, 560, 3315])
def test_unit_generators_generate_the_units(n: int):
    gens = _unit_generators(n)
    reached, frontier = {1 % n}, [1 % n]
    while frontier:
        x = frontier.pop()
        for g in gens:
            if x * g % n not in reached:
                reached.add(x * g % n)
                frontier.append(x * g % n)
    assert reached == {k for k in range(n) if math.gcd(k, n) == 1}


def test_qpoly_eval_basic():
    assert QPoly({0: 1, 1: -1}).eval(-2) == 3
    assert QPoly({2: 1, 1: -1}).eval(-2) == 6
    assert QPoly({0: 1}).eval(7) == 1


def test_qpoly_constants_hash_as_numbers():
    assert QPoly() == 0 and hash(QPoly()) == hash(0)
    assert QPoly({0: Fraction(3, 2)}) == Fraction(3, 2)
    assert hash(QPoly({0: Fraction(3, 2)})) == hash(Fraction(3, 2))
    assert hash(QPoly.const(7)) == hash(7)
    assert QPoly.gen() != 1


def test_qpoly_eval_laurent():
    p = QPoly({-2: 3, 1: Fraction(1, 2)})
    assert p.eval(2) == Fraction(3, 4) + 1
    with pytest.raises(ZeroDivisionError):
        p.eval(0)


def test_qpoly_eval_multiplicative():
    rng = random.Random(7)
    for _ in range(50):
        p = QPoly({rng.randint(-3, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)})
        q = QPoly({rng.randint(-3, 4): Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4)})
        v = Fraction(rng.randint(1, 7), rng.randint(1, 3)) * rng.choice([1, -1])
        assert (p * q).eval(v) == p.eval(v) * q.eval(v)
        assert (p + q).eval(v) == p.eval(v) + q.eval(v)


def test_qpoly_algebra():
    t = QPoly.gen()
    assert (1 - t) * (1 + t) == 1 - t**2
    assert (t - 1).shift(-1) == 1 - t.inverse_variable()
    assert ((t + 1) ** 3).coeffs == ((0, 1), (1, 3), (2, 3), (3, 1))
    assert QPoly({0: 0}) == QPoly()
    assert not QPoly()
    assert QPoly({5: 2, -1: 1}).min_exp() == -1
    with pytest.raises(ValueError):
        (t + 1).constant_value()
    assert QPoly({0: Fraction(3, 2)}).constant_value() == Fraction(3, 2)


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_cyclotomic_polynomial_divides_xn_minus_1():
    for n in range(1, 31):
        phi = cyclotomic_polynomial(n)
        assert len(phi) - 1 == euler_phi(n)
        # multiply Phi_d over all d | n and compare with x^n - 1
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                pd = cyclotomic_polynomial(d)
                prod = [
                    sum(prod[i] * pd[k - i] for i in range(len(prod)) if 0 <= k - i < len(pd))
                    for k in range(len(prod) + len(pd) - 1)
                ]
        expect = [0] * (n + 1)
        expect[0], expect[n] = -1, 1
        assert prod == expect


def test_cyclotomic_polynomial_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in [*range(1, 601), 3465, 7280]:
        expect = sympy.cyclotomic_poly(n, x, polys=True).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expect), n


def test_zeta_basics():
    z3 = Cyclotomic.root(3)
    assert z3 + z3 * z3 + 1 == 0
    assert z3 * (z3 * z3) == 1
    assert Cyclotomic.root(9).conj() == Cyclotomic.root(9, 8)
    assert Cyclotomic.root(2) == -1
    assert z3 * (z3 * z3) == Cyclotomic.from_rational(1, 3)
    assert z3.conj() == Cyclotomic.root(3, 2)
    assert (z3 == Cyclotomic.root(3, 4)) is True


def test_zeta_order_reduction():
    for n in range(1, 31):
        z = Cyclotomic.root(n)
        assert z**n == 1
        assert Cyclotomic.root(n, n + 3) == Cyclotomic.root(n, 3)


def _random_cyclo(rng: random.Random, n: int) -> Cyclotomic:
    d = euler_phi(n)
    return Cyclotomic(n, [rng.randint(-4, 4) for _ in range(d)], rng.randint(1, 5))


def test_cyclotomic_ring_axioms():
    rng = random.Random(11)
    for n in (5, 8, 12):
        for _ in range(25):
            a, b, c = (_random_cyclo(rng, n) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert a * b == b * a
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c


def test_conj_is_ring_involution():
    rng = random.Random(13)
    for _ in range(25):
        a, b = _random_cyclo(rng, 12), _random_cyclo(rng, 12)
        assert a.conj().conj() == a
        assert (a * b).conj() == a.conj() * b.conj()
        assert (a + b).conj() == a.conj() + b.conj()
        norm = a * a.conj()
        assert norm == norm.conj()


def _parts(v: Cyclotomic) -> tuple[int, tuple[int, ...], int]:
    """The stored form, compared without going through ``__eq__``."""
    return v.conductor, v.num, v.den


def test_conductor_mismatch_and_lift():
    z3, z4 = Cyclotomic.root(3), Cyclotomic.root(4)
    # mixed conductors are combined at the lcm, here 12
    assert _parts(z3 * z4) == _parts(Cyclotomic.root(12, 7))
    assert _parts(z3 + z4) == _parts(Cyclotomic.root(12, 4) + Cyclotomic.root(12, 3))
    assert _parts(z4 - z3) == _parts(Cyclotomic.root(12, 3) - Cyclotomic.root(12, 4))
    # a rational operand at another conductor still moves the result to the lcm
    assert _parts(z3 * Cyclotomic.from_rational(2, 4)) == _parts(Cyclotomic.root(12, 4) * 2)
    a, b = z3.lift(12), z4.lift(12)
    assert a.conductor == b.conductor == 12
    assert a == Cyclotomic.root(12, 4)
    assert b == Cyclotomic.root(12, 3)
    assert z3.lift(9) == Cyclotomic.root(9, 3)
    with pytest.raises(ValueError):
        z4.lift(9)
    # equality across conductors goes through the common lift
    assert Cyclotomic.from_rational(5, 3) == Cyclotomic.from_rational(5, 4)


def test_hash_follows_equality_across_conductors():
    rng = random.Random(5)
    for n in (1, 3, 4, 5, 8, 9, 12):
        d = euler_phi(n)
        for _ in range(6):
            a = Cyclotomic(n, [rng.randint(-4, 4) for _ in range(d)], rng.randint(1, 5))
            for step in (2, 3, 5):
                b = a.lift(n * step)
                assert a == b and hash(a) == hash(b)
    assert Cyclotomic.from_rational(1, 3) == Cyclotomic.from_rational(1)
    assert hash(Cyclotomic.from_rational(1, 3)) == hash(Cyclotomic.from_rational(1))
    assert hash(Cyclotomic.from_rational(1, 5)) == hash(1)
    third = Fraction(-2, 3)
    assert hash(Cyclotomic.from_rational(third, 7)) == hash(third)
    z5 = Cyclotomic.root(5)
    assert hash(z5 + z5**2 + z5**3 + z5**4) == hash(-1)
    z3 = Cyclotomic.root(3)
    for other in (Cyclotomic.root(12, 4), Cyclotomic.root(36, 12), Cyclotomic.root(9, 3)):
        assert other == z3 and hash(other) == hash(z3)
    assert len({z3, Cyclotomic.root(12, 4), z3 * z3 * z3, Cyclotomic.from_rational(1, 4)}) == 2


def test_equality_across_conductors_builds_no_lift(monkeypatch):
    calls = []
    real = Cyclotomic.lift

    def counted(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(Cyclotomic, "lift", counted)
    # sqrt(-3)/3 = (1 + 2 zeta_3)/3, and zeta_3 = zeta_12^4 = zeta_12^2 - 1 at 12
    at3 = Cyclotomic(3, {0: 1, 1: 2}, 3)
    at12 = Cyclotomic(12, {0: -1, 2: 2}, 3)
    assert at3 == at12 and at12 == at3
    assert at3 != Cyclotomic(12, {0: -1, 2: 2}, 6)
    assert at3 != Cyclotomic(12, {0: -2, 2: 4}, 3)
    assert at3 != Cyclotomic(12, {0: 1, 2: 2}, 3)
    # (2 + 2 zeta_3)/3 lifts to the coordinates {2: 2} at 12, which share
    # the factor 2 with the other side's denominator 4 in the unequal case
    two_thirds = Cyclotomic(3, {0: 2, 1: 2}, 3)
    assert two_thirds == Cyclotomic(12, {2: 2}, 3)
    assert two_thirds != Cyclotomic(12, {2: 1}, 4)
    assert two_thirds * Fraction(3, 8) == Cyclotomic(12, {2: 1}, 4)
    # zeta_3 / 2 against zeta_4 / 2 and against -zeta_12^4 / 2
    z3, z4 = Cyclotomic.root(3), Cyclotomic.root(4)
    assert z3 * Fraction(1, 2) != z4 * Fraction(1, 2)
    assert z3 * Fraction(1, 2) != Cyclotomic.root(12, 4) * Fraction(-1, 2)
    assert z3 * Fraction(1, 2) == Cyclotomic.root(36, 12) * Fraction(1, 2)
    # a rational value compares by its stored form at any conductor
    assert Cyclotomic.from_rational(Fraction(5, 6), 4) == Cyclotomic.from_rational(Fraction(5, 6), 9)
    assert Cyclotomic.from_rational(Fraction(5, 6), 4) != Cyclotomic.from_rational(Fraction(5, 3), 9)
    assert Cyclotomic.from_rational(-1, 4) != z3 and z3 != Cyclotomic.from_rational(-1, 4)
    assert Cyclotomic.zero(3) == Cyclotomic.zero(4) != z4
    assert calls == []


def test_rational_detection_and_json():
    z5 = Cyclotomic.root(5)
    v = z5 + z5**2 + z5**3 + z5**4
    assert v.is_rational() and v.rational_value() == -1
    half = Cyclotomic.from_rational(Fraction(1, 2), 5)
    doc = (half + z5).to_json()
    assert doc["N"] == 5
    assert doc["coeffs"][0] == [1, 2] and doc["coeffs"][1] == [1, 1]
    with pytest.raises(ValueError):
        z5.rational_value()


def test_approx_embedding():
    z8 = Cyclotomic.root(8)
    assert abs(z8.approx() - complex(math.sqrt(0.5), math.sqrt(0.5))) < 1e-12


# ------------------------------------------------ mixed-conductor properties

CONDUCTORS = (1, 3, 4, 5, 8, 9, 12, 15)


@st.composite
def cyclotomics(draw) -> Cyclotomic:
    n = draw(st.sampled_from(CONDUCTORS))
    d = euler_phi(n)
    num = draw(st.lists(st.integers(-6, 6), min_size=d, max_size=d))
    return Cyclotomic(n, num, draw(st.integers(1, 6)))


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), st.sampled_from((operator.add, operator.sub, operator.mul)))
def test_mixed_conductor_ops_live_at_lcm(a, b, op):
    m = math.lcm(a.conductor, b.conductor)
    out = op(a, b)
    assert out.conductor == m
    assert _parts(out) == _parts(op(a.lift(m), b.lift(m)))


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), st.sampled_from((1, 2, 3, 5)))
def test_conj_commutes_with_lift(a, step):
    m = a.conductor * step
    assert _parts(a.lift(m).conj()) == _parts(a.conj().lift(m))


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_equal_values_hash_alike_across_conductors(a, c):
    b = (a + c) - c
    assert b.conductor == math.lcm(a.conductor, c.conductor)
    assert a == b and hash(a) == hash(b)
    if a == c:
        assert hash(a) == hash(c)


@settings(max_examples=60, deadline=None)
@given(cyclotomics(), cyclotomics(), st.sampled_from((1, 2, 3, 5)))
def test_equality_agrees_with_the_common_lift(a, b, step):
    m = math.lcm(a.conductor, b.conductor) * step
    assert (a == b) == (_parts(a.lift(m)) == _parts(b.lift(m)))
    assert (b.lift(m) == a) == (a == b)
    lifted = a.lift(a.conductor * step)
    assert a == lifted and lifted == a


@settings(max_examples=30, deadline=None)
@given(cyclotomics(), cyclotomics())
def test_mixed_conductor_product_matches_sympy(a, b):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    m = math.lcm(a.conductor, b.conductor)

    def at_m(v: Cyclotomic):
        step = m // v.conductor
        return sum(sympy.Rational(c, v.den) * x ** (i * step) for i, c in enumerate(v.num))

    reduced = sympy.rem(sympy.expand(at_m(a) * at_m(b)), sympy.cyclotomic_poly(m, x), x)
    poly = sympy.Poly(reduced, x)
    expect = [poly.coeff_monomial(x**i) for i in range(euler_phi(m))]
    out = a * b
    assert out.conductor == m
    assert [sympy.Rational(c, out.den) for c in out.num] == expect


# ------------------------------------------------------ sparse stored form


def test_euler_phi_is_degree_of_cyclotomic_polynomial():
    for n in range(1, 301):
        assert euler_phi(n) == len(cyclotomic_polynomial(n)) - 1
    with pytest.raises(ValueError):
        euler_phi(0)


def _assert_canonical(v: Cyclotomic) -> None:
    indices = [i for i, _ in v.terms]
    assert indices == sorted(set(indices))
    assert all(0 <= i < euler_phi(v.conductor) for i in indices)
    assert all(c != 0 for _, c in v.terms)
    assert v.den > 0
    assert math.gcd(v.den, *(c for _, c in v.terms)) == 1


def test_constructor_forms_and_rejections():
    v = Cyclotomic(5, {3: 4, 0: -2, 1: 0}, -6)
    assert v.terms == ((0, 1), (3, -2)) and v.den == 3
    assert v.num == (1, 0, 0, -2)
    assert Cyclotomic(5, [1, 0, 0, -2], 3) == v
    assert Cyclotomic.zero(7).terms == () and Cyclotomic(7, {0: 0}, 5).den == 1
    with pytest.raises(ValueError):
        Cyclotomic(5, {4: 1})
    with pytest.raises(ValueError):
        Cyclotomic(5, [1, 2, 3])
    with pytest.raises(ZeroDivisionError):
        Cyclotomic(5, {0: 1}, 0)


@settings(max_examples=60, deadline=None)
@given(
    cyclotomics(),
    cyclotomics(),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from((1, 2, 3, 5)),
)
def test_results_are_canonical(a, b, r, step):
    outs = (a + b, a - b, a * b, -a, a + r, r - a, a * r, a.conj(), a.lift(a.conductor * step))
    for out in (a, b) + outs:
        _assert_canonical(out)


@settings(max_examples=60, deadline=None)
@given(cyclotomics())
def test_dense_constructor_round_trips(v):
    for w in (Cyclotomic(v.conductor, v.num, v.den), Cyclotomic(v.conductor, dict(v.terms), v.den)):
        assert (w.conductor, w.terms, w.den) == (v.conductor, v.terms, v.den)
        assert repr(w) == repr(v)


def _sympy_coords(sympy, powers, m: int) -> list:
    """Coordinates at conductor m of the sum of c x^e over (e, c), by sympy."""
    x = sympy.Symbol("x")
    expr = sum((c * x**e for e, c in powers), sympy.Integer(0))
    poly = sympy.Poly(sympy.rem(sympy.expand(expr), sympy.cyclotomic_poly(m, x), x), x)
    return [poly.coeff_monomial(x**i) for i in range(euler_phi(m))]


def _sympy_value(sympy, v: Cyclotomic) -> list:
    return [sympy.Rational(c, v.den) for c in v.num]


@settings(max_examples=30, deadline=None)
@given(cyclotomics(), st.sampled_from((1, 2, 3, 5)))
def test_conj_and_lift_match_sympy(a, step):
    sympy = pytest.importorskip("sympy")
    n, m = a.conductor, a.conductor * step
    terms = [(i, sympy.Rational(c, a.den)) for i, c in a.terms]
    assert _sympy_value(sympy, a.conj()) == _sympy_coords(
        sympy, [(-i % n, c) for i, c in terms], n
    )
    lifted = a.lift(m)
    assert lifted.conductor == m
    assert _sympy_value(sympy, lifted) == _sympy_coords(
        sympy, [(i * step, c) for i, c in terms], m
    )
