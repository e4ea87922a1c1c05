import itertools
import random
from fractions import Fraction

import pytest

from _oracles import horizontal_strip
from ennola.exactnum import QPoly
from ennola.partitions import conjugate, n_stat, partitions_of, z_stat
from ennola.symfunc import (
    SymFn1,
    charge,
    convert,
    delta_spec,
    green_poly,
    hall_polynomial,
    kostka_foulkes,
    lr_coefficient,
    multiply,
    psi_poly,
    sn_char,
)

t = QPoly.gen()


def test_sn_char_examples():
    assert sn_char((1, 1), (2,)) == -1
    assert sn_char((2, 1), (1, 1, 1)) == 2
    for nu in partitions_of(5):
        assert sn_char((5,), nu) == 1
        assert sn_char((1, 1, 1, 1, 1), nu) == (-1) ** (5 - len(nu))
    with pytest.raises(ValueError):
        sn_char((2,), (1, 1, 1))


def test_sn_char_orthogonality():
    for n in range(1, 8):
        ps = partitions_of(n)
        for lam, kap in itertools.combinations_with_replacement(ps, 2):
            total = sum(
                Fraction(sn_char(lam, nu) * sn_char(kap, nu), z_stat(nu)) for nu in ps
            )
            assert total == (1 if lam == kap else 0)


def test_charge_words():
    assert charge((2, 1)) == 1
    assert charge((1, 2)) == 0
    assert charge((3, 2, 1)) == 3
    assert charge((1, 1, 3, 2)) == 1


def test_kostka_foulkes_examples():
    assert kostka_foulkes((2,), (1, 1)) == t
    assert kostka_foulkes((1, 1), (1, 1)) == QPoly({0: 1})
    assert kostka_foulkes((1, 1), (2,)) == QPoly()
    assert kostka_foulkes((2, 1), (1, 1, 1)) == t + t**2
    assert kostka_foulkes((3,), (2, 1)) == t
    assert kostka_foulkes((2, 2), (2, 1, 1)) == t
    assert kostka_foulkes((2, 2), (1, 1, 1, 1)) == t**2 + t**4
    assert kostka_foulkes((4,), (1, 1, 1, 1)) == t**6
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert kostka_foulkes(lam, lam) == QPoly({0: 1})
            assert kostka_foulkes(lam, (1,) * n).eval(1) > 0


def _kostka_number_by_pieri(lam, mu):
    # coefficient of s_lam in h_{mu_1} h_{mu_2} ... (an independent route:
    # products of single-row Schur functions through the LR machinery)
    f = SymFn1(0, "s", {(): 1})
    for part in mu:
        f = multiply(f, SymFn1(part, "s", {(part,): 1}), basis="s")
    c = f.coeffs.get(lam, QPoly()).constant_value()
    return int(c)


def test_kostka_at_one_counts_tableaux():
    for n in range(1, 6):
        for lam in partitions_of(n):
            for mu in partitions_of(n):
                assert kostka_foulkes(lam, mu).eval(1) == _kostka_number_by_pieri(lam, mu)


def test_green_poly_examples():
    assert green_poly((1, 1), (1, 1)) == 1 + t
    assert green_poly((2,), (1, 1)) == 1 - t
    for n in range(1, 6):
        assert green_poly((n,), (n,)) == QPoly({0: 1})


def test_green_poly_reexpansion():
    # sum_mu Q_nu^mu(1/t) t^{n(mu)} P_mu must convert back to p_nu
    for n in range(1, 7):
        for nu in partitions_of(n):
            coeffs = {}
            for mu in partitions_of(n):
                x = green_poly(nu, mu).inverse_variable().shift(n_stat(mu))
                if x:
                    coeffs[mu] = x
            back = convert(SymFn1(n, "hl", coeffs), "p")
            assert back == SymFn1(n, "p", {nu: 1})


def test_convert_examples():
    f = convert(SymFn1(2, "s", {(1, 1): 1}), "p")
    assert f == SymFn1(2, "p", {(1, 1): Fraction(1, 2), (2,): Fraction(-1, 2)})
    assert convert(SymFn1(1, "p", {(1,): 1}), "s") == SymFn1(1, "s", {(1,): 1})
    g = convert(SymFn1(2, "s", {(2,): 1}), "hl")
    assert g == SymFn1(2, "hl", {(2,): QPoly({0: 1}), (1, 1): t})


def test_convert_round_trips():
    rng = random.Random(5)
    for n in range(1, 7):
        for _ in range(3):
            coeffs = {
                lam: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                for lam in partitions_of(n)
                if rng.random() < 0.7
            }
            f = SymFn1(n, "s", coeffs)
            for path in (("hl", "p", "s"), ("p", "hl", "s")):
                g = f
                for b in path:
                    g = convert(g, b)
                assert g == f


def test_multiply():
    p2, p1 = SymFn1(2, "p", {(2,): 1}), SymFn1(1, "p", {(1,): 1})
    assert multiply(p2, p1) == SymFn1(3, "p", {(2, 1): 1})
    s1 = SymFn1(1, "s", {(1,): 1})
    assert multiply(s1, s1, basis="s") == SymFn1(2, "s", {(2,): 1, (1, 1): 1})
    s2 = SymFn1(2, "s", {(2,): 1})
    assert multiply(s1, s2, basis="s") == SymFn1(3, "s", {(3,): 1, (2, 1): 1})


def test_multiply_commutative_associative():
    rng = random.Random(9)
    for _ in range(10):
        def rand_fn(n):
            return SymFn1(
                n, "p",
                {lam: Fraction(rng.randint(-3, 3)) for lam in partitions_of(n) if rng.random() < 0.6},
            )
        f, g, h = rand_fn(rng.randint(1, 2)), rand_fn(rng.randint(1, 2)), rand_fn(rng.randint(1, 2))
        assert multiply(f, g) == multiply(g, f)
        assert multiply(multiply(f, g), h) == multiply(f, multiply(g, h))


def test_lr_coefficient():
    assert lr_coefficient((1,), (1,), (2,)) == 1
    assert lr_coefficient((1,), (1,), (3,)) == 0
    assert lr_coefficient((2, 1), (2, 1), (3, 2, 1)) == 2
    assert lr_coefficient((2, 1), (2, 1), (2, 2, 1, 1)) == 1
    assert lr_coefficient((2,), (1,), (2, 2)) == 0


def test_horizontal_strip():
    assert horizontal_strip((3, 2), (2, 2), 1)
    assert not horizontal_strip((3, 3), (2, 1), 3)
    assert horizontal_strip((2,), (), 2)
    assert not horizontal_strip((2, 2), (2,), 1)  # wrong size
    assert not horizontal_strip((1, 1), (), 2)  # vertical pair


def _ptype(p, pj_kernel_sizes):
    # abelian p-group type from the kernel sizes of multiplication by p^j
    logs = []
    for s in pj_kernel_sizes:
        k = 0
        while s > 1:
            s //= p
            k += 1
        logs.append(k)
    conj = [logs[j] - logs[j - 1] for j in range(1, len(logs)) if logs[j] > logs[j - 1]]
    return conjugate(tuple(conj))


def _subgroup_census(p, lam):
    # enumerate every subgroup of the abelian p-group of type lam and tally by
    # (quotient type, subgroup type)
    import itertools as it

    mods = [p**e for e in lam]
    zero = tuple(0 for _ in mods)
    elems = [tuple(v) for v in it.product(*(range(m) for m in mods))]

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, mods))

    def extend(sub, g):
        out = set()
        x = zero
        while True:
            out.update(add(h, x) for h in sub)
            x = add(x, g)
            if x == zero:
                return frozenset(out)

    subgroups = {frozenset([zero])}
    frontier = list(subgroups)
    while frontier:
        sub = frontier.pop()
        for g in elems:
            if g not in sub:
                bigger = extend(sub, g)
                if bigger not in subgroups:
                    subgroups.add(bigger)
                    frontier.append(bigger)

    jmax = max(lam, default=0)
    census: dict[tuple, int] = {}
    for sub in subgroups:
        sub_type = _ptype(
            p, [sum(1 for x in sub if all(a * p**j % m == 0 for a, m in zip(x, mods)))
                for j in range(jmax + 1)]
        )
        quo_type = _ptype(
            p, [sum(1 for x in elems if tuple(a * p**j % m for a, m in zip(x, mods)) in sub)
                // len(sub) for j in range(jmax + 1)]
        )
        key = (quo_type, sub_type)
        census[key] = census.get(key, 0) + 1
    return census


def test_hall_polynomial():
    assert hall_polynomial((1,), (1,), (1, 1)) == 1 + t
    assert hall_polynomial((1,), (1,), (2,)) == QPoly({0: 1})
    assert hall_polynomial((), (2, 1), (2, 1)) == QPoly({0: 1})
    # negative coefficients do occur
    assert hall_polynomial((2,), (2,), (3, 1)) == t - 1


@pytest.mark.parametrize("p,size", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 3)])
def test_hall_polynomial_subgroup_oracle(p, size):
    # g^lam_{mu nu}(p) counts subgroups of type nu with quotient of type mu in
    # the abelian p-group of type lam
    for lam in partitions_of(size):
        census = _subgroup_census(p, lam)
        for k in range(size + 1):
            for mu in partitions_of(size - k):
                for nu in partitions_of(k):
                    expected = census.get((mu, nu), 0)
                    assert hall_polynomial(mu, nu, lam).eval(p) == expected


def test_hall_polynomial_computes_each_product_once():
    from ennola.symfunc import _hl_product

    _hl_product.cache_clear()
    for lam in partitions_of(4):
        assert hall_polynomial((2,), (1, 1), lam) == hall_polynomial((1, 1), (2,), lam)
    assert _hl_product.cache_info().misses == 1
    assert isinstance(_hl_product((1, 1), (2,)), tuple)


def test_hall_polynomial_degree_and_leading_term():
    # integer coefficients; zero iff the LR coefficient vanishes, and otherwise
    # degree n(lam) - n(mu) - n(nu) with the LR coefficient on top
    for n in range(1, 6):
        for lam in partitions_of(n):
            for k in range(n + 1):
                for mu in partitions_of(n - k):
                    for nu in partitions_of(k):
                        g = hall_polynomial(mu, nu, lam)
                        assert all(c.denominator == 1 for _, c in g.coeffs)
                        c = lr_coefficient(mu, nu, lam)
                        if c == 0:
                            assert g == QPoly()
                        else:
                            d = n_stat(lam) - n_stat(mu) - n_stat(nu)
                            assert g.max_exp() == d
                            assert dict(g.coeffs)[d] == c


def test_psi_poly():
    assert psi_poly(1).eval(-2) == 3
    assert psi_poly(2).eval(-2) == -9
    assert psi_poly(0) == QPoly({0: 1})


def test_delta_spec():
    s1 = SymFn1(1, "s", {(1,): 1})
    assert delta_spec(s1, 1, 2) == Fraction(1, 3)
    p2 = SymFn1(2, "p", {(2,): 1})
    assert delta_spec(p2, 1, 2) == Fraction(1, 3)
    empty = SymFn1(0, "s", {(): 1})
    assert delta_spec(empty, 1, 2) == 1
    # degree cross-check for U_2 at q=2: (-1)^tau psi_2(-q) delta(s_lam) ∈ {2, 1}
    s2 = SymFn1(2, "s", {(2,): 1})
    s11 = SymFn1(2, "s", {(1, 1): 1})
    psi2 = psi_poly(2).eval(-2)
    assert -psi2 * delta_spec(s2, 1, 2) == 2  # tau((2)) = 5, odd
    assert psi2 * delta_spec(s11, 1, 2) == 1  # tau((1,1)) = 6, even


# ---------------------------------------------------------------------------
# independent finite-variable Hall-Littlewood oracle (sympy)

sympy = pytest.importorskip("sympy")


def _sym_vars(nvars):
    return sympy.symbols(f"x0:{nvars}"), sympy.Symbol("t")


def _vandermonde(xs):
    v = sympy.Integer(1)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            v *= xs[i] - xs[j]
    return v


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def _hl_P_sympy(lam, xs, tt):
    """P_lam(x; t) by the symmetrization formula, exact polynomial division."""
    import itertools as it

    n = len(xs)
    if len(lam) > n:
        return sympy.Integer(0)
    lam = tuple(lam) + (0,) * (n - len(lam))
    num = sympy.Integer(0)
    core = sympy.prod([xs[i] ** lam[i] for i in range(n)]) * sympy.prod(
        [xs[i] - tt * xs[j] for i in range(n) for j in range(i + 1, n)]
    )
    for perm in it.permutations(range(n)):
        sign = _perm_sign(perm)
        num += sign * core.subs(dict(zip(xs, [xs[p] for p in perm])), simultaneous=True)
    quo, rem = sympy.div(sympy.expand(num), _vandermonde(xs), *xs)
    assert rem == 0
    mult = {}
    for part in lam:
        mult[part] = mult.get(part, 0) + 1
    v = sympy.Integer(1)
    for part, m in mult.items():
        for k in range(1, m + 1):
            v *= (1 - tt**k) / (1 - tt)
    return sympy.expand(sympy.cancel(quo / v))


def _schur_sympy(lam, xs):
    n = len(xs)
    lam = tuple(lam) + (0,) * (n - len(lam))
    mat = sympy.Matrix(n, n, lambda i, j: xs[i] ** (lam[j] + n - 1 - j))
    quo, rem = sympy.div(mat.det(method="berkowitz"), _vandermonde(xs), *xs)
    assert rem == 0
    return sympy.expand(quo)


def _qpoly_sympy(p, tt):
    return sum(sympy.Rational(c.numerator, c.denominator) * tt**e for e, c in p.coeffs)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kostka_against_hall_littlewood_expansion(n):
    xs, tt = _sym_vars(max(n, 3))
    hl = {mu: _hl_P_sympy(mu, xs, tt) for mu in partitions_of(n)}
    for lam in partitions_of(n):
        lhs = _schur_sympy(lam, xs)
        rhs = sum(_qpoly_sympy(kostka_foulkes(lam, mu), tt) * hl[mu] for mu in partitions_of(n))
        assert sympy.expand(lhs - rhs) == 0


@pytest.mark.parametrize("n", [2, 3])
def test_green_against_hall_littlewood_expansion(n):
    xs, tt = _sym_vars(max(n, 3))
    hl = {mu: _hl_P_sympy(mu, xs, tt) for mu in partitions_of(n)}
    for nu in partitions_of(n):
        lhs = sympy.expand(sympy.prod([sum(x**part for x in xs) for part in nu]))
        rhs = sympy.Integer(0)
        for mu in partitions_of(n):
            x_poly = green_poly(nu, mu).inverse_variable().shift(n_stat(mu))
            rhs += _qpoly_sympy(x_poly, tt) * hl[mu]
        assert sympy.expand(lhs - rhs) == 0
