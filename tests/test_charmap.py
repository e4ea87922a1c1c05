"""Tests for the characteristic map and character tables.

Frozen oracle values come from independent routes: abelian character theory
for the rank-1 tables, the known structure of the order-18 rank-2 group at
q=2, relative Weyl group stabilizer counts for torus character norms, and
hand evaluations of Hall and Green polynomials.
"""

from __future__ import annotations

import itertools
import math
import random
import weakref
from fractions import Fraction
from functools import cache, lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import identity_column_entry
from ennola.charmap import (
    _STEPS,
    CharLabel,
    SymElement,
    ch,
    ch_inverse,
    char_table,
    character_row,
    circ_product,
    conductor,
    dl_character,
    expand_schur,
    inner_product,
    pi_class,
    power_theta,
    schur,
    star_product,
    to_basis,
)
from ennola.exactnum import Cyclotomic, euler_phi
from ennola.multipartitions import (
    MultiPartition,
    centralizer_order,
    enumerate_mp,
    mp_conjugate,
    unitary_group_order,
)
from ennola.orbits import CyclicElt, OrbitId, char_eval, enumerate_orbits, level_order
from ennola.partitions import partitions_of, z_stat
from ennola.symfunc import green_poly


def all_ones_label(q: int, n: int) -> MultiPartition:
    return MultiPartition("theta", q, ((OrbitId("theta", q, 1, 0), (1,) * n),))


def identity_class(q: int, n: int) -> MultiPartition:
    return MultiPartition("phi", q, ((OrbitId("phi", q, 1, 0), (1,) * n),))


def rational(v: Cyclotomic) -> Fraction:
    assert v.is_rational(), v.to_json()
    return v.rational_value()


def test_conductor_values() -> None:
    assert conductor(2, 1) == 3
    assert conductor(2, 2) == 3
    assert conductor(2, 3) == 9
    assert conductor(2, 4) == 45
    assert conductor(3, 3) == 56


def test_sym_element_validation() -> None:
    q = 2
    mu = identity_class(q, 2)
    with pytest.raises(ValueError):
        SymElement(q, 2, "bogus", {})
    with pytest.raises(ValueError):
        SymElement(q, 3, "P", {mu: Cyclotomic.from_rational(1)})
    with pytest.raises(ValueError):
        SymElement(q, 2, "p_theta", {mu: Cyclotomic.from_rational(1)})
    zero = SymElement(q, 2, "P", {mu: Cyclotomic.zero(3)})
    assert not zero.coeffs


@pytest.mark.parametrize("value", [1, Fraction(1, 2)])
def test_sym_element_rejects_non_cyclotomic_coefficients(value) -> None:
    # a plain number would construct and multiply, then fail inside to_basis
    nu = identity_class(2, 1)
    with pytest.raises(TypeError, match=type(value).__name__):
        SymElement(2, 1, "pi", {nu: value})


def test_sym_element_algebra() -> None:
    q = 2
    a = pi_class(identity_class(q, 2))
    b = a.scale(3)
    assert (a + a + a) == b
    assert a != b
    assert a + a.scale(-1) == SymElement(q, 2, "pi", {})


def test_rank_one_table_is_cyclic_group_table() -> None:
    q = 2
    table = char_table(1, q)
    assert len(table.rows) == 3 and len(table.cols) == 3
    assert table.class_sizes == (1, 1, 1)
    for i, label in enumerate(table.rows):
        j = label.lam.orbits()[0].residue
        for k, mu in enumerate(table.cols):
            x = mu.orbits()[0].residue
            expect = Cyclotomic.root(3, j * x)
            assert table.values[i][k] == expect


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_trivial_character_row_is_all_ones(q: int, n: int) -> None:
    row = character_row(all_ones_label(q, n))
    for mu in enumerate_mp(q, "phi", n):
        assert rational(row.coefficient(mu)) == 1


def test_rank_two_q2_degrees() -> None:
    degs = sorted(identity_column_entry(lam) for lam in enumerate_mp(2, "theta", 2))
    assert degs == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    triv = OrbitId("theta", 2, 1, 0)
    assert identity_column_entry(MultiPartition("theta", 2, ((triv, (2,)),))) == 2
    assert sum(d * d for d in degs) == unitary_group_order(2, 2) == 18


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_degree_squares_sum_to_group_order(q: int, n: int) -> None:
    total = sum(identity_column_entry(lam) ** 2 for lam in enumerate_mp(q, "theta", n))
    assert total == unitary_group_order(q, n)


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_degree_one_count(q: int, n: int) -> None:
    ones = sum(1 for lam in enumerate_mp(q, "theta", n) if identity_column_entry(lam) == 1)
    assert ones == (6 if (q, n) == (2, 2) else q + 1)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_row_orthogonality(q: int, n: int) -> None:
    table = char_table(n, q)
    order = unitary_group_order(q, n)
    big = conductor(q, n)
    for i in range(len(table.rows)):
        for j in range(i, len(table.rows)):
            total = Cyclotomic.zero(big)
            for k in range(len(table.cols)):
                term = table.values[i][k] * table.values[j][k].conj()
                total = total + term * table.class_sizes[k]
            assert rational(total) == (order if i == j else 0)


@pytest.mark.parametrize("q,n", [(2, 2), (2, 3), (3, 2)])
def test_column_orthogonality(q: int, n: int) -> None:
    table = char_table(n, q)
    order = unitary_group_order(q, n)
    big = conductor(q, n)
    for k in range(len(table.cols)):
        for l in range(k, len(table.cols)):
            total = Cyclotomic.zero(big)
            for i in range(len(table.rows)):
                total = total + table.values[i][k] * table.values[i][l].conj()
            expect = Fraction(order, table.class_sizes[k]) if k == l else 0
            assert rational(total) == expect


def test_identity_column_matches_full_table() -> None:
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        table = char_table(n, q)
        k = table.cols.index(identity_class(q, n))
        for i, label in enumerate(table.rows):
            assert rational(table.values[i][k]) == identity_column_entry(label)


def test_identity_column_rejects_point_orbit_label() -> None:
    with pytest.raises(ValueError):
        CharLabel(identity_class(2, 2))


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3)])
def test_schur_rows_orthonormal(q: int, n: int) -> None:
    labels = enumerate_mp(q, "theta", n)
    expanded = [expand_schur(lam) for lam in labels]
    for i, a in enumerate(expanded):
        for j in range(i, len(expanded)):
            got = rational(inner_product(a, expanded[j]))
            assert got == (1 if i == j else 0)


def test_class_indicator_norm() -> None:
    rng = random.Random(20260817)
    pool = [mu for n in (1, 2, 3) for mu in enumerate_mp(2, "phi", n)]
    for mu in rng.sample(pool, 12):
        got = rational(inner_product(pi_class(mu), pi_class(mu)))
        assert got == Fraction(1, centralizer_order(mu))
    m1, m2 = enumerate_mp(2, "phi", 2)[:2]
    cross = inner_product(pi_class(m1), pi_class(m2))
    assert not cross


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_torus_character_two_routes_agree(q: int, n: int) -> None:
    for nu in enumerate_mp(q, "theta", n):
        dl_character(nu)


def test_torus_character_rank_one_example() -> None:
    q = 2
    nu = all_ones_label(q, 1)
    element = dl_character(nu)
    for mu in enumerate_mp(q, "phi", 1):
        assert rational(element.coefficient(mu)) == 1


def test_torus_character_identity_coefficient() -> None:
    q = 2
    nu = all_ones_label(q, 2)
    element = dl_character(nu)
    assert rational(element.coefficient(identity_class(q, 2))) == -1


@pytest.mark.parametrize("q", [2, 3])
def test_torus_character_norms(q: int) -> None:
    # <R_gamma, R_gamma'> = delta z_gamma, the orthogonality by which the
    # P -> p_theta route reads T; inner_product stays in the P basis
    top = 3 if q == 2 else 2
    for n in range(1, top + 1):
        chars = [(nu, dl_character(nu)) for nu in enumerate_mp(q, "theta", n)]
        for nu, r in chars:
            want = 1
            for _, block in nu.assignment:
                want *= z_stat(block)
            for nu2, r2 in chars:
                assert rational(inner_product(r, r2)) == (want if nu2 == nu else 0)


def test_regular_torus_character_is_irreducible() -> None:
    phi = OrbitId("theta", 2, 3, 1)
    nu = MultiPartition("theta", 2, ((phi, (1,)),))
    norm = rational(inner_product(dl_character(nu), dl_character(nu)))
    assert norm == 1


def test_star_product_structure_constants() -> None:
    q = 2
    f0 = OrbitId("phi", q, 1, 0)
    box = pi_class(MultiPartition("phi", q, ((f0, (1,)),)))
    prod = star_product(box, box)
    two = MultiPartition("phi", q, ((f0, (2,)),))
    split = MultiPartition("phi", q, ((f0, (1, 1)),))
    assert rational(prod.coefficient(two)) == 1
    assert rational(prod.coefficient(split)) == 1 + (-q)
    assert len(prod.coeffs) == 2


def test_star_product_disjoint_orbits() -> None:
    q = 2
    f0 = OrbitId("phi", q, 1, 0)
    f1 = OrbitId("phi", q, 1, 1)
    a = pi_class(MultiPartition("phi", q, ((f0, (1,)),)))
    b = pi_class(MultiPartition("phi", q, ((f1, (1,)),)))
    prod = star_product(a, b)
    both = MultiPartition("phi", q, ((f0, (1,)), (f1, (1,))))
    assert rational(prod.coefficient(both)) == 1
    assert len(prod.coeffs) == 1


def test_star_product_commutes() -> None:
    rng = random.Random(7)
    pool = [mu for n in (1, 2) for mu in enumerate_mp(2, "phi", n)]
    for _ in range(10):
        m1, m2 = rng.choice(pool), rng.choice(pool)
        a, b = pi_class(m1), pi_class(m2)
        assert star_product(a, b) == star_product(b, a)


def test_products_agree() -> None:
    q = 2
    for n1, n2 in [(1, 1), (1, 2), (2, 2), (1, 3)]:
        for m1 in enumerate_mp(q, "phi", n1):
            for m2 in enumerate_mp(q, "phi", n2):
                a, b = pi_class(m1), pi_class(m2)
                assert star_product(a, b) == circ_product(a, b)


def test_products_agree_q3_sample() -> None:
    rng = random.Random(11)
    pool1 = enumerate_mp(3, "phi", 1)
    pool2 = enumerate_mp(3, "phi", 2)
    for _ in range(6):
        a = pi_class(rng.choice(pool1))
        b = pi_class(rng.choice(pool2))
        assert star_product(a, b) == circ_product(a, b)


def test_composition_of_characters_need_not_be_a_character() -> None:
    q = 2
    box = character_row(all_ones_label(q, 1))
    comp = circ_product(box, box)
    mults = {
        lam: rational(inner_product(comp, character_row(lam)))
        for lam in enumerate_mp(q, "theta", 2)
    }
    assert any(m < 0 for m in mults.values())
    t1 = OrbitId("theta", q, 1, 0)
    assert mults[MultiPartition("theta", q, ((t1, (1, 1)),))] == 1
    assert mults[MultiPartition("theta", q, ((t1, (2,)),))] == -1


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_weighted_torus_sum_gives_conjugate_row(q: int, n: int) -> None:
    from ennola.charmap import ls_sum

    for lam in enumerate_mp(q, "theta", n):
        assert ls_sum(lam) == ch(character_row(mp_conjugate(lam)))


def test_weighted_torus_sum_degrees_positive() -> None:
    from ennola.charmap import ls_sum

    for n in (1, 2, 3):
        for lam in enumerate_mp(2, "theta", n):
            entry = ls_sum(lam).coefficient(identity_class(2, n))
            assert rational(entry) > 0


@pytest.mark.parametrize("n, q", [(4, 3), (5, 2)])
def test_weighted_torus_sum_is_the_conjugate_table_row_past_q_2(n: int, q: int) -> None:
    # criterion 8 stops at q = 2 and n <= 3; here every label's torus sum is
    # compared with the conjugate label's table row on every column
    from ennola.charmap import ls_sum

    table = char_table(n, q)
    index = {label: i for i, label in enumerate(table.rows)}
    for lam in enumerate_mp(q, "theta", n):
        row = table.values[index[CharLabel(mp_conjugate(lam))]]
        elem = ls_sum(lam)
        assert [elem.coefficient(mu) for mu in table.cols] == list(row), lam


def test_basis_roundtrips() -> None:
    rng = random.Random(20260101)
    for q, n in [(2, 2), (2, 3), (3, 2)]:
        classes = enumerate_mp(q, "phi", n)
        for _ in range(4):
            coeffs = {
                mu: Cyclotomic.from_rational(rng.randint(-3, 3))
                for mu in rng.sample(classes, min(3, len(classes)))
            }
            elem = SymElement(q, n, "P", coeffs)
            again = to_basis(to_basis(elem, "p_theta"), "P")
            assert again == elem
        labels = enumerate_mp(q, "theta", n)
        for _ in range(4):
            coeffs = {
                lam: Cyclotomic.from_rational(rng.randint(-3, 3))
                for lam in rng.sample(labels, min(3, len(labels)))
            }
            elem = SymElement(q, n, "s_theta", coeffs)
            again = to_basis(to_basis(elem, "P"), "s_theta")
            assert again == elem


def test_ch_and_inverse() -> None:
    q = 2
    mu = identity_class(q, 2)
    elem = pi_class(mu)
    assert ch(elem).basis == "P"
    assert ch_inverse(ch(elem)) == elem
    lam = all_ones_label(q, 2)
    back = ch_inverse(schur(lam))
    assert back.basis == "pi"
    assert back == ch_inverse(expand_schur(lam))
    with pytest.raises(ValueError):
        ch(expand_schur(lam))
    with pytest.raises(ValueError):
        ch_inverse(elem)


def test_inner_product_requires_matching_degree() -> None:
    a = pi_class(identity_class(2, 1))
    b = pi_class(identity_class(2, 2))
    with pytest.raises(ValueError):
        inner_product(a, b)
    c = pi_class(identity_class(3, 1))
    with pytest.raises(ValueError):
        inner_product(a, c)


def test_power_theta_expansion_matches_row() -> None:
    q = 2
    lam = all_ones_label(q, 2)
    direct = to_basis(schur(lam), "P")
    via_power = to_basis(to_basis(schur(lam), "p_theta"), "P")
    assert direct == via_power
    assert to_basis(power_theta(lam), "s_theta").basis == "s_theta"


def test_circ_product_stays_in_power_sums() -> None:
    q = 2
    a = pi_class(identity_class(q, 1))
    b = pi_class(identity_class(q, 2))
    prod = circ_product(a, b)
    assert prod.basis == "p_theta"
    assert prod.n == 3
    star = star_product(a, b)
    assert star.basis == "pi"
    assert prod == star and star == prod
    # products and inner products take the power-sum element as it is
    assert star_product(prod, a) == star_product(star, a)
    assert star_product(a, prod) == star_product(a, star)
    assert inner_product(prod, prod) == inner_product(star, star)
    assert inner_product(prod, star) == inner_product(star, star)


def test_equality_across_bases() -> None:
    q = 2
    for n in (1, 2):
        for mu in enumerate_mp(q, "phi", n):
            elem = pi_class(mu)
            assert elem == to_basis(elem, "p_theta")
            assert to_basis(elem, "p_theta") == elem
            assert elem == to_basis(elem, "s_theta")
            assert elem == ch(elem)
    first, second = enumerate_mp(q, "phi", 2)[:2]
    assert pi_class(first) != to_basis(pi_class(second), "p_theta")
    assert to_basis(pi_class(first), "s_theta") != pi_class(second)
    lam = all_ones_label(q, 2)
    assert schur(lam) != power_theta(lam)
    assert schur(lam) == to_basis(schur(lam), "P")


def test_equality_needs_matching_q_and_degree() -> None:
    one = pi_class(identity_class(2, 1))
    assert one != to_basis(pi_class(identity_class(3, 1)), "p_theta")
    assert one != to_basis(pi_class(identity_class(2, 2)), "p_theta")
    assert SymElement(2, 1, "pi", {}) != SymElement(2, 2, "p_theta", {})
    assert SymElement(2, 1, "pi", {}) != SymElement(3, 1, "p_theta", {})
    assert SymElement(2, 1, "pi", {}) == SymElement(2, 1, "p_theta", {})


def test_table_json_shape() -> None:
    table = char_table(1, 2)
    blob = table.to_json()
    assert blob["n"] == 1 and blob["q"] == 2
    assert len(blob["rows"]) == 3
    assert len(blob["values"]) == 3
    assert all(len(row) == 3 for row in blob["values"])
    assert blob["class_sizes"] == [1, 1, 1]


def test_char_table_row_order_is_stable() -> None:
    table = char_table(2, 2)
    for i, label in enumerate(table.rows):
        chi = character_row(label)
        assert tuple(chi.coefficient(mu) for mu in table.cols) == table.values[i]


@pytest.mark.parametrize("n, q", [(3, 2), (2, 3), (3, 3), (4, 2)])
def test_table_rows_match_the_generic_schur_expansion(n: int, q: int) -> None:
    # the right-hand side goes through to_basis, one SymElement per basis
    table = char_table(n, q)
    for label, row in zip(table.rows, table.values):
        expanded = expand_schur(label)
        chi = character_row(label)
        for mu, v in zip(table.cols, row):
            assert v == expanded.coefficient(mu) * label.sign()
            assert v == chi.coefficient(mu)
    # one shared object per stored form, which includes the column conductor
    entries = [v for row in table.values for v in row]
    assert len({id(v) for v in entries}) == len({(v.conductor, v.terms, v.den) for v in entries})


def test_degree_zero_power_sum_is_one() -> None:
    for q in (2, 3):
        empty = MultiPartition("theta", q, ())
        image = to_basis(power_theta(empty), "P")
        assert image.coeffs == {MultiPartition("phi", q, ()): Cyclotomic.from_rational(1)}


def test_char_table_rejects_bad_rank() -> None:
    with pytest.raises(ValueError):
        char_table(0, 2)


def _orbit_order(orb: OrbitId) -> int:
    size = level_order(orb.q, orb.size)
    return size // math.gcd(orb.residue, size)


@pytest.mark.parametrize("n, q", [(3, 3), (4, 2)])
def test_table_entries_are_the_character_rows_at_column_conductors(n: int, q: int) -> None:
    # each entry is stored at e_mu, the lcm of the orders of the class's point
    # orbits; character_row writes the same values at the lcm of e_mu over
    # the support of T(gamma), gamma running over the label's Schur expansion
    from ennola.charmap import _power_theta_to_P_items, _schur_items

    table = char_table(n, q)
    for label, row in zip(table.rows, table.values):
        chi = character_row(label)
        support = {
            mu for gamma, _ in _schur_items(label.lam) for mu, _ in _power_theta_to_P_items(gamma)
        }
        e = math.lcm(*(_orbit_order(orb) for mu in support for orb in mu.orbits()))
        assert all(v.conductor == e for v in chi.coeffs.values())
        for mu, v in zip(table.cols, row):
            assert v.conductor == math.lcm(*(_orbit_order(orb) for orb in mu.orbits()))
            assert v == chi.coefficient(mu)


@pytest.mark.parametrize("n, q", [(3, 3), (2, 4), (4, 2), (2, 9)])
def test_class_indicator_power_sums_are_stored_at_the_column_conductor(n: int, q: int) -> None:
    # a basis change runs at the conductor its inputs bring: the indicator of
    # mu is rational, and its p_theta image reads only the transpose's column
    # at mu, so every coefficient is stored at e_mu and none at a multiple
    for mu in enumerate_mp(q, "phi", n):
        e = math.lcm(*(_orbit_order(orb) for orb in mu.orbits()))
        image = to_basis(pi_class(mu), "p_theta")
        assert image.coeffs and all(v.conductor == e for v in image.coeffs.values()), mu


@pytest.fixture
def fresh_transition_caches():
    import ennola.charmap as cm

    caches = (
        cm._columns, cm._green_cols, cm._power_theta_to_P_cols, cm._transposed, cm._hall_options,
        cm._value, cm._transposed_value, cm._built, cm._concat,
    )
    for fn in caches:
        fn.cache_clear()
    yield
    for fn in caches:
        fn.cache_clear()


def test_a_wrong_column_conductor_fails_the_exact_division(monkeypatch, fresh_transition_caches):
    # one prime short of e_mu, the transition's exponents cannot be divided
    # down to the column conductor, and building the table must say so
    import ennola.charmap as cm
    from ennola.exactnum import _prime_divisors

    real = cm._class_conductor

    def short(q: int, orbits) -> int:
        e = real(q, orbits)
        return e // _prime_divisors(e)[0] if e > 1 else e

    monkeypatch.setattr(cm, "_class_conductor", short)
    with pytest.raises(AssertionError, match="do not divide down"):
        char_table(2, 2)


def test_char_table_4_4_identity_column_is_the_hook_degrees() -> None:
    # common conductor 3315, beyond reach while every entry was computed there
    from ennola.reptables import degree_hook

    q, n = 4, 4
    table = char_table(n, q)
    k = table.cols.index(identity_class(q, n))
    degrees = [rational(row[k]) for row in table.values]
    assert degrees == [degree_hook(label.lam) for label in table.rows]
    assert sum(d * d for d in degrees) == unitary_group_order(q, n)


def _direct_mismatches(table, rows) -> list[int]:
    # the direct route of character_row, each row summed from the cache of
    # T, compared with the table at the column conductors e_mu
    from ennola.charmap import _columns, _power_theta_to_P_cols, _row_cols

    def transition(gamma):
        return [(k, v.terms) for k, v in zip(*_power_theta_to_P_cols(gamma))]

    _, _, conductors = _columns(table.q, table.n)
    bad = []
    for i in rows:
        acc, den = _row_cols(table.rows[i], transition)
        direct = [Cyclotomic(e, acc.get(k, {}), den) for k, e in enumerate(conductors)]
        if any(v.conductor != e or v != w for v, w, e in zip(table.values[i], direct, conductors)):
            bad.append(i)
    return bad


def _filled(q: int, n: int) -> list[int]:
    # the rows, and likewise the columns, char_table fills by Galois action
    from ennola.charmap import _orbit_plan

    return [i for i, (rep, _) in enumerate(_orbit_plan(q, n)) if rep != i]


@pytest.mark.parametrize("n, q", [(4, 3), (5, 2)])
def test_filled_table_equals_the_direct_rows(n: int, q: int) -> None:
    table = char_table(n, q)
    assert _filled(q, n)
    assert _direct_mismatches(table, range(len(table.rows))) == []


def test_filled_rows_of_the_6_2_table_equal_the_direct_rows() -> None:
    # the representative rows hold columns filled by sigma_b, so every row
    # holds filled entries and every row is compared
    assert len(_filled(2, 6)) == 324 - 170
    table = char_table(6, 2)
    assert _direct_mismatches(table, range(len(table.rows))) == []


def test_row_orbit_sources_are_earlier_rows_and_map_labels_by_their_unit() -> None:
    from ennola.charmap import _galois_label, _orbit_plan

    q, n = 3, 4
    rows = enumerate_mp(q, "theta", n)
    big = conductor(q, n)
    for i, (rep, a) in enumerate(_orbit_plan(q, n)):
        assert rep <= i and math.gcd(a, big) == 1
        assert _galois_label(rows[rep], a) is rows[i]
        assert (rep == i) == (a == 1)


@pytest.mark.parametrize("n, q, orbits", [(4, 3, 99), (5, 2, 76), (3, 4, 28), (2, 9, 27)])
def test_column_plan_maps_classes_by_their_unit_with_as_many_orbits_as_rows(
    n: int, q: int, orbits: int
) -> None:
    # the one plan serves columns and rows alike, since classes and labels
    # sort alike, and it maps both by their unit; by Brauer's permutation
    # lemma the Galois group has as many orbits on the classes as on the
    # characters
    from ennola.charmap import _columns, _galois_label, _orbit_plan

    rows = enumerate_mp(q, "theta", n)
    cols, _, conductors = _columns(q, n)
    assert [m.sort_key() for m in rows] == [m.sort_key() for m in enumerate_mp(q, "phi", n)]
    big = conductor(q, n)
    plan = _orbit_plan(q, n)
    assert len(plan) == len(rows) == len(cols)
    for i, (rep, u) in enumerate(plan):
        assert rep <= i and math.gcd(u, big) == 1
        assert (rep == i) == (u == 1)
        assert _galois_label(rows[rep], u) is rows[i]
        assert _galois_label(cols[rep], u) is cols[i]
        assert conductors[rep] == conductors[i]
    assert len(plan) - len(_filled(q, n)) == orbits


@pytest.mark.parametrize("q, n", [(2, 3), (3, 3), (2, 4)])
def test_galois_label_is_an_action_on_the_labels(q: int, n: int) -> None:
    from ennola.charmap import _galois_label

    labels = enumerate_mp(q, "theta", n)
    big = conductor(q, n)
    units = [a for a in range(1, big) if math.gcd(a, big) == 1]
    assert all(_galois_label(lam, 1) is lam for lam in labels)
    for a in units:
        image = [_galois_label(lam, a) for lam in labels]
        assert sorted(map(id, image)) == sorted(map(id, labels))
    rng = random.Random(12)
    for lam in labels:
        for a, b in ((rng.choice(units), rng.choice(units)) for _ in range(6)):
            assert _galois_label(_galois_label(lam, a), b) is _galois_label(lam, a * b % big)


class _WeakRow(list):
    # a row of T that can be weakly referenced, which a tuple cannot
    pass


def _counted_T_builds(monkeypatch, n: int, q: int) -> list:
    # the torus labels char_table(n, q) builds T for, in build order, counted
    # at the uncached builder, each with the labels whose rows of T are still
    # alive when it is built, and the row of T built
    import ennola.charmap as cm

    build = cm._build_T
    built, refs = [], []

    def counting(gamma, cols):
        alive = [g for g, ref in refs if ref() is not None]
        row = _WeakRow(build(gamma, cols))
        # a copy, so the weak reference still ends with the build's own row
        built.append((gamma, alive, tuple(row)))
        refs.append((gamma, weakref.ref(row)))
        return row

    monkeypatch.setattr(cm, "_build_T", counting)
    char_table(n, q)
    return built


def test_char_table_builds_T_only_for_representative_rows(
    monkeypatch, fresh_transition_caches
) -> None:
    import ennola.charmap as cm

    built = [gamma for gamma, _, _ in _counted_T_builds(monkeypatch, 4, 3)]
    reps = [i for i, (rep, _) in enumerate(cm._orbit_plan(3, 4)) if rep == i]
    used = {gamma for i in reps for gamma, _ in cm._schur_items(enumerate_mp(3, "theta", 4)[i])}
    assert len(reps) == 99
    assert len(built) == len(set(built)) == len(used) == 100
    assert set(built) == used
    # the rows of T were held by the build alone, never by the cache
    assert cm._power_theta_to_P_cols.cache_info().currsize == 0


def test_char_table_builds_T_only_on_representative_columns(
    monkeypatch, fresh_transition_caches
) -> None:
    # each row of T built for the table holds representative columns alone,
    # and there it is the row of T built on every column
    import ennola.charmap as cm

    q, n = 3, 4
    reps = {k for k, (rep, _) in enumerate(cm._orbit_plan(q, n)) if rep == k}
    every = range(len(cm._columns(q, n)[0]))
    build = cm._build_T
    built = _counted_T_builds(monkeypatch, n, q)
    assert len(reps) == 99 and len(built) == 100
    for gamma, _, row in built:
        assert row and {k for k, _ in row} <= reps
        assert row == tuple((k, terms) for k, terms in build(gamma, every) if k in reps)


def test_char_table_leaves_the_T_cache_as_it_found_it(fresh_transition_caches) -> None:
    # neither the cache of T nor the caches that intern the values of T and
    # its transpose take anything from the table build, nor are they read
    import ennola.charmap as cm

    gamma = enumerate_mp(2, "theta", 4)[3]
    cm._power_theta_to_P_cols(gamma)
    caches = (cm._value, cm._transposed_value)

    def contents() -> list:
        return [fn.cache_info() for fn in caches]

    found = contents()
    assert found[0].currsize
    char_table(4, 2)
    info = cm._power_theta_to_P_cols.cache_info()
    assert (info.currsize, info.hits, info.misses) == (1, 0, 1)
    assert contents() == found
    # and likewise once the transpose has filled its cache
    cm._P_to_power_theta_items(identity_class(2, 3))
    info, found = cm._power_theta_to_P_cols.cache_info(), contents()
    assert all(c.currsize for c in found)
    char_table(4, 2)
    assert cm._power_theta_to_P_cols.cache_info() == info
    assert contents() == found


@pytest.mark.parametrize("n, q", [(4, 3), (5, 2)])
def test_T_builds_come_grouped_by_support(monkeypatch, n: int, q: int) -> None:
    # a support, a label's orbits and block sizes, is shared by the torus
    # labels of its Schur expansion; once the build leaves a support it never
    # returns, and the rows of T alive at each build are those of its support
    def support(gamma):
        return tuple((orb.size, orb.residue, sum(bl)) for orb, bl in gamma.assignment)

    built = _counted_T_builds(monkeypatch, n, q)
    runs = [s for s, _ in itertools.groupby(support(gamma) for gamma, _, _ in built)]
    assert len(runs) == len(set(runs)) > 1
    for gamma, alive, _ in built:
        assert all(support(g) == support(gamma) for g in alive)


def _wrong_unit_halves(monkeypatch, unit) -> tuple[int, int]:
    # char_table(4, 3) with every unit u of the plan replaced by unit(u, N):
    # the identity column, the degrees and the block survive, so only the
    # direct rows can tell; returns how many entries change in representative
    # rows at filled columns and in filled rows at representative columns
    import ennola.charmap as cm

    q, n = 3, 4
    good = char_table(n, q)
    filled = set(_filled(q, n))
    real = cm._orbit_plan

    def plan(q: int, n: int) -> tuple:
        return tuple((rep, unit(u, conductor(q, n))) for rep, u in real(q, n))

    monkeypatch.setattr(cm, "_orbit_plan", plan)
    bad = char_table(n, q)
    k = bad.cols.index(identity_class(q, n))
    assert [row[k] for row in bad.values] == [row[k] for row in good.values]
    reps = [j for j in range(len(bad.cols)) if j not in filled]
    assert [[bad.values[i][j] for j in reps] for i in reps] == [
        [good.values[i][j] for j in reps] for i in reps
    ]
    diff = {
        (i, j)
        for i, (x, y) in enumerate(zip(bad.values, good.values))
        for j, (v, w) in enumerate(zip(x, y))
        if v != w
    }
    assert _direct_mismatches(bad, range(len(bad.rows))) == sorted({i for i, _ in diff})
    rep_rows = sum(i not in filled and j in filled for i, j in diff)
    filled_rows = sum(i in filled and j not in filled for i, j in diff)
    return rep_rows, filled_rows


def _inverse(u: int, big: int) -> int:
    return pow(u, -1, big)


def test_filling_by_the_inverse_unit_fails_the_direct_rows(monkeypatch) -> None:
    # sigma_(a^-1) in place of sigma_a gives the row of another label in the
    # same orbit, at the representative columns too
    assert _wrong_unit_halves(monkeypatch, _inverse)[1] == 4


def test_filling_columns_by_the_inverse_unit_fails_the_direct_rows(monkeypatch) -> None:
    # sigma_(b^-1) in place of sigma_b gives the column of another class in
    # the same orbit, in the representative rows too
    assert _wrong_unit_halves(monkeypatch, _inverse)[0] == 4


def test_filling_by_the_unit_one_fails_the_direct_rows(monkeypatch) -> None:
    # sigma_1 copies the block entry into every row and column of its orbit
    assert _wrong_unit_halves(monkeypatch, lambda u, big: 1) == (2217, 2228)


def test_missing_coefficients_share_one_zero() -> None:
    elem = pi_class(identity_class(2, 2))
    others = [mu for mu in enumerate_mp(2, "phi", 2) if mu != identity_class(2, 2)]
    assert len({id(elem.coefficient(mu)) for mu in others}) == 1
    assert elem.coefficient(others[0]) == 0


TRANSITION_SIZES = (
    [(2, n) for n in range(1, 5)] + [(3, n) for n in range(1, 4)] + [(4, 1), (4, 2), (5, 2), (9, 2)]
)


@cache
def _inverse_green_rows(k: int, t: int) -> dict[tuple[int, ...], list]:
    # Gauss-Jordan inverse of the degree-k Green matrix at t; the row of lam
    # writes the Hall-Littlewood element of lam in single-orbit power sums
    ps = partitions_of(k)
    size = len(ps)
    work = [
        [green_poly(nu, mu).eval(t) for mu in ps] + [Fraction(int(i == j)) for j in range(size)]
        for i, nu in enumerate(ps)
    ]
    for col in range(size):
        pivot = next(r for r in range(col, size) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        work[col] = [v / work[col][col] for v in work[col]]
        for r in range(size):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    return {lam: [(nu, cf) for nu, cf in zip(ps, row[size:]) if cf] for lam, row in zip(ps, work)}


@cache
def _inverse_transform(f: OrbitId, c: int) -> list:
    # Fourier inversion of the variable-change transform over the level-m
    # group, m = c*|f|: p_c(f) = (-1)^(m-1)/N_m sum over character orbits phi
    # with |phi| dividing m of (sum of conjugated character values on a
    # point of f) p_{m/|phi|}(phi)
    q, m = f.q, c * f.size
    y = CyclicElt(q, f.size, f.residue).embed(m)
    out = []
    for phi in enumerate_orbits(q, "theta", m):
        r = phi.size
        if m % r:
            continue
        nr = level_order(q, r)
        total, j = Cyclotomic.zero(nr), phi.residue
        for _ in range(r):
            total = total + char_eval(CyclicElt(q, r, j), y).conj()
            j = j * -q % nr
        if total:
            out.append((phi, m // r, total * Fraction((-1) ** (m - 1), level_order(q, m))))
    return out


def _reference_P_to_power_theta(mu: MultiPartition) -> dict[MultiPartition, Cyclotomic]:
    # the inverse Green matrix per block, then the inverse transform per
    # power sum, with one Cyclotomic product and lift per combination: shares
    # no transition code with the library's route, which reads T
    from itertools import product as iproduct

    from ennola.multipartitions import mp_size

    q = mu.q
    big = conductor(q, mp_size(mu))
    per_orbit = [
        [(orb, nu, cf) for nu, cf in _inverse_green_rows(sum(lam), (-q) ** orb.size)[lam]]
        for orb, lam in mu.assignment
    ]
    acc: dict[MultiPartition, Cyclotomic] = {}
    for combo in iproduct(*per_orbit):
        frac = Fraction(1)
        for _, _, cf in combo:
            frac *= cf
        blocks = [(orb, c) for orb, nu, _ in combo for c in nu]
        theta_opts = [_inverse_transform(orb, c) for orb, c in blocks]
        for tcombo in iproduct(*theta_opts):
            coeff = Cyclotomic.from_rational(frac, big)
            parts: dict[OrbitId, list[int]] = {}
            for phi, power, v in tcombo:
                coeff = coeff * v.lift(big)
                parts.setdefault(phi, []).append(power)
            gmp = MultiPartition(
                "theta", q,
                tuple((orb, tuple(sorted(ps, reverse=True))) for orb, ps in parts.items()),
            )
            acc[gmp] = acc[gmp] + coeff if gmp in acc else coeff
    return {g: v for g, v in acc.items() if v}


@pytest.mark.parametrize("q, n", TRANSITION_SIZES)
def test_P_to_power_theta_matches_cyclotomic_reference(q: int, n: int) -> None:
    from ennola.charmap import _columns, _P_to_power_theta_items

    cols, _, conductors = _columns(q, n)
    for mu, e in zip(cols, conductors):
        items = _P_to_power_theta_items(mu)
        assert dict(items) == _reference_P_to_power_theta(mu)
        assert all(v.conductor == e for _, v in items)
        back = to_basis(to_basis(pi_class(mu), "p_theta"), "P")
        assert back.coeffs == {mu: Cyclotomic.from_rational(1)}


def test_power_theta_to_P_lifts_nothing(monkeypatch) -> None:
    # T is stored at the column conductors, and to_basis writes each result
    # at the lcm of e_mu over T(gamma)'s support, without lifting an entry of T
    calls = []
    real = Cyclotomic.lift

    def counted(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(Cyclotomic, "lift", counted)
    q, n = 3, 3
    for gamma in enumerate_mp(q, "theta", n):
        image = to_basis(power_theta(gamma), "P")
        # one input term, so the image's support is T(gamma)'s
        e = math.lcm(*(_orbit_order(orb) for mu in image.coeffs for orb in mu.orbits()))
        assert image.coeffs and all(v.conductor == e for v in image.coeffs.values())
    assert calls == []


def test_star_equals_circ_over_the_product_pairs_lifts_nothing(monkeypatch) -> None:
    # star and circ write their results at different conductors, and
    # SymElement equality compares the coefficients there, without lifting
    calls = []
    real = Cyclotomic.lift

    def counted(self, m):
        calls.append(m)
        return real(self, m)

    monkeypatch.setattr(Cyclotomic, "lift", counted)
    pairs = [
        (ma, mb)
        for na in range(1, 4)
        for nb in range(1, 5 - na)
        for ma in enumerate_mp(2, "phi", na)
        for mb in enumerate_mp(2, "phi", nb)
    ]
    assert len(pairs) == 288
    for ma, mb in pairs:
        a, b = pi_class(ma), pi_class(mb)
        assert star_product(a, b) == circ_product(a, b)
    assert calls == []


def test_P_to_power_theta_keys_are_shared() -> None:
    from ennola.charmap import _P_to_power_theta_items

    seen: dict[MultiPartition, MultiPartition] = {}
    for mu in enumerate_mp(2, "phi", 3):
        for g, _ in _P_to_power_theta_items(mu):
            assert seen.setdefault(g, g) is g


def test_transition_caches_hold_each_distinct_value_once(fresh_transition_caches) -> None:
    # T and its transpose repeat few values: after every class of degree at
    # most 4 at q=2 is converted, each value is one object per stored form
    # (conductor, terms, den) in its cache, and each transposed value is
    # still stored at its column's conductor e_mu
    from ennola.charmap import _P_to_power_theta_items, _power_theta_to_P_cols

    classes = [mu for n in range(1, 5) for mu in enumerate_mp(2, "phi", n)]
    for mu in classes:
        assert to_basis(pi_class(mu), "p_theta").coeffs
    terms: dict[tuple, Cyclotomic] = {}
    entries = 0
    for n in range(1, 5):
        for gamma in enumerate_mp(2, "theta", n):
            for t in _power_theta_to_P_cols(gamma)[1]:
                assert terms.setdefault((t.conductor, t.terms, t.den), t) is t
                entries += 1
    values: dict[tuple, Cyclotomic] = {}
    transposed = 0
    for mu in classes:
        e = math.lcm(*(_orbit_order(orb) for orb in mu.orbits()))
        for _, v in _P_to_power_theta_items(mu):
            assert v.conductor == e
            assert values.setdefault((v.conductor, v.terms, v.den), v) is v
            transposed += 1
    assert (entries, len(terms), transposed, len(values)) == (2971, 114, 2971, 312)


def test_power_theta_to_P_values_are_the_shared_objects_of_their_stored_forms() -> None:
    # every call returns the cached values themselves, so the identity-keyed
    # memo of _expand_linear decomposes each distinct value once
    import ennola.charmap as cm

    for n in range(1, 4):
        _, index, conductors = cm._columns(3, n)
        for gamma in enumerate_mp(3, "theta", n):
            first, again = cm._power_theta_to_P_items(gamma), cm._power_theta_to_P_items(gamma)
            assert first and len(first) == len(again)
            for (mu, v), (nu, w) in zip(first, again):
                assert mu is nu and v is w
                assert isinstance(v, Cyclotomic) and v.conductor == conductors[index[mu]]
                assert cm._value(v.conductor, v.terms, v.den) is v


@pytest.mark.parametrize("n, q", [(3, 3), (4, 2)])
def test_power_theta_to_P_keys_are_shared(n: int, q: int) -> None:
    # one object per class, and it is the table's column object
    from ennola.charmap import _power_theta_to_P_items

    seen = {mu: mu for mu in enumerate_mp(q, "phi", n)}
    for gamma in enumerate_mp(q, "theta", n):
        for mu, _ in _power_theta_to_P_items(gamma):
            assert seen.setdefault(mu, mu) is mu


@pytest.mark.parametrize("n, q", [(3, 3), (4, 2)])
def test_blockwise_keys_are_the_enumerated_objects(n: int, q: int) -> None:
    from ennola.charmap import _dl_torus_sum, _power_to_schur_items, _schur_items

    for kind, items_of in (("theta", _schur_items), ("theta", _power_to_schur_items)):
        objects = {mp: mp for mp in enumerate_mp(q, kind, n)}
        for mp in objects:
            assert all(objects[key] is key for key, _ in items_of(mp))
    # the torus sum's classes are the enumerated point-orbit objects
    objects = {mp: mp for mp in enumerate_mp(q, "phi", n)}
    for nu in enumerate_mp(q, "theta", n):
        assert all(objects[key] is key for key in _dl_torus_sum(nu).coeffs)


def test_cross_check_routes_stay_on_cyclotomic_arithmetic() -> None:
    # criteria 6-8 compare these against the integer-coordinate routes
    import ennola.charmap as cm

    helpers = {
        "_mul_into", "_multiply_blocks", "_exponents", "_coords", "_blockwise"
    }
    for fn in (cm.star_product, cm._hall_combine_items, cm._dl_torus_sum, cm.ls_sum):
        assert not helpers & set(getattr(fn, "__wrapped__", fn).__code__.co_names)


PIN_SIZES = [(2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (4, 2)]
PINNED_FORMS = "d39e835e15799279d505603d08b49dff47b49da12aeff2f608eba95bad8228bd"
PIN_COEFFICIENTS = [
    Cyclotomic.from_rational(1),
    Cyclotomic.root(3) * Fraction(1, 2),
    Cyclotomic.root(5) + Fraction(2, 3),
    Cyclotomic.root(8) * -3,
]


def _stored_forms(q: int, n: int):
    """Each result's stored coefficients, (basis, key, conductor, terms, den),
    in key order, after a line naming the result."""
    from ennola.charmap import ls_sum

    def forms(name: str, elem: SymElement):
        yield (name,)
        for key, v in sorted(elem.coeffs.items(), key=lambda kv: kv[0].sort_key()):
            yield elem.basis, key.sort_key(), v.conductor, v.terms, v.den

    for src in BASES:
        keys = enumerate_mp(q, "phi" if src in ("pi", "P") else "theta", n)
        mixed = {k: PIN_COEFFICIENTS[i % len(PIN_COEFFICIENTS)] for i, k in enumerate(keys)}
        one = Cyclotomic.from_rational(1)
        inputs = [(k.sort_key(), SymElement(q, n, src, {k: one})) for k in keys]
        for name, x in inputs + [("mixed", SymElement(q, n, src, mixed))]:
            for dst in BASES:
                yield from forms(f"to_basis {src} {name} {dst}", to_basis(x, dst))
    for lam in enumerate_mp(q, "theta", n):
        yield from forms(f"expand_schur {lam.sort_key()}", expand_schur(lam))
        yield from forms(f"ls_sum {lam.sort_key()}", ls_sum(lam))
        yield from forms(f"dl_character {lam.sort_key()}", dl_character(lam))
        yield from forms(f"character_row {lam.sort_key()}", character_row(lam))


def test_to_basis_stored_forms_are_pinned() -> None:
    # values and conductors: equal values at another conductor change the digest
    import hashlib

    digest = hashlib.sha256()
    for q, n in PIN_SIZES:
        for line in _stored_forms(q, n):
            digest.update(repr(line).encode())
    assert digest.hexdigest() == PINNED_FORMS


# every pair of the benchmark's products workload at q = 2, and the pairs of
# sizes (1, 1) and (1, 2) at q = 3
CIRC_PIN_PAIRS = [(2, na, nb) for na in range(1, 4) for nb in range(1, 5 - na)] + [(3, 1, 1), (3, 1, 2)]
PINNED_CIRC_FORMS = "895ec9097dc64baeadae9e4660978e57153fc87d4f45c9506a572358f99c4831"


def test_circ_product_stored_forms_are_pinned() -> None:
    # T, read backwards, feeds every factor's p_theta image
    import hashlib

    digest = hashlib.sha256()
    for q, na, nb in CIRC_PIN_PAIRS:
        for ma in enumerate_mp(q, "phi", na):
            for mb in enumerate_mp(q, "phi", nb):
                prod = circ_product(pi_class(ma), pi_class(mb))
                digest.update(repr((ma.sort_key(), mb.sort_key())).encode())
                for key, v in sorted(prod.coeffs.items(), key=lambda kv: kv[0].sort_key()):
                    digest.update(repr((key.sort_key(), v.conductor, v.terms, v.den)).encode())
    assert digest.hexdigest() == PINNED_CIRC_FORMS


def test_circ_product_of_indicators_is_stored_at_the_lcm_of_their_conductors() -> None:
    # each factor's p_theta image is stored at its class's conductor, so the
    # product runs at lcm(e_ma, e_mb) and at no larger conductor
    pairs = 0
    for q, na, nb in CIRC_PIN_PAIRS:
        for ma in enumerate_mp(q, "phi", na):
            for mb in enumerate_mp(q, "phi", nb):
                e = math.lcm(*(_orbit_order(orb) for orb in ma.orbits() + mb.orbits()))
                prod = circ_product(pi_class(ma), pi_class(mb))
                assert prod.coeffs and all(v.conductor == e for v in prod.coeffs.values()), (ma, mb)
                pairs += 1
    assert pairs == 368


def test_products_build_each_distinct_result_once(monkeypatch, fresh_transition_caches) -> None:
    # the 288 products pairs at q = 2: each map value is decomposed once per
    # _expand_linear call, each distinct result is built once while the
    # result cache holds it, each distinct transposed value once, and a
    # one-term basis change (each factor's p_theta image) reads its results
    # off its row, so the pairs make at most 2300 Cyclotomic constructions
    # and 30000 _mul_into calls, with the caches cold and warm: 2076 and
    # 29826 in a fresh process, 735 and 27387 warm. Building each distinct result once per call made 8793
    # constructions cold and 8239 warm; reducing one-term changes through the
    # integer kernel made 13817 and 39126 cold, 13263 and 36687 warm;
    # decomposing per item and building per result made 25099 constructions
    # cold and 24795 warm.
    import ennola.charmap as cm

    counts = {"built": 0, "mul_into": 0}
    init, mul_into = Cyclotomic.__init__, cm._mul_into

    def counting(self, *args, **kwargs) -> None:
        counts["built"] += 1
        init(self, *args, **kwargs)

    def counting_mul_into(*args) -> None:
        counts["mul_into"] += 1
        mul_into(*args)

    monkeypatch.setattr(Cyclotomic, "__init__", counting)
    monkeypatch.setattr(cm, "_mul_into", counting_mul_into)
    for caches in ("cold", "warm"):
        counts.update(built=0, mul_into=0)
        pairs = 0
        for q, na, nb in CIRC_PIN_PAIRS:
            if q != 2:
                continue
            for ma in enumerate_mp(q, "phi", na):
                for mb in enumerate_mp(q, "phi", nb):
                    a, b = pi_class(ma), pi_class(mb)
                    assert star_product(a, b) == circ_product(a, b), (ma, mb)
                    pairs += 1
        assert pairs == 288
        assert counts["built"] <= 2300, (caches, counts)
        assert counts["mul_into"] <= 30000, (caches, counts)


def _products_pairs() -> list:
    pairs = [
        (ma, mb)
        for q, na, nb in CIRC_PIN_PAIRS
        if q == 2
        for ma in enumerate_mp(q, "phi", na)
        for mb in enumerate_mp(q, "phi", nb)
    ]
    assert len(pairs) == 288
    return pairs


def _recorded_built_keys(monkeypatch) -> list[tuple]:
    """The keys ``_expand_linear`` looks up in the result cache from now on,
    in call order; the cache itself still serves every lookup."""
    import ennola.charmap as cm

    keys: list[tuple] = []
    built = cm._built

    def recording(*key):
        keys.append(key)
        return built(*key)

    monkeypatch.setattr(cm, "_built", recording)
    return keys


def test_result_table_entries_are_fresh_builds_of_their_keys(
    monkeypatch, fresh_transition_caches
) -> None:
    # a hit returns what a fresh build of its key returns
    import ennola.charmap as cm
    from ennola.exactnum import _reduced

    built = cm._built
    keys = _recorded_built_keys(monkeypatch)
    for ma, mb in _products_pairs():
        a, b = pi_class(ma), pi_class(mb)
        assert star_product(a, b) == circ_product(a, b)
    info = built.cache_info()
    assert 0 < info.currsize <= cm._BUILT_MAX == info.maxsize == 4096
    for big, den, raw in dict.fromkeys(keys):
        assert list(raw) == sorted(raw)
        v = built(big, den, raw)
        fresh = Cyclotomic(big, _reduced(big, raw), den)
        assert (v.conductor, v.terms, v.den) == (fresh.conductor, fresh.terms, fresh.den)
    # every key was still held, so each second lookup was a hit
    assert built.cache_info().misses == info.misses


def test_one_vector_from_two_calls_is_one_object(monkeypatch, fresh_transition_caches) -> None:
    # circ_product commutes, and each factor order accumulates the same
    # vectors in its own order; sorted terms key both to one cache entry
    import ennola.charmap as cm

    built = cm._built
    keys = _recorded_built_keys(monkeypatch)
    f0, f1 = OrbitId("phi", 2, 1, 0), OrbitId("phi", 2, 1, 1)
    a = pi_class(MultiPartition("phi", 2, ((f0, (1,)), (f1, (1,)))))
    b = pi_class(MultiPartition("phi", 2, ((f0, (2,)),)))
    ab, ba = circ_product(a, b), circ_product(b, a)
    assert ab.coeffs and ab.coeffs.keys() == ba.coeffs.keys()
    assert all(ab.coeffs[k] is ba.coeffs[k] for k in ab.coeffs)
    misses = built.cache_info().misses
    table = {id(built(*key)) for key in keys}
    assert built.cache_info().misses == misses
    assert all(id(v) in table for v in ab.coeffs.values())


def test_result_table_never_exceeds_its_bound(monkeypatch, fresh_transition_caches) -> None:
    # evictions leave the results unchanged
    import ennola.charmap as cm

    monkeypatch.setattr(cm, "_built", lru_cache(64)(cm._built.__wrapped__))
    for ma, mb in _products_pairs():
        a, b = pi_class(ma), pi_class(mb)
        assert star_product(a, b) == circ_product(a, b)
        assert cm._built.cache_info().currsize <= 64
    assert cm._built.cache_info().currsize == 64


def test_hall_combine_items_classes_are_the_enumerated_objects(fresh_transition_caches) -> None:
    import ennola.charmap as cm

    q = 2
    objects = {mp: mp for n in range(2, 5) for mp in enumerate_mp(q, "phi", n)}
    for na in range(1, 4):
        for nb in range(1, 5 - na):
            for ma in enumerate_mp(q, "phi", na):
                for mb in enumerate_mp(q, "phi", nb):
                    items = cm._hall_combine_items(ma, mb)
                    assert items and all(objects[lam] is lam for lam, _ in items)


def _merged_label(g1: MultiPartition, g2: MultiPartition) -> MultiPartition:
    """gamma_1 gamma_2 through the public constructor: each orbit's parts
    from both labels, merged into one partition."""
    parts: dict[OrbitId, list[int]] = {}
    for g in (g1, g2):
        for orb, lam in g.assignment:
            parts.setdefault(orb, []).extend(lam)
    return MultiPartition(
        g1.kind, g1.q, {orb: tuple(sorted(ps, reverse=True)) for orb, ps in parts.items()}
    )


@pytest.mark.parametrize("q, max_size", [(2, 4), (3, 3)])
def test_concatenation_is_the_merged_enumerated_label(q, max_size, fresh_transition_caches) -> None:
    import ennola.charmap as cm

    labels = {n: enumerate_mp(q, "theta", n) for n in range(1, max_size)}
    pairs = 0
    for na, nb in itertools.product(labels, repeat=2):
        if na + nb > max_size:
            continue
        objects = {mp: mp for mp in enumerate_mp(q, "theta", na + nb)}
        for g1 in labels[na]:
            for g2 in labels[nb]:
                gamma = cm._concat(g1, g2)
                assert gamma == _merged_label(g1, g2), (g1, g2)
                assert objects[gamma] is gamma
                assert cm._concat(g2, g1) is gamma
                pairs += 1
    assert cm._concat.cache_info().currsize == pairs


def test_products_pairs_concatenate_each_label_pair_once(fresh_transition_caches) -> None:
    # one distinct ordered label pair per class pair, each built on its
    # miss; every other of the 14517 concatenations is a hit
    import ennola.charmap as cm

    for ma, mb in _products_pairs():
        circ_product(pi_class(ma), pi_class(mb))
    info = cm._concat.cache_info()
    assert info.misses == info.currsize == 288
    assert info.hits + info.misses == 14517


def _module_containers() -> dict[tuple[str, str], tuple[int, int]]:
    """The id and length of every module-level dict, list and set in the
    library's modules, but ``__main__``, which runs the command line."""
    import importlib
    import pkgutil
    import sys

    import ennola

    for info in pkgutil.iter_modules(ennola.__path__):
        if info.name != "__main__":
            importlib.import_module(f"ennola.{info.name}")
    return {
        (name, key): (id(value), len(value))
        for name, mod in list(sys.modules.items())
        if name.partition(".")[0] == "ennola" and name != "ennola.__main__"
        for key, value in vars(mod).items()
        if not key.startswith("__") and isinstance(value, (dict, list, set))
    }


def test_process_wide_memos_are_functools_caches(fresh_transition_caches) -> None:
    # every memo that outlives a call is a functools cache, which cache_info
    # reports and cache_clear empties: no module-level container changes
    # while products, a table and Deligne-Lusztig characters are computed
    before = _module_containers()
    assert ("ennola.charmap", "_STEPS") in before
    for ma in enumerate_mp(2, "phi", 2):
        for mb in enumerate_mp(2, "phi", 1):
            a, b = pi_class(ma), pi_class(mb)
            assert star_product(a, b) == circ_product(a, b)
    char_table(3, 3)
    for nu in enumerate_mp(3, "theta", 2):
        dl_character(nu)
    assert _module_containers() == before


# Coefficients at conductors outside conductor(2, n), mixed with rational ones
# and with the degree-n conductors, over several denominators.
@st.composite
def coefficients(draw) -> Cyclotomic:
    n = draw(st.sampled_from([1, 3, 5, 7, 8, 9]))
    coords = draw(st.dictionaries(st.integers(0, euler_phi(n) - 1), st.integers(-3, 3), max_size=3))
    return Cyclotomic(n, coords, draw(st.integers(1, 4)))


@st.composite
def elements(draw, basis: str, n: int) -> SymElement:
    kind = "phi" if basis in ("pi", "P") else "theta"
    keys = draw(st.lists(st.sampled_from(enumerate_mp(2, kind, n)), max_size=3, unique=True))
    return SymElement(2, n, basis, {k: draw(coefficients()) for k in keys})


BASES = ("pi", "P", "p_theta", "s_theta")


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_to_basis_is_linear(data) -> None:
    n = data.draw(st.sampled_from([1, 2]))
    src, dst = data.draw(st.sampled_from(BASES)), data.draw(st.sampled_from(BASES))
    a, b = data.draw(elements(src, n)), data.draw(elements(src, n))
    x = data.draw(coefficients())
    assert to_basis(a, src) is a
    assert to_basis(a + b, dst) == to_basis(a, dst) + to_basis(b, dst)
    assert to_basis(a.scale(x), dst) == to_basis(a, dst).scale(x)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_circ_product_is_bilinear_and_commutative(data) -> None:
    n1, n2 = data.draw(st.sampled_from([1, 2])), data.draw(st.sampled_from([1, 2]))
    basis = data.draw(st.sampled_from(("pi", "p_theta")))
    a, a2 = data.draw(elements(basis, n1)), data.draw(elements(basis, n1))
    b = data.draw(elements(data.draw(st.sampled_from(("pi", "p_theta"))), n2))
    x = data.draw(coefficients())
    ab = circ_product(a, b)
    assert circ_product(a + a2, b) == ab + circ_product(a2, b)
    assert circ_product(b, a) == ab
    assert circ_product(a.scale(x), b) == ab.scale(x)


def _scaled_row(step: tuple[str, str], key, c: Cyclotomic) -> list:
    """The step's row at key times c in plain exactnum arithmetic, each
    product written at L, the lcm of c's conductor and the row's conductors
    (a rational value counts as conductor 1), as (key, stored form) pairs in
    row order; zero products are dropped."""
    row = _STEPS[step](key)
    big = math.lcm(c.conductor, *(v.conductor for _, v in row if isinstance(v, Cyclotomic)))
    return [(k, (w.conductor, w.terms, w.den)) for k, v in row if (w := (c * v).lift(big))]


def _stored(elem: SymElement) -> list:
    return [(k, (v.conductor, v.terms, v.den)) for k, v in elem.coeffs.items()]


ONE_TERM_COEFFICIENTS = [
    Cyclotomic.from_rational(1),
    Cyclotomic.from_rational(-3),
    Cyclotomic.from_rational(Fraction(1, 2)),
    Cyclotomic.from_rational(2, 9),
]


@pytest.mark.parametrize("q, n", PIN_SIZES)
def test_one_term_basis_changes_match_scaled_rows(q: int, n: int) -> None:
    # a one-term element with a rational coefficient c over a row at one
    # conductor e that c's conductor divides reads its image off the row;
    # T's rows, at mixed column conductors, and c at conductor 9 over rows at
    # a conductor it does not divide take the general route. Either way the
    # image is the row times c, each value stored at L; a class indicator's
    # image holds the transpose's own values.
    for src, dst in _STEPS:
        for key in enumerate_mp(q, "phi" if src == "P" else "theta", n):
            for c in ONE_TERM_COEFFICIENTS:
                image = to_basis(SymElement(q, n, src, {key: c}), dst)
                assert _stored(image) == _scaled_row((src, dst), key, c), (src, dst, key, c)
                if src == "P" and c == 1:
                    assert all(image.coeffs[k] is v for k, v in _STEPS[src, dst](key)), key


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_one_term_basis_changes_with_any_coefficient_match_scaled_rows(data) -> None:
    n = data.draw(st.sampled_from([1, 2, 3]))
    src, dst = data.draw(st.sampled_from(sorted(_STEPS)))
    key = data.draw(st.sampled_from(enumerate_mp(2, "phi" if src == "P" else "theta", n)))
    c = data.draw(coefficients())
    image = to_basis(SymElement(2, n, src, {key: c}), dst)
    assert _stored(image) == _scaled_row((src, dst), key, c)
