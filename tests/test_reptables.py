"""Tests for hook degrees, degree sums, and distinguished decompositions.

Oracles: the identity column of the exact character table for hook degrees,
the power-sum specialization route for degree sums, and hand-evaluated small
groups (the rank-2 group at q=2 has order 18 with degrees {1 x 6, 2 x 3}).
"""

from __future__ import annotations

import random

import pytest

from _oracles import hook_sum_identity, identity_column_entry
from ennola.charmap import CharLabel, ch_inverse, inner_product
from ennola.multipartitions import (
    MultiPartition,
    enumerate_mp,
    mp_conjugate,
    mp_stats,
    unitary_group_order,
)
from ennola.orbits import OrbitId
from ennola.reptables import (
    DegreeRecord,
    charprod_parity,
    cyclotomic_factors,
    degree_hook,
    degree_polynomial,
    degree_records,
    degree_sum,
    degree_sum_closed_form,
    degree_sum_delta,
    even_degree_sum,
    even_degree_sum_closed_form,
    gelfand_graev,
    irreducible_multiplicities,
    is_even_conjugate,
    model_decomposition,
    sp_induction,
    weighted_hooks,
)
from ennola.exactnum import QPoly


def theta_label(q: int, *blocks: tuple[tuple[int, int], tuple[int, ...]]) -> MultiPartition:
    assignment = tuple(
        (OrbitId("theta", q, size, residue), parts) for (size, residue), parts in blocks
    )
    return MultiPartition("theta", q, assignment)


def test_weighted_hooks_example() -> None:
    lam = theta_label(2, ((1, 0), (3, 2)), ((3, 1), (2, 2)))
    assert sorted(weighted_hooks(lam)) == sorted([4, 3, 1, 2, 1] + [9, 6, 6, 3])


@pytest.mark.parametrize("q", [2, 3])
def test_hook_sum_identity(q: int) -> None:
    assert hook_sum_identity(theta_label(q, ((1, 0), (3, 2))))
    top = 6 if q == 2 else 4
    for n in range(1, top + 1):
        for lam in enumerate_mp(q, "theta", n):
            assert hook_sum_identity(lam)


def test_degree_examples_rank_two() -> None:
    q = 2
    assert degree_hook(theta_label(q, ((1, 0), (1, 1)))) == 1
    assert degree_hook(theta_label(q, ((1, 0), (2,)))) == 2
    pair = theta_label(q, ((1, 0), (1,)), ((1, 1), (1,)))
    assert degree_hook(pair) == q - 1
    assert degree_polynomial(pair) == QPoly({1: 1, 0: -1})


def test_degree_polynomial_steinberg() -> None:
    lam = theta_label(2, ((1, 0), (2,)))
    assert degree_polynomial(lam) == QPoly({1: 1})
    lam3 = theta_label(2, ((1, 0), (3,)))
    assert degree_polynomial(lam3) == QPoly({3: 1})


@pytest.mark.parametrize("q,n", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_degree_hook_matches_identity_column(q: int, n: int) -> None:
    for lam in enumerate_mp(q, "theta", n):
        assert degree_hook(lam) == identity_column_entry(lam)


def _sympy_hook_quotient(lam: MultiPartition, t):
    """Exact quotient and remainder of the hook numerator by the hook
    denominator, with hooks and n of the conjugate read off the blocks."""
    sympy = pytest.importorskip("sympy")
    n = sum(orb.size * sum(block) for orb, block in lam.assignment)
    a = sum(orb.size * v * (v - 1) // 2 for orb, block in lam.assignment for v in block)
    num = t**a * sympy.prod([t**i - (-1) ** i for i in range(1, n + 1)])
    den = sympy.Integer(1)
    for orb, block in lam.assignment:
        cols = [sum(1 for v in block if v > j) for j in range(block[0])]
        for i, row in enumerate(block):
            for j in range(row):
                h = orb.size * (row - j + cols[j] - i - 1)
                den *= t**h - (-1) ** h
    return sympy.div(sympy.Poly(num, t), sympy.Poly(den, t))


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (3, 4), (4, 2)])
def test_degree_polynomial_is_the_sympy_hook_quotient(q: int, n: int) -> None:
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for lam in enumerate_mp(q, "theta", n):
        quo, rem = _sympy_hook_quotient(lam, t)
        assert rem.is_zero
        expect = {e: c for (e,), c in quo.terms()}
        assert degree_polynomial(lam) == QPoly({e: int(c) for e, c in expect.items()})


@pytest.mark.parametrize("q,n", [(2, 4), (3, 3), (4, 3), (3, 4), (4, 2)])
def test_degree_hook_is_the_polynomial_at_q(q: int, n: int) -> None:
    for lam in enumerate_mp(q, "theta", n):
        assert degree_hook(lam) == degree_polynomial(lam).eval(q)


def test_cyclotomic_factors_reject_a_quotient_that_is_not_a_polynomial() -> None:
    # (t^3 + 1) does not divide (t + 1)(t^2 - 1): Phi_3 and Phi_6 are left over
    with pytest.raises(AssertionError):
        cyclotomic_factors(2, (3,))
    # (t^2 - 1) does not divide t + 1
    with pytest.raises(AssertionError):
        cyclotomic_factors(1, (2,))
    assert cyclotomic_factors(2, (2, 1)) == (1, ())


@pytest.mark.parametrize("q", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_degree_sum_routes_agree(q: int, m: int) -> None:
    closed = degree_sum_closed_form(m, q)
    assert degree_sum(m, q) == closed
    assert degree_sum_delta(m, q) == closed


@pytest.mark.parametrize("q", [5])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_degree_sum_more_points(q: int, m: int) -> None:
    assert degree_sum(m, q) == degree_sum_closed_form(m, q)


def test_degree_sum_values() -> None:
    assert degree_sum(1, 2) == 3
    assert degree_sum(2, 2) == 12
    assert degree_sum(3, 2) == 108


def test_even_degree_sum_values() -> None:
    assert even_degree_sum(1, 2) == 3
    assert even_degree_sum(1, 3) == 4
    assert even_degree_sum(2, 2) == 108
    assert even_degree_sum_closed_form(2, 3) == 4 * 9 * 28


def test_even_degree_sum_is_order_quotient() -> None:
    q = 3
    sp_order = q**1 * (q**2 - 1)
    assert even_degree_sum(1, q) == unitary_group_order(q, 2) // sp_order


def test_is_even_conjugate() -> None:
    q = 3
    assert is_even_conjugate(theta_label(q, ((1, 0), (1, 1))))
    assert is_even_conjugate(theta_label(q, ((1, 0), (2, 2))))
    assert not is_even_conjugate(theta_label(q, ((1, 0), (2,))))
    assert not is_even_conjugate(theta_label(q, ((1, 0), (2, 1, 1))))


def test_degree_records_shape() -> None:
    records = degree_records(2, 2)
    assert len(records) == 9
    assert all(isinstance(r, DegreeRecord) for r in records)
    degs = sorted(r.degree for r in records)
    assert degs == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    for r in records:
        assert r.degree == r.polynomial.eval(2)
        assert r.tau_parity in (0, 1)


@pytest.mark.parametrize("q,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3)])
def test_gelfand_graev_support(q: int, m: int) -> None:
    element = gelfand_graev(m, q)
    # returned in power sums, the basis circ_product reads
    assert element.basis == "p_theta"
    mults = irreducible_multiplicities(element)
    support = {label for label, v in mults.items() if v}
    expect = {
        CharLabel(lam)
        for lam in enumerate_mp(q, "theta", m)
        if mp_stats(lam).height == 1
    }
    assert support == expect
    assert all(mults[label] == 1 for label in support)


def test_gelfand_graev_rank_two_degree() -> None:
    mults = irreducible_multiplicities(gelfand_graev(2, 2))
    support = [label for label, v in mults.items() if v]
    assert len(support) == 6
    degs = sorted(degree_hook(label.lam) for label in support)
    assert degs == [1, 1, 1, 2, 2, 2]
    assert sum(degs) == 9


def test_gelfand_graev_rank_one_is_everything() -> None:
    mults = irreducible_multiplicities(gelfand_graev(1, 2))
    assert sorted(label.lam.sort_key() for label in mults) == sorted(
        lam.sort_key() for lam in enumerate_mp(2, "theta", 1)
    )
    assert all(v == 1 for v in mults.values())


@pytest.mark.parametrize("q", [2, 3])
def test_gelfand_graev_rank_zero_is_the_unit(q: int) -> None:
    unit = gelfand_graev(0, q)
    assert unit.basis == "p_theta"
    assert unit == sp_induction(0, q, allow_even_q=True)


def test_sp_induction_rank_one() -> None:
    mults = irreducible_multiplicities(sp_induction(1, 3))
    support = [label for label, v in mults.items() if v]
    assert len(support) == 4
    assert all(mults[label] == 1 for label in support)
    assert sum(degree_hook(label.lam) for label in support) == 4
    for label in support:
        assert label.lam.part(OrbitId("theta", 3, 1, label.lam.orbits()[0].residue)) == (1, 1)


def test_sp_induction_guards() -> None:
    with pytest.raises(ValueError):
        sp_induction(1, 2)
    elem = sp_induction(1, 2, allow_even_q=True)
    mults = irreducible_multiplicities(elem)
    assert sum(1 for v in mults.values() if v) == 3
    unit = sp_induction(0, 3)
    assert unit.n == 0 and len(unit.coeffs) == 1


def test_sp_induction_norm_counts_constituents() -> None:
    elem = sp_induction(1, 3)
    norm = inner_product(ch_inverse(elem), ch_inverse(elem))
    assert norm.is_rational() and norm.rational_value() == 4


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_model_tiles_labels(m: int) -> None:
    md = model_decomposition(m, 3)
    seen = [label for _, labels in md.parts for label in labels]
    assert len(seen) == len(set(seen)) == len(enumerate_mp(3, "theta", m))
    for r, labels in md.parts:
        for label in labels:
            assert mp_stats(mp_conjugate(label.lam)).odd == m - 2 * r


def test_model_rank_two_part_sizes() -> None:
    md = model_decomposition(2, 3)
    assert [(r, len(labels)) for r, labels in md.parts] == [(0, 12), (1, 4)]
    blob = md.to_json()
    assert blob["m"] == 2 and blob["q"] == 3
    assert [p["r"] for p in blob["parts"]] == [0, 1]


def test_model_guards() -> None:
    with pytest.raises(ValueError):
        model_decomposition(2, 2)
    md = model_decomposition(2, 2, allow_even_q=True)
    assert sum(len(labels) for _, labels in md.parts) == 9


def test_model_total_degree() -> None:
    md = model_decomposition(3, 3)
    total = sum(degree_hook(label.lam) for _, labels in md.parts for label in labels)
    assert total == degree_sum(3, 3)


def test_charprod_parity_examples() -> None:
    q = 2
    box = theta_label(q, ((1, 0), (1,)))
    assert not charprod_parity(box, box)
    empty = MultiPartition("theta", q, ())
    assert charprod_parity(empty, box)
    assert charprod_parity(empty, empty)


def test_charprod_parity_height_one_times_even() -> None:
    rng = random.Random(404)
    mus = [mu for mu in enumerate_mp(3, "theta", 2) if mp_stats(mu).height == 1]
    nus = [nu for nu in enumerate_mp(3, "theta", 2) if is_even_conjugate(nu)]
    for _ in range(8):
        assert charprod_parity(rng.choice(mus), rng.choice(nus))


def test_charprod_parity_rejects_mixed_q() -> None:
    with pytest.raises(ValueError):
        charprod_parity(theta_label(2, ((1, 0), (1,))), theta_label(3, ((1, 0), (1,))))
