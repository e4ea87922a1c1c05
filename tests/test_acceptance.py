"""Acceptance suite: thirteen headline identities, one test per criterion.

Each test logs a single PASS or FAIL line (printed as a block at the end of
the pytest run) and enforces its wall-clock budget. Everything here is exact
arithmetic; no tolerance appears anywhere.
"""

from __future__ import annotations

import functools
import time
from fractions import Fraction

import _criteria_log

from ennola.bruteforce import (
    class_census,
    enumerate_group,
    symmetric_count,
    twisted_fs,
)
from ennola.charmap import (
    CharLabel,
    char_table,
    character_row,
    circ_product,
    ch,
    dl_character,
    ls_sum,
    pi_class,
    star_product,
    to_basis,
)
from ennola.exactnum import Cyclotomic
from ennola.multipartitions import (
    MultiPartition,
    centralizer_order,
    class_size,
    enumerate_mp,
    mp_conjugate,
    mp_stats,
    unitary_group_order,
)
from ennola.orbits import OrbitId, level_order, orbit_count
from ennola.reptables import (
    charprod_parity,
    degree_hook,
    degree_sum,
    degree_sum_closed_form,
    degree_sum_delta,
    even_degree_sum,
    even_degree_sum_closed_form,
    gelfand_graev,
    irreducible_multiplicities,
    model_decomposition,
    sp_induction,
)


def criterion(number: int, title: str, budget: float):
    """Record one PASS/FAIL line per criterion and enforce the time budget."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper() -> None:
            start = time.perf_counter()
            try:
                fn()
            except BaseException as exc:
                reason = str(exc).splitlines()[0][:120] if str(exc) else type(exc).__name__
                _criteria_log.lines.append(f"FAIL criterion {number:2d}: {title} ({reason})")
                raise
            elapsed = time.perf_counter() - start
            if elapsed >= budget:
                _criteria_log.lines.append(
                    f"FAIL criterion {number:2d}: {title} "
                    f"(over budget: {elapsed:.2f}s >= {budget:g}s)"
                )
                raise AssertionError(f"budget {budget:g}s exceeded: {elapsed:.2f}s")
            _criteria_log.lines.append(
                f"PASS criterion {number:2d}: {title} ({elapsed:.2f}s)"
            )

        return wrapper

    return decorate


@functools.cache
def table(n: int, q: int):
    return char_table(n, q)


def identity_class(q: int, n: int) -> MultiPartition:
    return MultiPartition("phi", q, ((OrbitId("phi", q, 1, 0), (1,) * n),))


def rational(v: Cyclotomic) -> Fraction:
    assert v.is_rational()
    return v.rational_value()


@criterion(1, "brute-force class data matches the partition model", budget=10)
def test_criterion_01_class_data() -> None:
    for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)):
        census = class_census(n, q)
        labels = enumerate_mp(q, "phi", n)
        assert list(census) == list(labels)
        order = unitary_group_order(q, n)
        for mu, size in census.items():
            assert size * centralizer_order(mu) == order
            assert size == class_size(mu)
    assert len(class_census(2, 2)) == 9


@criterion(2, "character-table rows are orthonormal", budget=240)
def test_criterion_02_orthogonality() -> None:
    for q in (2, 3):
        for n in (1, 2, 3):
            t = table(n, q)
            order = unitary_group_order(q, n)
            rows = len(t.rows)
            for i in range(rows):
                for j in range(i, rows):
                    acc = Cyclotomic.from_rational(0)
                    for k in range(len(t.cols)):
                        term = t.values[i][k] * t.values[j][k].conj()
                        acc = acc + term * Fraction(t.class_sizes[k], order)
                    assert acc == (1 if i == j else 0)


@criterion(3, "identity column equals the hook-product degrees", budget=120)
def test_criterion_03_degrees() -> None:
    for q in (2, 3):
        for n in (1, 2, 3):
            t = table(n, q)
            column = t.cols.index(identity_class(q, n))
            for label, row in zip(t.rows, t.values):
                assert rational(row[column]) == degree_hook(label.lam)
    t = table(2, 2)
    column = t.cols.index(identity_class(2, 2))
    degrees = sorted(int(rational(row[column])) for row in t.values)
    assert degrees == [1, 1, 1, 1, 1, 1, 2, 2, 2]
    assert len(enumerate_group(2, 2)) == 18
    assert sum(d * d for d in degrees) == 18


@criterion(4, "degree sums match the closed form and symmetric counts", budget=60)
def test_criterion_04_degree_sums() -> None:
    for q in (2, 3, 4):
        for m in (1, 2, 3, 4):
            total = degree_sum(m, q)
            assert total == degree_sum_closed_form(m, q) == degree_sum_delta(m, q)
    assert degree_sum(2, 2) == 12
    for n, q in ((1, 2), (1, 3), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)):
        assert symmetric_count(n, q) == degree_sum(n, q)


@criterion(5, "even-conjugate degree sums match the closed form", budget=30)
def test_criterion_05_even_sum() -> None:
    for q in (2, 3):
        for m in (1, 2):
            assert even_degree_sum(m, q) == even_degree_sum_closed_form(m, q)
    assert even_degree_sum(1, 2) == 3


@criterion(6, "Ennola and induction products agree; ch is multiplicative", budget=60)
def test_criterion_06_products() -> None:
    q = 2
    pairs = 0
    for na in range(1, 4):
        for nb in range(na, 5 - na):
            first = enumerate_mp(q, "phi", na)
            second = enumerate_mp(q, "phi", nb)
            for i, ma in enumerate(first):
                for mb in second[i:] if na == nb else second:
                    star = star_product(pi_class(ma), pi_class(mb))
                    circ = circ_product(pi_class(ma), pi_class(mb))
                    assert star == circ
                    pairs += 1
    assert pairs == 150

    def concat(g1: MultiPartition, g2: MultiPartition) -> MultiPartition:
        merged: dict[OrbitId, list[int]] = {}
        for src in (g1, g2):
            for orb, block in src.assignment:
                merged.setdefault(orb, []).extend(block)
        return MultiPartition(
            "theta", q, {o: tuple(sorted(v, reverse=True)) for o, v in merged.items()}
        )

    # ch is multiplicative: in character-orbit power sums the image of the
    # product is the concatenation product of the images
    for na in range(1, 3):
        for nb in range(na, 4 - na):
            for ma in enumerate_mp(q, "phi", na):
                for mb in enumerate_mp(q, "phi", nb):
                    left = to_basis(ch(pi_class(ma)), "p_theta")
                    right = to_basis(ch(pi_class(mb)), "p_theta")
                    prod = to_basis(
                        ch(star_product(pi_class(ma), pi_class(mb))), "p_theta"
                    )
                    acc: dict[MultiPartition, Cyclotomic] = {}
                    for g1, c1 in left.coeffs.items():
                        for g2, c2 in right.coeffs.items():
                            g = concat(g1, g2)
                            w = c1 * c2
                            acc[g] = acc[g] + w if g in acc else w
                    assert set(prod.coeffs) == {g for g, v in acc.items() if v != 0}
                    for g, v in prod.coeffs.items():
                        assert v == acc[g]


@criterion(7, "Deligne-Lusztig characters agree along both routes", budget=60)
def test_criterion_07_deligne_lusztig() -> None:
    q = 2
    count = 0
    for size in (1, 2, 3):
        for nu in enumerate_mp(q, "theta", size):
            dl_character(nu)
            count += 1
    assert count == len(enumerate_mp(q, "theta", 1)) + len(
        enumerate_mp(q, "theta", 2)
    ) + len(enumerate_mp(q, "theta", 3))


@criterion(8, "weighted torus sums reproduce the conjugate table rows", budget=120)
def test_criterion_08_torus_sums() -> None:
    q = 2
    for n in (1, 2, 3):
        t = table(n, q)
        column = t.cols.index(identity_class(q, n))
        for lam in enumerate_mp(q, "theta", n):
            elem = ls_sum(lam)
            assert rational(elem.coefficient(identity_class(q, n))) > 0
            row = t.rows.index(CharLabel(mp_conjugate(lam)))
            for k, mu in enumerate(t.cols):
                assert elem.coefficient(mu) == t.values[row][k]
            assert rational(t.values[row][column]) > 0


@criterion(9, "Gelfand-Graev constituents are exactly the height-one labels", budget=60)
def test_criterion_09_gelfand_graev() -> None:
    for q in (2, 3):
        for m in (1, 2, 3, 4):
            mults = irreducible_multiplicities(gelfand_graev(m, q))
            expected = {
                CharLabel(lam)
                for lam in enumerate_mp(q, "theta", m)
                if mp_stats(lam).height == 1
            }
            assert set(mults) == expected
            assert all(v == 1 for v in mults.values())
    regular = irreducible_multiplicities(gelfand_graev(2, 2))
    assert sum(degree_hook(label.lam) for label in regular) == 9


@criterion(10, "the model tiles the character labels exactly once", budget=180)
def test_criterion_10_model() -> None:
    q = 3
    for m in (1, 2, 3, 4):
        dec = model_decomposition(m, q)
        seen: list[CharLabel] = []
        for r, labels in dec.parts:
            part = star_product(gelfand_graev(m - 2 * r, q), sp_induction(r, q))
            mults = irreducible_multiplicities(part)
            assert all(v == 1 for v in mults.values())
            expected = {
                CharLabel(lam)
                for lam in enumerate_mp(q, "theta", m)
                if mp_stats(mp_conjugate(lam)).odd == m - 2 * r
            }
            assert set(mults) == expected == set(labels)
            seen.extend(labels)
        assert len(seen) == len(set(seen)) == len(enumerate_mp(q, "theta", m))


@criterion(11, "a character product that is not a character is detected", budget=30)
def test_criterion_11_non_character() -> None:
    q = 2
    box = MultiPartition("theta", q, ((OrbitId("theta", q, 1, 0), (1,)),))
    chi = character_row(box)
    mults = irreducible_multiplicities(circ_product(chi, chi))
    assert min(mults.values()) < 0
    assert charprod_parity(box, box) is False


@criterion(12, "twisted indicators are all one and count symmetric elements", budget=60)
def test_criterion_12_indicators() -> None:
    for n, q in ((1, 2), (2, 2), (2, 3), (2, 4), (2, 5), (3, 2)):
        indicators = twisted_fs(n, q, "transpose_inverse")
        assert len(indicators) == len(enumerate_mp(q, "theta", n))
        assert set(indicators.values()) == {1}
        weighted = sum(v * degree_hook(label.lam) for label, v in indicators.items())
        assert weighted == symmetric_count(n, q)


@criterion(13, "weighted orbit counts match the level orders", budget=10)
def test_criterion_13_orbit_counting() -> None:
    for q in (2, 3, 4, 5):
        for m in range(1, 9):
            divisors = [r for r in range(1, m + 1) if m % r == 0]
            assert sum(r * orbit_count(q, r) for r in divisors) == level_order(q, m)
