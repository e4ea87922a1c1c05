"""The value classes keep Python's value-type contracts, and importing the
library stays light."""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from ennola.charmap import CharLabel, char_table
from ennola.exactnum import Cyclotomic, QPoly
from ennola.multipartitions import MultiPartition
from ennola.orbits import CyclicElt, OrbitId

SRC = Path(__file__).resolve().parent.parent / "src"


def _values():
    cubic = OrbitId("theta", 2, 3, 1)
    lam = MultiPartition("theta", 2, {cubic: (1,), OrbitId("theta", 2, 1, 0): (2, 1)})
    return [
        Cyclotomic(12, {0: -1, 2: 2}, 3),
        Cyclotomic.from_rational(Fraction(-5, 7), 9),
        QPoly({-1: Fraction(1, 2), 3: 4}),
        cubic,
        CyclicElt(3, 2, 11),
        lam,
        CharLabel(lam),
        char_table(2, 2),
    ]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_pickle_round_trip_is_equal_and_hashes_alike(value) -> None:
    loaded = pickle.loads(pickle.dumps(value))
    assert loaded is not value
    assert type(loaded) is type(value)
    assert loaded == value and value == loaded
    assert hash(loaded) == hash(value)
    assert repr(loaded) == repr(value)


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_fields_cannot_be_assigned_or_deleted(value) -> None:
    field = {
        Cyclotomic: "den", QPoly: "coeffs", OrbitId: "residue", CyclicElt: "residue",
        MultiPartition: "q", CharLabel: "lam",
    }.get(type(value), "n")
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) == before


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_a_new_attribute_cannot_be_set(value) -> None:
    # no attribute outside the fields can be added either, and the error is
    # AttributeError, as for a field
    with pytest.raises(AttributeError):
        value.extra = 1


def test_reprs_name_each_field() -> None:
    orb = OrbitId("phi", 2, 1, 0)
    assert repr(orb) == "OrbitId(kind='phi', q=2, size=1, residue=0)"
    assert repr(CyclicElt(2, 2, 4)) == "CyclicElt(q=2, level=2, residue=1)"
    assert repr(MultiPartition("phi", 2, ((orb, (2,)),))) == (
        "MultiPartition(kind='phi', q=2, "
        "assignment=((OrbitId(kind='phi', q=2, size=1, residue=0), (2,)),))"
    )


def test_a_plain_record_takes_its_fields_by_position() -> None:
    from ennola.multipartitions import TorusLabel

    lam = MultiPartition("theta", 2, {OrbitId("theta", 2, 1, 0): (2, 1)})
    label = TorusLabel(lam, (2, 1), 2, 3)
    assert (label.gamma, label.factors, label.z, label.weyl_class_size) == (lam, (2, 1), 2, 3)
    for values in [(lam, (2, 1), 2), (lam, (2, 1), 2, 3, 4)]:
        with pytest.raises(TypeError, match="TorusLabel takes 4 fields, got"):
            TorusLabel(*values)


def test_importing_the_library_loads_no_heavy_stdlib_modules() -> None:
    # dataclasses pulls in inspect, ast, dis and tokenize, none of which the
    # command line needs; each cold call would pay for them
    heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    script = (
        "import sys\nimport ennola, ennola.cli\n"
        f"print(' '.join(m for m in {heavy!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
