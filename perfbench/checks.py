"""Exact checks of a CLI workload's stdout, and the input properties read from it.

Each document is compared byte for byte, by SHA-256 and length, against
reference.json, recorded from the seed version of ennola. Independently of
that digest, one identity per workload is checked on the parsed output:

- tables: the identity-class column equals ``degree_hook`` for every row, and
  the squared degrees sum to ``unitary_group_order``;
- model: the labels listed are exactly the ``enumerate_mp(q, "theta", m)``
  labels, each once.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import re
from fractions import Fraction
from pathlib import Path

import ennola
from ennola.cli import mp_text

import workloads

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())


def _flag(argv: list[str], flag: str) -> int:
    return int(argv[argv.index(flag) + 1])


def _identity_class(q: int, n: int) -> ennola.MultiPartition:
    return ennola.MultiPartition("phi", q, ((ennola.OrbitId("phi", q, 1, 0), (1,) * n),))


def _degree_problems(
    degrees: list[tuple[str, Fraction]], labels: dict, n: int, q: int
) -> list[str]:
    """degrees: (row label key, identity-column value) for every output row."""
    problems = []
    keys = [key for key, _ in degrees]
    if sorted(keys) != sorted(labels):
        problems.append("table rows are not the character labels, each once")
    wrong = [key for key, d in degrees if key in labels and d != ennola.degree_hook(labels[key])]
    if wrong:
        problems.append(f"identity column differs from degree_hook at {len(wrong)} rows")
    order = ennola.unitary_group_order(q, n)
    if sum(d * d for _, d in degrees) != order:
        problems.append(f"squared degrees do not sum to the group order {order}")
    return problems


def _table_csv(data: bytes, n: int, q: int) -> tuple[dict, list[str]]:
    text = data.decode()
    header, *body = csv.reader(io.StringIO(text))
    col = header.index(mp_text(_identity_class(q, n)))
    labels = {mp_text(lam): lam for lam in ennola.enumerate_mp(q, "theta", n)}
    degrees = [(row[0], Fraction(row[col])) for row in body]
    cells = [cell for row in body for cell in row[1:]]
    inputs = {
        "conductor": sorted({int(m) for m in re.findall(r"z(\d+)", text)}),
        "rows": len(body),
        "cols": len(header) - 1,
        "rational_share": sum("z" not in cell for cell in cells) / len(cells),
    }
    return inputs, _degree_problems(degrees, labels, n, q)


def _model(data: bytes, m: int, q: int) -> tuple[dict, list[str]]:
    doc = json.loads(data)
    listed = [json.dumps(label) for part in doc["parts"] for label in part["labels"]]
    expected = {json.dumps(lam.to_json()) for lam in ennola.enumerate_mp(q, "theta", m)}
    problems = []
    if len(listed) != len(expected) or set(listed) != expected:
        problems.append(
            f"model lists {len(listed)} labels ({len(set(listed))} distinct), "
            f"expected the {len(expected)} labels of size {m}"
        )
    return {"labels": len(listed), "parts": len(doc["parts"])}, problems


def _identity(workload: str, data: bytes) -> tuple[dict, list[str]]:
    argv = workloads.CLI_ARGV[workload]
    q = _flag(argv, "--q")
    if argv[0] == "chartable":
        return _table_csv(data, _flag(argv, "--n"), q)
    return _model(data, _flag(argv, "--m"), q)


class OutputChecker:
    """Checks stdout documents; identical documents give identical results,
    so each distinct digest is parsed only once."""

    def __init__(self) -> None:
        self._results: dict[tuple[str, str], tuple[dict, list[str]]] = {}

    def check(self, workload: str, data: bytes) -> tuple[dict, list[str]]:
        """Input properties of one stdout document, and every problem in it."""
        digest = hashlib.sha256(data).hexdigest()
        key = (workload, digest)
        if key not in self._results:
            self._results[key] = _check(workload, data, digest)
        return self._results[key]


def _check(workload: str, data: bytes, digest: str) -> tuple[dict, list[str]]:
    ref = REFERENCE[workload]
    problems = []
    if ref["argv"] != workloads.CLI_ARGV[workload]:
        problems.append("reference.json was recorded for other arguments")
    if digest != ref["sha256"] or len(data) != ref["bytes"]:
        problems.append(
            f"stdout differs from the reference ({len(data)} bytes, sha256 {digest[:12]})"
        )
    try:
        inputs, found = _identity(workload, data)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        inputs, found = {}, [f"output does not parse: {exc!r}"]
    return inputs, problems + found
