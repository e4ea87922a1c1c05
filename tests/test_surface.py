"""Every module-level function and class of the library has a caller in the
library or is exported from ``ennola``. Oracles only the tests use live in
``tests/_oracles.py``."""

from __future__ import annotations

import ast
from pathlib import Path

import ennola

SRC = Path(ennola.__file__).parent


def test_every_library_name_is_used_in_src_or_exported() -> None:
    defined, used = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined += [
            (path.stem, node.name)
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = [
        f"{module}.{name}"
        for module, name in defined
        if name not in used and name not in ennola.__all__
    ]
    assert orphans == []
