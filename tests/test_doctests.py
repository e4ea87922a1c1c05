import doctest
from pathlib import Path

import pytest

import ennola.bruteforce
import ennola.charmap
import ennola.cli
import ennola.exactnum
import ennola.multipartitions
import ennola.orbits
import ennola.partitions
import ennola.reptables
import ennola.symfunc

MODULES = [
    ennola.bruteforce,
    ennola.charmap,
    ennola.cli,
    ennola.exactnum,
    ennola.multipartitions,
    ennola.orbits,
    ennola.partitions,
    ennola.reptables,
    ennola.symfunc,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module)
    assert result.failed == 0


def test_readme_quick_start():
    readme = Path(__file__).resolve().parent.parent / "README.md"
    result = doctest.testfile(str(readme), module_relative=False)
    assert result.attempted > 0 and result.failed == 0
