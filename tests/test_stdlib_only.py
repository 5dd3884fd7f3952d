"""The package runs on the standard library alone: every module under
src/cfgdag imports only standard-library modules and cfgdag itself. Each
module also parses as Python 3.10, the oldest that requires-python in
pyproject.toml admits."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "cfgdag").glob("*.py"))


def imported_top_levels(tree: ast.Module) -> set[str]:
    """Top-level module names of every import; a relative one counts as cfgdag."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add("cfgdag" if node.level else node.module.partition(".")[0])
    return names


def test_the_package_has_modules_to_check():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
    names = imported_top_levels(tree)
    outside = sorted(n for n in names if n != "cfgdag" and n not in sys.stdlib_module_names)
    assert not outside, f"{path.name} imports {outside}"


def test_the_check_sees_a_third_party_import():
    tree = ast.parse("import hypothesis.strategies\nfrom . import cfg\nfrom json import dumps\n")
    assert imported_top_levels(tree) == {"hypothesis", "cfgdag", "json"}
