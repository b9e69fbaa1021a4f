"""The package imports nothing outside the standard library (pyproject: dependencies = [])."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "matchroid").glob("*.py"))


def _absolute_imports(tree):
    """Top-level module names of every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_module_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = sys.stdlib_module_names | {"matchroid"}
    assert sorted(set(_absolute_imports(tree)) - allowed) == []


def test_the_package_sources_are_found():
    assert {"__init__.py", "verifiers.py"} <= {path.name for path in SOURCES}
