"""Only `cli.run` writes to stdout, so a --json run prints exactly one JSON document."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "matchroid").glob("*.py"))


def _uses(tree, module):
    """(where, what) for every print call and every sys.stdout reference in the tree."""

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id == "print":
                    yield inner, "print"
            elif isinstance(child, ast.Attribute) and child.attr in ("stdout", "__stdout__"):
                yield inner, f"{ast.unparse(child.value)}.{child.attr}"
            elif isinstance(child, ast.ImportFrom) and child.module == "sys":
                if {"stdout", "__stdout__"} & {alias.name for alias in child.names}:
                    yield inner, "from sys import stdout"
            yield from walk(child, inner)

    return list(walk(tree, module))


def test_only_cli_run_writes_to_stdout():
    uses = []
    for path in SOURCES:
        uses += _uses(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(set(uses)) == [("cli.run", "sys.stdout")]


def test_the_guard_sees_print_and_stdout():
    tree = ast.parse(
        "import sys\nfrom sys import stdout\n"
        "def f():\n    print(1)\n    sys.stdout.write('')\n"
    )
    assert _uses(tree, "m") == [
        ("m", "from sys import stdout"), ("m.f", "print"), ("m.f", "sys.stdout"),
    ]
