"""Every private name defined in the package is used somewhere in it.

A private module-level function, class or constant, or a private method, that
nothing in ``src/matchroid`` reads outside its own definition is dead code:
tests may still call it, but the program never does.
"""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "matchroid").glob("*.py"))


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _definitions(tree, module):
    """(name, path) of each private module-level function, class and constant and
    each private method; ``path`` is the qualified name of the definition."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, f"{module}.{node.name}"
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        if _private(item.name):
                            yield item.name, f"{module}.{node.name}.{item.name}"
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            names = target.elts if isinstance(target, ast.Tuple) else [target]
            for name in names:
                if isinstance(name, ast.Name) and _private(name.id):
                    yield name.id, f"{module}.{name.id}"


def _references(tree, module):
    """(name, path) of each read of a name or attribute; ``path`` is the qualified
    name of the innermost enclosing definition."""

    def walk(node, where):
        for child in ast.iter_child_nodes(node):
            inner = where
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{where}.{child.name}"
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                yield child.id, inner
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                yield child.attr, inner
            yield from walk(child, inner)

    return list(walk(tree, module))


def _unused(trees):
    """The paths of the private definitions that no read outside themselves reaches."""
    reads = {}
    for module, tree in trees.items():
        for name, where in _references(tree, module):
            reads.setdefault(name, []).append(where)

    def outside(where, path):
        return where != path and not where.startswith(path + ".")

    return sorted(
        path
        for module, tree in trees.items()
        for name, path in _definitions(tree, module)
        if not any(outside(where, path) for where in reads.get(name, []))
    )


def test_every_private_name_is_used():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    assert _unused(trees) == []


def test_the_guard_sees_unused_private_names():
    tree = ast.parse(
        "_USED, _IDLE = 1, 2\n"
        "_ALONE: int = 3\n"
        "def _recursive(n):\n    return _recursive(n - 1) + _USED\n"
        "def _called():\n    pass\n"
        "class _Idle:\n    pass\n"
        "class Public:\n"
        "    def _helper(self):\n        return _called()\n"
        "    def _dead(self):\n        return self._helper()\n"
        "    def __init__(self):\n        pass\n"
    )
    assert _unused({"m": tree}) == [
        "m.Public._dead", "m._ALONE", "m._IDLE", "m._Idle", "m._recursive",
    ]
