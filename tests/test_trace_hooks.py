"""Every function and method the benchmark's tracer wraps exists in matchroid.

bench/tracing.py names what it wraps in two tuples: SPANNED, of (metric,
module, function), and COUNTED, of (metric, module, base class, method). A
traced run fails when a name is missing, so a rename fails here first. The
tuples are read with ast; nothing under bench/ is imported.
"""

import ast
from importlib import import_module
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _hooks(name):
    """The entries of the module-level tuple ``name`` in bench/tracing.py."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise LookupError(f"{TRACING.name} assigns no {name}")


SPANNED, COUNTED = _hooks("SPANNED"), _hooks("COUNTED")


@pytest.mark.parametrize("metric, module, function", SPANNED, ids=[s[0] for s in SPANNED])
def test_spanned_function_exists(metric, module, function):
    assert callable(getattr(import_module(f"matchroid.{module}"), function))


@pytest.mark.parametrize("metric, module, base, method", COUNTED, ids=[c[0] for c in COUNTED])
def test_counted_method_exists(metric, module, base, method):
    assert callable(getattr(getattr(import_module(f"matchroid.{module}"), base), method))

