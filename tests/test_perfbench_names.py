"""The benchmark in ``perfbench/`` times ``convgate`` by wrapping functions it
names as strings; a name that no longer resolves is only reported as an
absent layer and reads 0. These tests load ``perfbench/layers.py`` as it is
and check that every name it wraps or imports still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def layers():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling tracing.py
        spec = importlib.util.spec_from_file_location("perfbench_layers", PERFBENCH / "layers.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


def _resolves(name: str) -> bool:
    module, attr = name.split(".", 1)
    return hasattr(importlib.import_module(f"convgate.{module}"), attr)


def test_every_wrapped_layer_resolves(layers):
    names = [*layers.LAYERS, *layers.RECONSTRUCTIONS, *layers.CALL_COUNTS]
    assert [name for name in names if not _resolves(name)] == []


def test_every_name_the_gap_bound_imports_resolves():
    tree = next(node for node in ast.parse((PERFBENCH / "layers.py").read_text()).body
                if isinstance(node, ast.ClassDef) and node.name == "GapBound")
    imports = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module.startswith("convgate")
               for alias in node.names]
    assert imports  # the bound rebuilds its operators from convgate's enumeration
    assert [(module, name) for module, name in imports
            if not hasattr(importlib.import_module(module), name)] == []
