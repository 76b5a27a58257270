"""The benchmark in ``perfbench/`` times ``convgate`` by wrapping functions it
names as strings; a name that no longer resolves is only reported as an
absent layer and reads 0. These tests load ``perfbench/layers.py`` as it is
and check that every name it wraps or imports still exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np
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


@pytest.mark.parametrize("kind", ["process", "state"])
def test_gap_bound_reads_the_dataset_in_its_counts_order(layers, kind):
    # GapBound pairs dataset.preps and dataset.bases with counts.reshape(-1):
    # a label order that disagreed with the counts would misread the gap
    from convgate.gate import GateSettings, ideal_choi, target_state
    from convgate.tomography import reconstruct, simulate_counts, simulate_state_counts
    if kind == "process":
        data = simulate_counts(ideal_choi(GateSettings(0.0, np.pi / 4)), 1e3, seed=28)
    else:
        data = simulate_state_counts(target_state("phi_plus").density(), 1.0, 1e3, seed=28)
    assert data.counts.min() == 0  # so the fit stops on (lambda_max(R) - 1) x N
    report = reconstruct(data)
    assert report.metadata["certificate"] == "gkg"
    bound = layers.GapBound()(data, report) * data.total()
    assert bound == pytest.approx(report.gap, abs=1e-6)
