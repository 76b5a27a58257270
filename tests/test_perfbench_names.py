"""The benchmark in ``perfbench/`` times ``convgate`` by wrapping functions it
names as strings; a name that no longer resolves is only reported as an
absent layer and reads 0. These tests load ``perfbench/layers.py``,
``workloads.py`` and ``tracing.py`` as they are and check that every name
they wrap, import or read still exists, and that a wrapped metric is the one
a resolved metric calls."""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from convgate.gate import ideal_choi

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(PERFBENCH))  # layers.py imports its sibling tracing.py
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        patch.setitem(sys.modules, spec.name, module)  # a dataclass looks its module up
        spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def layers():
    return _load("layers")


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


def test_every_pipeline_name_the_workloads_read_resolves():
    from convgate import pipeline
    tree = ast.parse((PERFBENCH / "workloads.py").read_text())
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and isinstance(node.value, ast.Name) and node.value.id == "pipeline"}
    assert names >= {"ExperimentConfig", "calibrated_channel_noise", "RAW_FIDELITY_TARGETS"}
    assert [name for name in names if not hasattr(pipeline, name)] == []


def test_every_workload_builds_its_configs_and_names_its_runners():
    from convgate import pipeline
    from convgate.gate import CONVERSION_PRESET_NAMES
    # process-noisy indexes the calibrated specs and the raw targets by preset
    assert tuple(pipeline.RAW_FIDELITY_TARGETS) == CONVERSION_PRESET_NAMES
    workloads, runners = _load("workloads"), set()
    for workload in workloads.WORKLOADS.values():
        for key, runner, config in workload.calls(1):
            assert isinstance(config, pipeline.ExperimentConfig)
            assert workload.expected_rows(key)
            runners.add(runner)
    assert runners == {"run_tomography_suite", "run_entangler_demo", "run_discord_demo"}
    assert all(callable(getattr(pipeline, runner)) for runner in runners)


def test_a_resolved_metric_calls_the_wrapped_function(layers):
    # the traced run installs its wrappers, then the runners resolve their
    # metrics: each metric must open the span of the function it computes
    from convgate.gate import discord_demo_input, preset
    from convgate.metrics import METRIC_NAMES, metric_function
    tracing = _load("tracing")
    chi = ideal_choi(preset("ghz").settings)
    rho = discord_demo_input()
    cases = {
        "purity": (chi, None, "metrics.purity"),
        "trace": (chi, None, None),
        "fidelity": (rho, rho, "metrics.fidelity"),
        "process-fidelity": (chi, chi, "metrics.process_fidelity"),
        "process-fidelity-optimized": (chi, chi, "metrics.phase_optimized_fidelity"),
        "concurrence": (rho, None, "metrics.concurrence"),
        "log-negativity": (rho, None, "metrics.log_negativity"),
        "discord-q1": (rho, None, "metrics.discord"),
        "discord-q2": (rho, None, "metrics.discord"),
    }
    assert tuple(cases) == METRIC_NAMES
    targets = [name for name in layers.LAYERS if name.startswith("metrics.")]
    for name, (estimate, target, span) in cases.items():
        tracer = tracing.Tracer()
        with tracer.installed(targets) as absent:
            assert absent == []
            metric_function(name, target)(estimate)
        assert [s.name for s in tracer.spans if s.parent is None] == ([span] if span else [])
