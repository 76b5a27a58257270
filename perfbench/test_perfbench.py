"""Tests of the benchmark's own code: self-time arithmetic, the tracer's
patching, per-layer aggregation and the metric names in BENCHMARK.json.

Run with ``python3 -m pytest -q perfbench``.
"""

import json
import re
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from convgate.pipeline import TableReport, TableRow  # noqa: E402
from tracing import Span, Tracer, covered_length, self_times  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert covered_length([(1, 5), (2, 3)], 0, 10) == 4
    assert covered_length([(-1, 2), (9, 12)], 0, 10) == 3
    assert covered_length([(4, 4), (6, 5)], 0, 10) == 0
    assert covered_length([], 0, 10) == 0


def test_self_time_is_duration_minus_child_coverage():
    spans = [Span(0, "root", None, 0.0, 10.0),
             Span(1, "a", 0, 1.0, 4.0),
             Span(2, "b", 1, 2.0, 3.0),
             Span(3, "c", 0, 6.0, 9.0)]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 1.0, 3: 3.0}
    assert sum(self_times(spans).values()) == spans[0].duration


@pytest.fixture
def fake_package(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod_a = types.ModuleType("fakepkg.a")
    mod_b = types.ModuleType("fakepkg.b")

    def leaf(x):
        return x + 1

    def outer(x):
        return mod_a.leaf(x) * 2

    mod_a.leaf, mod_a.outer = leaf, outer
    mod_b.leaf = leaf  # a second binding, as ``from .a import leaf`` makes
    for name, module in (("fakepkg", pkg), ("fakepkg.a", mod_a), ("fakepkg.b", mod_b)):
        monkeypatch.setitem(sys.modules, name, module)
    return mod_a, mod_b


def test_tracer_patches_every_binding_and_restores(fake_package):
    mod_a, mod_b = fake_package
    leaf = mod_a.leaf
    tracer = Tracer(keep={"a.leaf"})
    with tracer.installed(["a.leaf", "a.outer", "a.removed", "gone.fn"],
                          package="fakepkg") as absent:
        assert absent == ["a.removed", "gone.fn"]
        with tracer.span("pass"):
            assert mod_a.outer(1) == 4
            assert mod_b.leaf(5) == 6
    assert mod_a.leaf is leaf and mod_b.leaf is leaf
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("pass", None), ("a.outer", 0), ("a.leaf", 1), ("a.leaf", 0)]
    assert tracer.spans[2].attrs == {"arg": 1, "result": 2}
    assert "result" not in tracer.spans[1].attrs


def test_tracer_patches_convgate_bindings():
    import convgate.pipeline
    import convgate.tomography

    original = convgate.tomography.mle_process_matrix
    tracer = Tracer()
    with tracer.installed(["tomography.mle_process_matrix"]):
        assert convgate.tomography.mle_process_matrix is not original
        assert convgate.pipeline.mle_process_matrix is convgate.tomography.mle_process_matrix
    assert convgate.pipeline.mle_process_matrix is original


def test_pass_metrics_attributes_self_time_by_layer():
    report = types.SimpleNamespace(iterations=7, converged=False)
    spans = [Span(0, "pass", None, 0.0, 10.0),
             Span(1, "tomography.mle_density_matrix", 0, 1.0, 4.0,
                  {"arg": None, "result": report}),
             Span(2, "tomography._iterate_rho_r", 1, 1.5, 3.5),
             Span(3, "metrics.discord", 0, 5.0, 9.0),
             Span(4, "setup", None, 11.0, 12.0),
             Span(5, "metrics.discord", 4, 11.0, 12.0)]
    out, total = layers.pass_metrics(spans, 0)
    assert total == 10.0
    assert out["tomography.state_rho_r_s"] == 2.0 and out["tomography.rho_r_s"] == 0.0
    assert out["tomography.other_s"] == 1.0
    assert out["metrics.discord_s"] == 4.0 and out["metrics.discord_calls"] == 1
    assert out["tomography.state_rho_r_iters"] == 7
    assert out["tomography.mle_unconverged"] == 1
    assert out["trace.covered_frac"] == pytest.approx(0.7)


def test_gap_bound_bounds_the_likelihood_gap():
    import numpy as np
    from convgate.core import DensityMatrix, PureState
    from convgate.tomography import mle_density_matrix, simulate_state_counts

    data = simulate_state_counts(PureState.from_labels("+H").density(), 0.5, 1e3, seed=5)
    fit = mle_density_matrix(data)
    mixed = types.SimpleNamespace(estimate=DensityMatrix(np.eye(4) / 4))
    gap = layers.GapBound()
    assert 0.0 <= gap(data, fit) < 1e-3
    freqs = data.counts.reshape(-1) / data.total()
    probs = np.full(36, 0.25)  # each outcome of each basis is 1/4 for I/4
    loss = fit.final_log_likelihood - float(freqs[freqs > 0] @ np.log(probs[freqs > 0]))
    assert gap(data, mixed) >= loss > 0.0


def test_check_report_counts_failed_and_missing_rows():
    workload = workloads.WORKLOADS["process-noisy"]

    def report(raw, optimized, std=1e-3, drop=None):
        rows = [TableRow("ghz/purity", 0.8, std), TableRow("ghz/fidelity-raw", raw, std),
                TableRow("ghz/fidelity-optimized", optimized, std)]
        return TableReport("t", [r for r in rows if r.label != drop])

    assert workloads.check_report(workload, "ghz", report(0.87, 0.9)) == (3, 0)
    assert workloads.check_report(workload, "ghz", report(0.85, 0.9)) == (3, 1)
    assert workloads.check_report(workload, "ghz", report(0.87, 0.86)) == (3, 1)
    assert workloads.check_report(workload, "ghz", report(0.87, 0.9, std=float("nan"))) == (3, 3)
    assert workloads.check_report(workload, "ghz", report(0.87, 0.9, drop="ghz/purity")) == (3, 1)
    assert workloads.check_report(workload, "ghz", None) == (3, 3)


def test_every_wrapped_layer_has_a_reported_metric():
    names = {name for name, _, _ in layers.PER_LAYER}
    assert set(layers.LAYERS.values()) <= names
    assert set(layers.CALL_COUNTS.values()) <= names
    assert set(layers.STABLE_COUNTS) <= names


def test_benchmark_json_names_match_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in spec["workloads"])
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        layers.PER_LAYER)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
