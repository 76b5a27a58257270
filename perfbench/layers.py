"""Layer table of the traced run and the per-layer metrics computed from it.

Each wrapped function is named ``<module>.<attr>`` relative to ``convgate``;
its span's self time adds to one per-layer time metric. Helpers that run in
microseconds inside their callers (``gate``, ``core``, noise application,
entropy evaluations inside discord) are not wrapped: their time is part of
the caller's self time. ``serialize`` and ``cli`` are not on the timed path.
"""

from __future__ import annotations

from tracing import self_times

#: Wrapped function -> per-layer time metric its self time adds to.
LAYERS = {
    "pipeline.run_tomography_suite": "pipeline.self_s",
    "pipeline.run_entangler_demo": "pipeline.self_s",
    "pipeline.run_discord_demo": "pipeline.self_s",
    "noise.calibrate_noise_to_fidelity": "noise.calibrate_s",
    "tomography.simulate_counts": "tomography.other_s",
    "tomography.simulate_state_counts": "tomography.other_s",
    "tomography._expected_counts": "tomography.expected_counts_s",
    "tomography.mle_process_matrix": "tomography.other_s",
    "tomography.mle_density_matrix": "tomography.other_s",
    "tomography._process_operators": "tomography.op_table_s",
    "tomography._state_operators": "tomography.other_s",
    # process reconstructions; under mle_density_matrix: state_rho_r_s
    "tomography._iterate_rho_r": "tomography.rho_r_s",
    "tomography.monte_carlo_metric_table": "tomography.mc_table_self_s",
    "metrics.phase_optimized_fidelity": "metrics.phase_opt_s",
    "metrics.discord": "metrics.discord_s",
    "metrics.fidelity": "metrics.other_s",
    "metrics.process_fidelity": "metrics.other_s",
    "metrics.purity": "metrics.other_s",
    "metrics.concurrence": "metrics.other_s",
    "metrics.log_negativity": "metrics.other_s",
}

#: Reconstruction entry points whose dataset and report are kept for the
#: iteration counts, convergence flags and the gap bound.
RECONSTRUCTIONS = ("tomography.mle_process_matrix", "tomography.mle_density_matrix")

#: Spans whose call count is a metric.
CALL_COUNTS = {
    "tomography._process_operators": "tomography.op_table_calls",
    "tomography.mle_process_matrix": "tomography.mle_process_calls",
    "metrics.phase_optimized_fidelity": "metrics.phase_opt_calls",
    "metrics.discord": "metrics.discord_calls",
}

#: Per-layer metrics: (name, unit, better). BENCHMARK.json lists the same;
#: README.md says which end-to-end metric and workload each should move.
PER_LAYER = (
    ("noise.calibrate_s", "s", "lower"),
    ("tomography.expected_counts_s", "s", "lower"),
    ("tomography.op_table_s", "s", "lower"),
    ("tomography.op_table_calls", "count", "lower"),
    ("tomography.rho_r_s", "s", "lower"),
    ("tomography.rho_r_iters", "count", "lower"),
    ("tomography.rho_r_iter_us", "us", "lower"),
    ("tomography.state_rho_r_s", "s", "lower"),
    ("tomography.state_rho_r_iters", "count", "lower"),
    ("tomography.mle_process_calls", "count", "lower"),
    ("tomography.mc_table_self_s", "s", "lower"),
    ("tomography.other_s", "s", "lower"),
    ("tomography.mle_unconverged", "count", "lower"),
    ("tomography.gap_bound_max", "nat", "lower"),
    ("metrics.phase_opt_s", "s", "lower"),
    ("metrics.phase_opt_calls", "count", "lower"),
    ("metrics.discord_s", "s", "lower"),
    ("metrics.discord_calls", "count", "lower"),
    ("metrics.other_s", "s", "lower"),
    ("pipeline.self_s", "s", "lower"),
    ("trace.covered_frac", "ratio", "higher"),
    ("trace.overhead_frac", "ratio", "lower"),
)

#: Counts that must repeat exactly across two traced passes at one seed.
STABLE_COUNTS = tuple(CALL_COUNTS.values()) + (
    "tomography.rho_r_iters", "tomography.state_rho_r_iters",
    "tomography.mle_unconverged")


def _roots_and_ancestry(spans):
    root, recon = {}, {}
    by_id = {s.id: s for s in spans}
    for s in spans:  # parents are opened, so listed, before their children
        parent = by_id.get(s.parent)
        root[s.id] = s.id if parent is None else root[parent.id]
        recon[s.id] = s.name if s.name in RECONSTRUCTIONS else (
            None if parent is None else recon[parent.id])
    return root, recon


def pass_metrics(spans, root_id: int) -> tuple[dict, float]:
    """Per-layer self times and counts of the spans under one pass root, and
    the root's duration (the traced pass total)."""
    selfs = self_times(spans)
    root, recon = _roots_and_ancestry(spans)
    out = {name: 0.0 for name, unit, _ in PER_LAYER if unit == "s"}
    out.update({name: 0 for name, unit, _ in PER_LAYER if unit == "count"})
    for s in spans:
        if root[s.id] != root_id or s.name not in LAYERS:
            continue
        metric = LAYERS[s.name]
        if s.name == "tomography._iterate_rho_r" and \
                recon[s.id] == "tomography.mle_density_matrix":
            metric = "tomography.state_rho_r_s"
        out[metric] += selfs[s.id]
        if s.name in CALL_COUNTS:
            out[CALL_COUNTS[s.name]] += 1
        report = s.attrs.get("result")
        if s.name in RECONSTRUCTIONS and report is not None:
            kind = "rho_r_iters" if s.name == RECONSTRUCTIONS[0] else "state_rho_r_iters"
            out[f"tomography.{kind}"] += int(report.iterations)
            out["tomography.mle_unconverged"] += int(not report.converged)
    total = next(s.duration for s in spans if s.id == root_id)
    layer_sum = sum(out[name] for name, unit, _ in PER_LAYER if unit == "s")
    out["trace.covered_frac"] = layer_sum / total
    iters = out["tomography.rho_r_iters"]
    out["tomography.rho_r_iter_us"] = 1e6 * out["tomography.rho_r_s"] / iters if iters else 0.0
    return out, total


def calibrate_seconds(spans, root_id: int) -> float:
    """Inclusive time of the noise calibrations under the set-up root."""
    root, _ = _roots_and_ancestry(spans)
    return sum((s.duration for s in spans
                if root[s.id] == root_id and s.name == "noise.calibrate_noise_to_fidelity"), 0.0)


def reconstructions(spans, root_id: int):
    """(dataset, report) of every reconstruction returned under one root."""
    root, _ = _roots_and_ancestry(spans)
    return [(s.attrs["arg"], s.attrs["result"]) for s in spans
            if root[s.id] == root_id and s.name in RECONSTRUCTIONS and "result" in s.attrs]


class GapBound:
    """Solver-independent optimality gap of a maximum-likelihood estimate.

    With relative frequencies f_j and probabilities p_j = Tr[E_j rho], the
    log-likelihood is concave and L* - L(rho) <= lambda_max(R(rho)) - 1 with
    R(rho) = sum_j f_j / p_j E_j (Glancy, Knill & Girard, NJP 14, 095017,
    2012). The operators are rebuilt from the public setting enumeration,
    independently of the reconstruction code under test.
    """

    def __init__(self):
        import numpy as np
        from convgate.tomography import enumerate_settings, outcome_projectors, prep_state

        self._np = np
        self._projectors = outcome_projectors
        self._process = {}
        for prep, basis in enumerate_settings():
            rho_t = prep_state(prep).density().matrix.T
            self._process[(prep, basis)] = np.stack(
                [np.kron(rho_t, p) for p in outcome_projectors(basis)])

    def _operators(self, dataset):
        np = self._np
        return np.concatenate([
            self._projectors(basis) if prep is None else self._process[(tuple(prep), tuple(basis))]
            for prep, basis in zip(dataset.preps, dataset.bases)])

    def __call__(self, dataset, report) -> float:
        np = self._np
        estimate = report.estimate
        rho = estimate.choi if hasattr(estimate, "choi") else estimate.matrix
        ops = self._operators(dataset)
        counts = np.asarray(dataset.counts, dtype=float).reshape(-1)
        freqs = counts / counts.sum()
        active = freqs > 0.0
        probs = np.einsum("jab,ba->j", ops[active], rho).real
        r_op = np.einsum("j,jab->ab", freqs[active] / probs, ops[active])
        return float(np.linalg.eigvalsh((r_op + r_op.conj().T) / 2.0)[-1] - 1.0)
