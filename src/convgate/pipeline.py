"""End-to-end analysis pipelines producing deterministic tabular reports.

Five runners cover the benchmark analyses:

* ``run_table1``            exact conversion probabilities and fidelities,
* ``run_tomography_suite``  simulated process tomography per preset with
                            Monte Carlo error bars,
* ``run_entangler_demo``    entanglement generation from a separable input,
* ``run_discord_demo``      discord without entanglement from a mixed input,
* ``run_table3``            conversions of a noise-calibrated realistic
                            cluster state (operation vs total fidelity).

Reports are reproducible byte for byte given the same configuration: all
randomness derives from the root seed through labeled sub-seeds.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field

import numpy as np

from . import noise as _noise
from ._version import __version__
from .core import DensityMatrix, apply_choi_channel, embed_two_qubit_channel
from .errors import InvalidArgumentError
from .gate import (
    CLUSTER_TARGETS,
    CONVERSION_PRESET_NAMES,
    GateSettings,
    apply_gate,
    cluster_state_c4,
    convert_cluster,
    converted_cluster_amplitudes,
    discord_demo_input,
    ideal_choi,
    preset,
    table1_rows,
    target_state,
)
from .metrics import (
    concurrence,
    discord,
    fidelity,
    log_negativity,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
)
from .core import PureState
from .serialize import noise_spec_to_json
from .tomography import (
    GENERATOR_NOTE,
    _resamples,
    derive_seed,
    mle_density_matrix,
    mle_process_matrix,
    monte_carlo_metric_table,
    simulate_counts,
    simulate_state_counts,
)

#: Raw process-fidelity calibration targets for the four conversion presets
#: (used to fabricate realistic channel stand-ins).
RAW_FIDELITY_TARGETS = {
    "cluster-identity": 0.947,
    "ghz": 0.875,
    "dicke": 0.925,
    "bell-pair": 0.947,
}

#: State-fidelity target for the realistic cluster fixture.
REALISTIC_CLUSTER_FIDELITY = 0.915


@dataclass(frozen=True)
class ExperimentConfig:
    preset: str | None = None
    settings: GateSettings | None = None
    mean_counts: float = 1000.0
    seed: int | None = None
    noise: _noise.NoiseSpec | None = None
    monte_carlo_samples: int = 1000

    def __post_init__(self):
        if self.monte_carlo_samples < 2:
            raise InvalidArgumentError("monte_carlo_samples must be at least 2")
        if self.mean_counts <= 0:
            raise InvalidArgumentError("mean_counts must be positive")
        if self.preset is not None:
            preset(self.preset)  # validates the name

    def require_seed(self) -> int:
        if self.seed is None:
            raise InvalidArgumentError("this pipeline samples; a seed is required")
        return int(self.seed)

    def gate_settings(self, default_preset: str) -> GateSettings:
        if self.settings is not None:
            return self.settings
        return preset(self.preset or default_preset).settings

    def to_dict(self) -> dict:
        return {
            "preset": self.preset,
            "settings": None if self.settings is None else
            {"theta1": self.settings.theta1, "theta2": self.settings.theta2},
            "mean_counts": self.mean_counts,
            "seed": self.seed,
            "noise": None if self.noise is None else noise_spec_to_json(self.noise),
            "monte_carlo_samples": self.monte_carlo_samples,
        }


@dataclass(frozen=True)
class TableRow:
    label: str
    value: float
    std: float | None = None
    n_samples: int | None = None
    seed: int | None = None


@dataclass
class TableReport:
    title: str
    rows: list[TableRow]
    metadata: dict = field(default_factory=dict)

    def value(self, label: str) -> float:
        for row in self.rows:
            if row.label == label:
                return row.value
        raise KeyError(label)

    def row(self, label: str) -> TableRow:
        for row in self.rows:
            if row.label == label:
                return row
        raise KeyError(label)

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "rows": [
                {"label": r.label, "value": r.value, "std": r.std,
                 "n_samples": r.n_samples, "seed": r.seed}
                for r in self.rows
            ],
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["label", "value", "std", "n_samples", "seed"])
        for r in self.rows:
            writer.writerow([
                r.label,
                repr(r.value),
                "" if r.std is None else repr(r.std),
                "" if r.n_samples is None else r.n_samples,
                "" if r.seed is None else r.seed,
            ])
        return buf.getvalue()


def _provenance(config: ExperimentConfig | None, **extra) -> dict:
    info = {"version": __version__, "generator": GENERATOR_NOTE}
    if config is not None:
        cfg = config.to_dict()
        info["config"] = cfg
        canonical = json.dumps(cfg, sort_keys=True)
        info["config_hash"] = hashlib.sha256(canonical.encode()).hexdigest()
    info.update(extra)
    return info


def run_table1() -> TableReport:
    """Exact success probabilities and target fidelities for every documented
    conversion setting. Sampling-free; repeated runs are identical."""
    rows = []
    counters: dict[str, int] = {}
    for kind, settings, expected in table1_rows():
        index = counters.get(kind, 0)
        counters[kind] = index + 1
        out, prob = convert_cluster(settings)
        target = _table1_target(kind, settings)
        fid = abs(out.overlap(target)) ** 2
        tag = f"{kind}[{index}]"
        rows.append(TableRow(f"{tag}/success-probability", float(prob)))
        rows.append(TableRow(f"{tag}/target-fidelity", float(fid)))
    return TableReport(
        title="table1",
        rows=rows,
        metadata=_provenance(None, expected_probabilities={
            "cluster-identity": 1.0, "ghz": 0.5, "dicke": 0.3, "bell-pair": 0.25}),
    )


def _table1_target(kind: str, settings: GateSettings) -> PureState:
    if kind == "cluster-identity":
        return target_state("cluster")
    if kind == "ghz":
        return target_state("ghz4")
    if kind == "bell-pair":
        return target_state("bell_pair_product")
    if kind == "dicke":
        # documented characterization: the derived closed-form amplitude
        # pattern, not the literal Dicke state
        return PureState(converted_cluster_amplitudes(settings), normalize=True)
    raise InvalidArgumentError(f"unknown conversion kind {kind!r}")


def _noisy_channel(chi_th, config: ExperimentConfig):
    if config.noise is None or config.noise.is_zero():
        return chi_th
    return _noise.apply_channel_noise(chi_th, config.noise)


def run_tomography_suite(config: ExperimentConfig) -> TableReport:
    """Simulate process tomography per preset and report purity, raw and
    phase-optimized fidelity with Monte Carlo standard deviations."""
    seed = config.require_seed()
    names = [config.preset] if config.preset else list(CONVERSION_PRESET_NAMES)
    rows = []
    for name in names:
        chi_th = ideal_choi(preset(name).settings)
        chi_true = _noisy_channel(chi_th, config)
        data = simulate_counts(chi_true, config.mean_counts,
                               derive_seed(seed, f"tomo:{name}"))
        report = mle_process_matrix(data)
        estimate = report.estimate
        values = {
            "purity": purity(estimate),
            "fidelity-raw": process_fidelity(estimate, chi_th),
            "fidelity-optimized": phase_optimized_fidelity(estimate, chi_th)[0],
        }
        mc = monte_carlo_metric_table(
            data, config.monte_carlo_samples,
            {"purity": None, "process-fidelity": chi_th,
             "process-fidelity-optimized": chi_th},
            derive_seed(seed, f"mc:{name}"),
            start=estimate,
        )
        stds = {
            "purity": mc["purity"][1],
            "fidelity-raw": mc["process-fidelity"][1],
            "fidelity-optimized": mc["process-fidelity-optimized"][1],
        }
        for key, value in values.items():
            rows.append(TableRow(f"{name}/{key}", float(value), float(stds[key]),
                                 config.monte_carlo_samples, seed))
    return TableReport(title="table2-sim", rows=rows, metadata=_provenance(config))


def _success_std(data, n_samples: int, seed: int) -> float:
    """Monte Carlo std of the success-probability estimate
    total_counts / (9 * mean_counts)."""
    norm = 9.0 * data.mean_counts
    values = [sample.total() / norm for sample in _resamples(data, n_samples, seed, "sample")]
    return float(np.std(values, ddof=1))


def run_entangler_demo(config: ExperimentConfig) -> TableReport:
    """Feed |--> through the entangling setting; reconstruct the output state."""
    seed = config.require_seed()
    settings = config.gate_settings("entangler")
    chi_th = ideal_choi(settings)
    chi_used = _noisy_channel(chi_th, config)

    psi_in = PureState.from_labels("--")
    ideal_out, ideal_prob = apply_gate(settings, psi_in)
    target = ideal_out.density()

    rows = [
        TableRow("ideal/success-probability", float(ideal_prob)),
        TableRow("ideal/concurrence", float(concurrence(target))),
        TableRow("ideal/fidelity", float(fidelity(target, target))),
    ]

    rho_out, prob = apply_choi_channel(psi_in.density(), chi_used)
    data = simulate_state_counts(rho_out, prob, config.mean_counts,
                                 derive_seed(seed, "entangler:data"))
    recon = mle_density_matrix(data).estimate
    mc = monte_carlo_metric_table(
        data, config.monte_carlo_samples,
        {"purity": None, "fidelity": target, "concurrence": None},
        derive_seed(seed, "entangler:mc"), reconstruction="state", start=recon)
    n = config.monte_carlo_samples
    rows.append(TableRow("sampled/purity", float(purity(recon)),
                         mc["purity"][1], n, seed))
    rows.append(TableRow("sampled/fidelity", float(fidelity(recon, target)),
                         mc["fidelity"][1], n, seed))
    rows.append(TableRow("sampled/concurrence", float(concurrence(recon)),
                         mc["concurrence"][1], n, seed))
    rows.append(TableRow("sampled/success-probability", data.total() / (9.0 * config.mean_counts),
                         _success_std(data, n, derive_seed(seed, "entangler:success")), n, seed))
    return TableReport(title="entangler", rows=rows, metadata=_provenance(config))


def run_discord_demo(config: ExperimentConfig) -> TableReport:
    """Feed the mixed separable input through the discord setting; report
    entanglement measures and discord on both measured sides."""
    seed = config.require_seed()
    settings = config.gate_settings("discord-demo")
    chi_th = ideal_choi(settings)
    chi_used = _noisy_channel(chi_th, config)

    rho_in = discord_demo_input()
    ideal_out, ideal_prob = apply_choi_channel(rho_in, chi_th)
    rows = [
        TableRow("ideal/success-probability", float(ideal_prob)),
        TableRow("ideal/log-negativity", float(log_negativity(ideal_out))),
        TableRow("ideal/concurrence", float(concurrence(ideal_out))),
        TableRow("ideal/discord-q1", float(discord(ideal_out, 0))),
        TableRow("ideal/discord-q2", float(discord(ideal_out, 1))),
    ]

    rho_out, prob = apply_choi_channel(rho_in, chi_used)
    data = simulate_state_counts(rho_out, prob, config.mean_counts,
                                 derive_seed(seed, "discord:data"))
    recon = mle_density_matrix(data).estimate
    mc = monte_carlo_metric_table(
        data, config.monte_carlo_samples,
        {"log-negativity": None, "concurrence": None,
         "discord-q1": None, "discord-q2": None},
        derive_seed(seed, "discord:mc"), reconstruction="state", start=recon)
    n = config.monte_carlo_samples
    for key, fn in (("log-negativity", log_negativity), ("concurrence", concurrence)):
        rows.append(TableRow(f"sampled/{key}", float(fn(recon)), mc[key][1], n, seed))
    rows.append(TableRow("sampled/discord-q1", float(discord(recon, 0)),
                         mc["discord-q1"][1], n, seed))
    rows.append(TableRow("sampled/discord-q2", float(discord(recon, 1)),
                         mc["discord-q2"][1], n, seed))
    rows.append(TableRow("sampled/success-probability", data.total() / (9.0 * config.mean_counts),
                         _success_std(data, n, derive_seed(seed, "discord:success")), n, seed))
    return TableReport(title="discord", rows=rows, metadata=_provenance(config))


def realistic_cluster_fixture(target_fidelity: float = REALISTIC_CLUSTER_FIDELITY,
                              template: _noise.NoiseSpec | None = None) -> DensityMatrix:
    """Noise-degraded cluster state calibrated to the target state fidelity."""
    ideal = cluster_state_c4().density()
    template = template or _noise.DEFAULT_STATE_TEMPLATE
    spec = _noise.calibrate_state_noise(target_fidelity, ideal, template)
    return _noise.apply_state_noise(ideal, spec)


def calibrated_channel_noise(template: _noise.NoiseSpec | None = None,
                             targets: dict[str, float] | None = None,
                             ) -> dict[str, _noise.NoiseSpec]:
    """Per-preset noise specs calibrated to the documented raw fidelities."""
    template = template or _noise.DEFAULT_CHANNEL_TEMPLATE
    targets = targets or RAW_FIDELITY_TARGETS
    specs = {}
    for name, target in targets.items():
        chi_th = ideal_choi(preset(name).settings)
        specs[name] = _noise.calibrate_noise_to_fidelity(target, chi_th, template)
    return specs


def run_table3(config: ExperimentConfig, *, calibrate_channels: bool = True,
               mode: str = "deterministic",
               fixture_fidelity: float = REALISTIC_CLUSTER_FIDELITY) -> TableReport:
    """Convert a realistic cluster fixture with realistic channels.

    Per preset the report carries the operation fidelity (noisy vs ideal
    channel on the same realistic input) and the total fidelity (noisy
    channel on the realistic input vs ideal channel on the ideal input).
    ``config.noise`` overrides the per-preset calibrated channels; with
    ``calibrate_channels=False`` and no explicit noise the channels are
    ideal. ``mode="monte-carlo"`` replaces each noisy channel by tomographic
    reconstructions of resampled simulated data.
    """
    if mode not in ("deterministic", "monte-carlo"):
        raise InvalidArgumentError("mode must be 'deterministic' or 'monte-carlo'")
    rho_fix = realistic_cluster_fixture(fixture_fidelity)
    rho_ideal = cluster_state_c4().density()
    if config.noise is not None:
        channel_specs = {name: config.noise for name in CONVERSION_PRESET_NAMES}
    elif calibrate_channels:
        channel_specs = calibrated_channel_noise()
    else:
        channel_specs = {name: None for name in CONVERSION_PRESET_NAMES}

    rows = []
    for name in CONVERSION_PRESET_NAMES:
        chi_th = ideal_choi(preset(name).settings)
        spec = channel_specs[name]
        chi_real = chi_th if spec is None or spec.is_zero() else \
            _noise.apply_channel_noise(chi_th, spec)
        out_ideal_fix, _ = embed_two_qubit_channel(rho_fix, chi_th, CLUSTER_TARGETS)
        out_ideal, _ = embed_two_qubit_channel(rho_ideal, chi_th, CLUSTER_TARGETS)

        if mode == "deterministic":
            out_real, _ = embed_two_qubit_channel(rho_fix, chi_real, CLUSTER_TARGETS)
            rows.append(TableRow(f"{name}/operation-fidelity",
                                 float(fidelity(out_real, out_ideal_fix))))
            rows.append(TableRow(f"{name}/total-fidelity",
                                 float(fidelity(out_real, out_ideal))))
        else:
            seed = config.require_seed()
            data = simulate_counts(chi_real, config.mean_counts,
                                   derive_seed(seed, f"table3:{name}"))
            ops, tots = [], []
            base = mle_process_matrix(data).estimate
            for sample in _resamples(data, config.monte_carlo_samples, seed,
                                     f"table3:{name}:sample"):
                est = mle_process_matrix(sample, start=base).estimate
                out_real, _ = embed_two_qubit_channel(rho_fix, est, CLUSTER_TARGETS)
                ops.append(fidelity(out_real, out_ideal_fix))
                tots.append(fidelity(out_real, out_ideal))
            n = config.monte_carlo_samples
            ops, tots = np.asarray(ops), np.asarray(tots)
            rows.append(TableRow(f"{name}/operation-fidelity", float(ops.mean()),
                                 float(ops.std(ddof=1)), n, seed))
            rows.append(TableRow(f"{name}/total-fidelity", float(tots.mean()),
                                 float(tots.std(ddof=1)), n, seed))
    return TableReport(
        title="table3",
        rows=rows,
        metadata=_provenance(
            config,
            fixture_fidelity=fixture_fidelity,
            channels="explicit" if config.noise is not None else
            ("calibrated" if calibrate_channels else "ideal"),
            mode=mode,
        ),
    )
