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
from .core import DensityMatrix, apply_choi_channel
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
    metric_function,
)
from .core import PureState
from .serialize import noise_spec_to_json
from .tomography import (
    GENERATOR_NOTE,
    CoincidenceDataset,
    _resamples,
    derive_seed,
    monte_carlo_metric_table,
    reconstruct,
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
        if not 0.0 < self.mean_counts < np.inf:
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
        return self.row(label).value

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
            name: float(preset(name).expected_success) for name in CONVERSION_PRESET_NAMES}),
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


def _noisy_channel(chi_th, spec: _noise.NoiseSpec | None):
    """``chi_th`` under ``spec``; no spec or a zero spec leaves it ideal."""
    if spec is None or spec.is_zero():
        return chi_th
    return _noise.apply_channel_noise(chi_th, spec)


def run_tomography_suite(config: ExperimentConfig) -> TableReport:
    """Simulate process tomography per preset and report purity, raw and
    phase-optimized fidelity with Monte Carlo standard deviations."""
    seed = config.require_seed()
    names = [config.preset] if config.preset else list(CONVERSION_PRESET_NAMES)
    rows = []
    for name in names:
        chi_th = ideal_choi(preset(name).settings)
        chi_true = _noisy_channel(chi_th, config.noise)
        data = simulate_counts(chi_true, config.mean_counts,
                               derive_seed(seed, f"tomo:{name}"))
        metrics = {
            "purity": metric_function("purity"),
            "fidelity-raw": metric_function("process-fidelity", chi_th),
            "fidelity-optimized": metric_function("process-fidelity-optimized", chi_th),
        }
        rows += _sampled_rows(name, data, metrics, config.monte_carlo_samples, seed,
                              derive_seed(seed, f"mc:{name}"))
    return TableReport(title="table2-sim", rows=rows, metadata=_provenance(config))


def _sampled_rows(prefix: str, data: CoincidenceDataset, metrics: dict,
                  n: int, seed: int, mc_seed: int) -> list[TableRow]:
    """One row per metric: its value on the reconstruction of ``data`` and its
    Monte Carlo std over ``n`` resamples of ``data`` drawn from ``mc_seed``."""
    estimate = reconstruct(data).estimate
    table = monte_carlo_metric_table(data, n, metrics, mc_seed, start=estimate)
    return [TableRow(f"{prefix}/{name}", float(fn(estimate)), table[name][1], n, seed)
            for name, fn in metrics.items()]


def _success_row(data: CoincidenceDataset, n: int, seed: int, mc_seed: int) -> TableRow:
    """The success-probability estimate total_counts / (9 * mean_counts) with
    its Monte Carlo std."""
    norm = 9.0 * data.mean_counts
    values = [sample.total() / norm for sample in _resamples(data, n, mc_seed, "sample")]
    return TableRow("sampled/success-probability", data.total() / norm,
                    float(np.std(values, ddof=1)), n, seed)


def _state_demo(config: ExperimentConfig, title: str, settings: GateSettings,
                rho_in: DensityMatrix, rows: list[TableRow], metrics: dict) -> TableReport:
    """Send ``rho_in`` through the configured channel, simulate and
    reconstruct the output-state tomography, and report ``rows`` followed by
    the sampled ``metrics`` and the sampled success probability."""
    seed = config.require_seed()
    chi_used = _noisy_channel(ideal_choi(settings), config.noise)
    rho_out, prob = apply_choi_channel(rho_in, chi_used)
    data = simulate_state_counts(rho_out, prob, config.mean_counts,
                                 derive_seed(seed, f"{title}:data"))
    n = config.monte_carlo_samples
    rows = rows + _sampled_rows("sampled", data, metrics, n, seed,
                                derive_seed(seed, f"{title}:mc"))
    rows.append(_success_row(data, n, seed, derive_seed(seed, f"{title}:success")))
    return TableReport(title=title, rows=rows, metadata=_provenance(config))


def run_entangler_demo(config: ExperimentConfig) -> TableReport:
    """Feed |--> through the entangling setting; reconstruct the output state."""
    settings = config.gate_settings("entangler")
    psi_in = PureState.from_labels("--")
    ideal_out, ideal_prob = apply_gate(settings, psi_in)
    target = ideal_out.density()
    rows = [
        TableRow("ideal/success-probability", float(ideal_prob)),
        TableRow("ideal/concurrence", float(concurrence(target))),
        TableRow("ideal/fidelity", float(fidelity(target, target))),
    ]
    metrics = {name: metric_function(name, target)
               for name in ("purity", "fidelity", "concurrence")}
    return _state_demo(config, "entangler", settings, psi_in.density(), rows, metrics)


def run_discord_demo(config: ExperimentConfig) -> TableReport:
    """Feed the mixed separable input through the discord setting; report
    entanglement measures and discord on both measured sides."""
    settings = config.gate_settings("discord-demo")
    rho_in = discord_demo_input()
    ideal_out, ideal_prob = apply_choi_channel(rho_in, ideal_choi(settings))
    rows = [
        TableRow("ideal/success-probability", float(ideal_prob)),
        TableRow("ideal/log-negativity", float(log_negativity(ideal_out))),
        TableRow("ideal/concurrence", float(concurrence(ideal_out))),
        TableRow("ideal/discord-q1", float(discord(ideal_out, 0))),
        TableRow("ideal/discord-q2", float(discord(ideal_out, 1))),
    ]
    metrics = {name: metric_function(name)
               for name in ("log-negativity", "concurrence", "discord-q1", "discord-q2")}
    return _state_demo(config, "discord", settings, rho_in, rows, metrics)


def realistic_cluster_fixture() -> DensityMatrix:
    """Noise-degraded cluster state calibrated to REALISTIC_CLUSTER_FIDELITY."""
    ideal = cluster_state_c4().density()
    spec = _noise.calibrate_state_noise(REALISTIC_CLUSTER_FIDELITY, ideal,
                                        _noise.DEFAULT_STATE_TEMPLATE)
    return _noise.apply_state_noise(ideal, spec)


def calibrated_channel_noise(targets: dict[str, float] | None = None,
                             ) -> dict[str, _noise.NoiseSpec]:
    """Per-preset scalings of the default channel template calibrated to the
    documented raw fidelities."""
    targets = targets or RAW_FIDELITY_TARGETS
    specs = {}
    for name, target in targets.items():
        chi_th = ideal_choi(preset(name).settings)
        specs[name] = _noise.calibrate_noise_to_fidelity(
            target, chi_th, _noise.DEFAULT_CHANNEL_TEMPLATE)
    return specs


def run_table3(config: ExperimentConfig, *, calibrate_channels: bool = True,
               mode: str = "deterministic") -> TableReport:
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
    rho_fix = realistic_cluster_fixture()
    rho_ideal = cluster_state_c4().density()
    if config.noise is not None:
        channel_specs = {name: config.noise for name in CONVERSION_PRESET_NAMES}
    elif calibrate_channels:
        channel_specs = calibrated_channel_noise()
    else:
        channel_specs = {name: None for name in CONVERSION_PRESET_NAMES}

    def output(chi, rho=rho_fix):
        return apply_choi_channel(rho, chi, CLUSTER_TARGETS)[0]

    rows = []
    for name in CONVERSION_PRESET_NAMES:
        chi_th = ideal_choi(preset(name).settings)
        chi_real = _noisy_channel(chi_th, channel_specs[name])
        out_ideal_fix, out_ideal = output(chi_th), output(chi_th, rho_ideal)
        metrics = {
            "operation-fidelity": lambda chi: fidelity(output(chi), out_ideal_fix),
            "total-fidelity": lambda chi: fidelity(output(chi), out_ideal),
        }
        if mode == "deterministic":
            rows += [TableRow(f"{name}/{key}", float(fn(chi_real)))
                     for key, fn in metrics.items()]
        else:
            seed = config.require_seed()
            data = simulate_counts(chi_real, config.mean_counts,
                                   derive_seed(seed, f"table3:{name}"))
            n = config.monte_carlo_samples
            table = monte_carlo_metric_table(data, n, metrics, seed,
                                             label=f"table3:{name}:sample")
            rows += [TableRow(f"{name}/{key}", mean, std, n, seed)
                     for key, (mean, std) in table.items()]
    return TableReport(
        title="table3",
        rows=rows,
        metadata=_provenance(
            config,
            fixture_fidelity=REALISTIC_CLUSTER_FIDELITY,
            channels="explicit" if config.noise is not None else
            ("calibrated" if calibrate_channels else "ideal"),
            mode=mode,
        ),
    )
