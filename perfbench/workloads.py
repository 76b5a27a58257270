"""Benchmark workloads: the runner calls one pass makes, the inputs built from
the seed, and the check applied to every report row.

Runners are looked up on ``convgate.pipeline`` at call time, never bound
here, so the traced run's patches reach them. Tolerances are the acceptance
suite's (criteria 3, 5, 6 and 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from convgate import pipeline
from convgate.gate import CONVERSION_PRESET_NAMES


@dataclass(frozen=True)
class Workload:
    name: str
    mean_counts: float
    samples: int  # Monte Carlo resamples per runner call; sets the pass length

    def calls(self, seed: int) -> list[tuple[str, str, pipeline.ExperimentConfig]]:
        """(report key, runner name, config) for each runner call of a pass."""
        def config(**kw):
            return pipeline.ExperimentConfig(mean_counts=self.mean_counts, seed=seed,
                                             monte_carlo_samples=self.samples, **kw)

        if self.name == "process-noisy":
            specs = pipeline.calibrated_channel_noise()
            return [(name, "run_tomography_suite", config(preset=name, noise=specs[name]))
                    for name in CONVERSION_PRESET_NAMES]
        if self.name == "process-ideal":
            return [("table2-sim", "run_tomography_suite", config())]
        cfg = config()
        return [("entangler", "run_entangler_demo", cfg), ("discord", "run_discord_demo", cfg)]

    def expected_rows(self, key: str) -> dict:
        """Row label -> predicate(row, rows by label) for one report."""
        if self.name == "process-noisy":
            target = pipeline.RAW_FIDELITY_TARGETS[key]
            return _process_rows(key, raw=lambda v: abs(v - target) <= 0.02,
                                 purity=lambda v: True)
        if self.name == "process-ideal":
            rows = {}
            for name in CONVERSION_PRESET_NAMES:
                rows.update(_process_rows(name, raw=lambda v: v >= 0.999,
                                          purity=lambda v: v >= 0.999))
            return rows
        if key == "entangler":
            exact = {"ideal/success-probability": (0.5, 1e-12),
                     "ideal/concurrence": (1.0, 1e-10)}
            finite_only = ("ideal/fidelity", "sampled/purity", "sampled/fidelity",
                           "sampled/concurrence", "sampled/success-probability")
        else:
            exact = {"ideal/success-probability": (7 / 16, 1e-12),
                     "ideal/log-negativity": (0.0, 1e-10),
                     "ideal/concurrence": (0.0, 1e-10),
                     "ideal/discord-q1": (0.0, 1e-6)}
            finite_only = ("sampled/log-negativity", "sampled/concurrence",
                           "sampled/discord-q1", "sampled/discord-q2",
                           "sampled/success-probability")
        rows = {label: (lambda row, _, v=v, tol=tol: abs(row.value - v) <= tol)
                for label, (v, tol) in exact.items()}
        rows.update({label: (lambda row, _: True) for label in finite_only})
        if key == "discord":
            rows["ideal/discord-q2"] = lambda row, _: row.value > 0.01
        return rows


def _process_rows(name: str, raw, purity) -> dict:
    raw_label = f"{name}/fidelity-raw"
    return {
        f"{name}/purity": lambda row, _: purity(row.value),
        raw_label: lambda row, _: raw(row.value),
        f"{name}/fidelity-optimized":
            lambda row, rows: raw_label in rows and row.value >= rows[raw_label].value,
    }


def check_report(workload: Workload, key: str, report) -> tuple[int, int]:
    """(rows expected, rows failed or missing) for one report, or for a
    runner call that raised (``report`` None). Every row must also have a
    finite value, and every Monte Carlo row a finite non-negative std."""
    expected = workload.expected_rows(key)
    if report is None:
        return len(expected), len(expected)
    rows = {row.label: row for row in report.rows}
    failed = 0
    for label, predicate in expected.items():
        row = rows.get(label)
        sampled = workload.name.startswith("process") or label.startswith("sampled/")
        ok = (row is not None and math.isfinite(row.value)
              and (not sampled or (row.std is not None and math.isfinite(row.std)
                                   and row.std >= 0.0))
              and predicate(row, rows))
        failed += not ok
    return len(expected), failed


WORKLOADS = {
    w.name: w for w in (
        Workload("process-noisy", mean_counts=1e4, samples=2),
        Workload("process-ideal", mean_counts=1e6, samples=2),
        Workload("state-mc", mean_counts=1e3, samples=10),
    )
}
