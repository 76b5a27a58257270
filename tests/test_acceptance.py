"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line. Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import pytest

from convgate.core import PureState, apply_operator
from convgate.gate import (
    CONVERSION_PRESET_NAMES,
    GateSettings,
    apply_gate,
    build_gate,
    cluster_state_c4,
    convert_cluster,
    converted_cluster_amplitudes,
    discord_demo_input,
    gate_coefficients,
    ideal_choi,
    preset,
    table1_rows,
)
from convgate.core import apply_choi_channel
from convgate.metrics import (
    PhaseCorrection,
    concurrence,
    discord,
    log_negativity,
    metric_function,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
)
from convgate.noise import (
    DEFAULT_CHANNEL_TEMPLATE,
    NoiseSpec,
    apply_noise,
    calibrate_noise_to_fidelity,
)
from convgate.pipeline import (
    RAW_FIDELITY_TARGETS,
    ExperimentConfig,
    run_table3,
)
from convgate.tomography import (
    derive_seed,
    mle_process_matrix,
    monte_carlo_metric_table,
    simulate_counts,
)

EXPECTED_PROBABILITIES = {
    "cluster-identity": 1.0, "ghz": 0.5, "dicke": 0.3, "bell-pair": 0.25,
}


def _report(number: int, name: str, checks: dict[str, bool], elapsed: float,
            budget: float) -> None:
    ok = all(checks.values()) and elapsed <= budget
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s / budget {budget:.0f}s]")
    for label, passed in checks.items():
        if not passed:
            print(f"  failed check: {label}")
    assert elapsed <= budget, f"criterion {number} exceeded its runtime budget"
    for label, passed in checks.items():
        assert passed, f"criterion {number}: {label}"


def test_criterion_1_table1_exactness():
    t0 = time.perf_counter()
    checks = {}
    for i, (kind, settings, expected) in enumerate(table1_rows()):
        out, prob = convert_cluster(settings)
        checks[f"row {i} ({kind}) probability"] = (
            abs(prob - EXPECTED_PROBABILITIES[kind]) <= 1e-12
            and abs(prob - float(expected)) <= 1e-12)
        closed = PureState(converted_cluster_amplitudes(settings), normalize=True)
        fid = abs(out.overlap(closed)) ** 2
        checks[f"row {i} ({kind}) closed-form fidelity"] = fid >= 1.0 - 1e-10
    _report(1, "conversion table exactness", checks, time.perf_counter() - t0, 1.0)


def test_criterion_2_operator_conversion_consistency():
    t0 = time.perf_counter()
    cluster = cluster_state_c4()
    worst = 0.0
    for theta1 in np.linspace(0.0, np.pi, 20):
        for theta2 in np.linspace(0.0, np.pi, 20):
            s = GateSettings(theta1, theta2)
            c = gate_coefficients(s)
            raw = apply_operator(cluster, build_gate(s), (1, 2)).amplitudes
            expected = np.zeros(16, dtype=complex)
            expected[0b0000] = 0.5 * (c.alpha1 - c.beta1)
            expected[0b1111] = 0.5 * -(c.alpha2 - c.beta2)
            expected[0b0011] = 0.5 * c.mu1
            expected[0b1100] = 0.5 * c.mu1
            expected[0b0101] = 0.5 * -c.mu2
            expected[0b1010] = 0.5 * -c.mu2
            worst = max(worst, float(np.abs(raw - expected).max()))
    checks = {f"max amplitude deviation {worst:.2e} <= 1e-12": worst <= 1e-12}
    _report(2, "operator/conversion consistency on 20x20 grid", checks,
            time.perf_counter() - t0, 5.0)


def test_criterion_3_tomography_round_trip():
    t0 = time.perf_counter()
    checks = {}
    for name in CONVERSION_PRESET_NAMES:
        chi_th = ideal_choi(preset(name).settings)
        data = simulate_counts(chi_th, 1e6, seed=derive_seed(1001, f"roundtrip:{name}"))
        report = mle_process_matrix(data)
        fid = process_fidelity(report.estimate, chi_th)
        pur = purity(report.estimate)
        gains = np.diff(report.log_likelihoods)
        checks[f"{name} fidelity {fid:.6f} >= 0.999"] = fid >= 0.999
        checks[f"{name} purity {pur:.6f} >= 0.999"] = pur >= 0.999
        checks[f"{name} log-likelihood non-decreasing"] = bool((gains >= 0).all())
    _report(3, "tomography round trip at 1e6 counts", checks,
            time.perf_counter() - t0, 120.0)


def test_criterion_4_phase_optimization_recovery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(44)
    checks = {}
    for trial in range(20):
        name = CONVERSION_PRESET_NAMES[trial % 4]
        chi_th = ideal_choi(preset(name).settings)
        correction = PhaseCorrection(tuple(rng.uniform(0.0, 2 * np.pi, 4)))
        planted = apply_noise(chi_th, NoiseSpec(mode_phases=correction))
        raw = process_fidelity(planted, chi_th)
        value, _ = phase_optimized_fidelity(planted, chi_th)
        checks[f"trial {trial} ({name}) recovery {value:.8f}"] = value >= 0.999999
        checks[f"trial {trial} optimized >= raw"] = value >= raw - 1e-12
    _report(4, "four-phase optimization recovery", checks,
            time.perf_counter() - t0, 60.0)


def test_criterion_5_entangler_demo_ideal():
    t0 = time.perf_counter()
    out, prob = apply_gate(preset("entangler").settings, PureState.from_labels("--"))
    conc = concurrence(out.density())
    checks = {
        f"success probability {prob!r} = 1/2 within 1e-12": abs(prob - 0.5) <= 1e-12,
        f"concurrence {conc!r} = 1 within 1e-10": abs(conc - 1.0) <= 1e-10,
    }
    _report(5, "ideal entangler demonstration", checks, time.perf_counter() - t0, 10.0)


def test_criterion_6_discord_demo_ideal():
    t0 = time.perf_counter()
    chi = ideal_choi(preset("discord-demo").settings)
    out, prob = apply_choi_channel(discord_demo_input(), chi)
    ln = log_negativity(out)
    conc = concurrence(out)
    d1 = discord(out, 0)
    d2 = discord(out, 1)
    checks = {
        f"success probability {prob!r} = 7/16 within 1e-12": abs(prob - 7 / 16) <= 1e-12,
        f"log-negativity {ln!r} = 0 within 1e-10": abs(ln) <= 1e-10,
        f"concurrence {conc!r} = 0 within 1e-10": abs(conc) <= 1e-10,
        f"discord on qubit 1 {d1!r} = 0 within 1e-6": abs(d1) <= 1e-6,
        f"discord on qubit 2 {d2!r} > 0.01": d2 > 0.01,
    }
    _report(6, "ideal discord demonstration", checks, time.perf_counter() - t0, 30.0)


def test_criterion_7_noise_calibration_pipeline():
    t0 = time.perf_counter()
    checks = {}
    for name, target in RAW_FIDELITY_TARGETS.items():
        chi_th = ideal_choi(preset(name).settings)
        spec = calibrate_noise_to_fidelity(target, chi_th, DEFAULT_CHANNEL_TEMPLATE)
        chi_noisy = apply_noise(chi_th, spec)
        achieved = process_fidelity(chi_noisy, chi_th)
        checks[f"{name} calibration {achieved:.6f} within 1e-4 of {target}"] = (
            abs(achieved - target) <= 1e-4)
        data = simulate_counts(chi_noisy, 1e5, seed=derive_seed(707, f"calib:{name}"))
        estimate = mle_process_matrix(data).estimate
        raw = process_fidelity(estimate, chi_th)
        checks[f"{name} reconstructed raw {raw:.4f} within 0.02 of {target}"] = (
            abs(raw - target) <= 0.02)
        mean, std = monte_carlo_metric_table(
            data, 100, {"process-fidelity": metric_function("process-fidelity", chi_th)},
            derive_seed(707, f"calib-mc:{name}"), start=estimate)["process-fidelity"]
        checks[f"{name} Monte Carlo std {std:.2e} reported from 100 resamples"] = (
            np.isfinite(std) and std > 0.0 and np.isfinite(mean))
    _report(7, "noise calibration and simulated tomography", checks,
            time.perf_counter() - t0, 600.0)


def test_criterion_8_realistic_cluster_pipeline():
    t0 = time.perf_counter()
    checks = {}
    ideal_run = run_table3(ExperimentConfig(seed=1), calibrate_channels=False)
    identity_total = ideal_run.value("cluster-identity/total-fidelity")
    checks[f"identity-preset total {identity_total!r} = 0.915 within 1e-6"] = (
        abs(identity_total - 0.915) <= 1e-6)
    calibrated = run_table3(ExperimentConfig(seed=1))
    for name in CONVERSION_PRESET_NAMES:
        op = calibrated.value(f"{name}/operation-fidelity")
        tot = calibrated.value(f"{name}/total-fidelity")
        checks[f"{name} operation {op:.4f} >= total {tot:.4f}"] = op >= tot
        checks[f"{name} total {tot:.4f} in [0.80, 0.95]"] = 0.80 <= tot <= 0.95
    _report(8, "realistic-cluster conversion consistency", checks,
            time.perf_counter() - t0, 120.0)


def test_criterion_9_statistical_scaling():
    t0 = time.perf_counter()
    chi_th = ideal_choi(preset("ghz").settings)
    spec = calibrate_noise_to_fidelity(RAW_FIDELITY_TARGETS["ghz"], chi_th,
                                       DEFAULT_CHANNEL_TEMPLATE)
    chi_noisy = apply_noise(chi_th, spec)
    stds = {}
    for mean_counts in (1e3, 1e4):
        data = simulate_counts(chi_noisy, mean_counts,
                               seed=derive_seed(2026, f"scaling:{mean_counts}"))
        _, std = monte_carlo_metric_table(
            data, 100, {"process-fidelity": metric_function("process-fidelity", chi_th)},
            derive_seed(2026, f"scaling-mc:{mean_counts}"),
            start=mle_process_matrix(data).estimate)["process-fidelity"]
        stds[mean_counts] = std
    ratio = stds[1e3] / stds[1e4]
    lo, hi = 0.7 * np.sqrt(10), 1.3 * np.sqrt(10)
    checks = {f"std ratio {ratio:.3f} within sqrt(10) +/- 30% [{lo:.2f}, {hi:.2f}]":
              lo <= ratio <= hi}
    _report(9, "Monte Carlo std scaling with counts", checks,
            time.perf_counter() - t0, 300.0)
