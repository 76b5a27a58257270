"""Physical invariants checked over random inputs.

Examples are derandomized and no example database is kept, so every run
draws the same inputs.
"""

import json
import tempfile

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from convgate import serialize
from convgate.core import ChoiProcess, DensityMatrix, PureState
from convgate.gate import GateSettings, build_gate, ideal_choi
from convgate.metrics import (
    PhaseCorrection,
    phase_conjugate_choi,
    phase_optimized_fidelity,
    process_fidelity,
)
from convgate.noise import NoiseSpec, apply_channel_noise, depolarize_choi
from convgate.tomography import (
    CoincidenceDataset,
    MLEOptions,
    _iterate_rho_r,
    _process_operators,
    _state_operators,
    enumerate_bases,
    enumerate_settings,
    outcome_projectors,
    prep_state,
    reconstruct,
)


# hypothesis caches constants parsed from local sources in its home directory
# (./.hypothesis by default) while collecting; a temporary one, removed at
# exit, keeps the checkout clean
_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HOME.name)


def _settings(max_examples):
    return settings(derandomize=True, deadline=None, database=None,
                    max_examples=max_examples)


angles = st.floats(0.0, 2.0 * np.pi, allow_nan=False)
probabilities = st.floats(0.0, 1.0, allow_nan=False)
phase_corrections = st.tuples(angles, angles, angles, angles).map(PhaseCorrection)
seeds = st.integers(0, 2**32 - 1)


def _ginibre(seed, d, rank):
    """Unit-trace d x d PSD matrix a a^dag of rank ``rank`` from a seeded
    complex Gaussian d x rank matrix a."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return m / np.trace(m).real


def _nondegenerate_channel(theta1, theta2):
    g = build_gate(GateSettings(theta1, theta2))
    assume(np.trace(g.conj().T @ g).real > 1e-6)
    return ideal_choi(GateSettings(theta1, theta2))


def _round_trips(obj, load, dump):
    text = json.dumps(obj, sort_keys=True)
    assert json.dumps(dump(load(json.loads(text))), sort_keys=True) == text


@_settings(50)
@given(seeds, st.integers(1, 4))
def test_state_json_text_round_trips(seed, rank):
    v = [1.0, 1j] @ np.random.default_rng(seed).normal(size=(2, 4))
    for state in (PureState(v, normalize=True), DensityMatrix(_ginibre(seed, 4, rank))):
        _round_trips(serialize.state_to_json(state), serialize.state_from_json,
                     serialize.state_to_json)


@_settings(50)
@given(seeds, st.integers(1, 16), st.floats(0.0, 2.0))
def test_choi_json_text_round_trips(seed, rank, scale):
    chi = ChoiProcess(_ginibre(seed, 16, rank), success_scale=scale)
    _round_trips(serialize.choi_to_json(chi), serialize.choi_from_json,
                 serialize.choi_to_json)


@_settings(100)
@given(angles, angles)
def test_success_scale_is_quarter_gate_norm(theta1, theta2):
    g = build_gate(GateSettings(theta1, theta2))
    chi = _nondegenerate_channel(theta1, theta2)
    assert abs(chi.success_scale - np.trace(g.conj().T @ g).real / 4.0) <= 1e-12


@_settings(50)
@given(angles, angles, probabilities, probabilities, st.none() | phase_corrections)
def test_noisy_channel_is_a_valid_choi(theta1, theta2, dep, deph, phases):
    chi = _nondegenerate_channel(theta1, theta2)
    noisy = apply_channel_noise(chi, NoiseSpec(dep, deph, phases))
    ChoiProcess(noisy.choi, success_scale=noisy.success_scale)  # validates


@_settings(8)
@given(angles, angles, st.floats(0.0, 0.5), phase_corrections)
def test_phase_optimized_fidelity_is_at_least_raw(theta1, theta2, p, planted):
    chi_th = _nondegenerate_channel(theta1, theta2)
    chi = phase_conjugate_choi(depolarize_choi(chi_th, p), planted)
    value, _ = phase_optimized_fidelity(chi, chi_th)
    assert value >= process_fidelity(chi, chi_th) - 1e-12
    assert value >= process_fidelity(phase_conjugate_choi(chi, planted.scaled(-1)), chi_th) - 1e-9


@_settings(40)
@given(st.lists(st.just(0) | st.integers(0, 1000), min_size=36, max_size=36))
def test_state_mle_is_a_unit_trace_psd_matrix(counts):
    assume(sum(counts) > 0)
    data = CoincidenceDataset(preps=[None] * 9, bases=enumerate_bases(),
                              counts=np.reshape(counts, (9, 4)))
    rho = reconstruct(data).estimate
    assert isinstance(rho, DensityMatrix)
    assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10


def _fit_reference(ops, counts, rho):
    """Log-likelihood at ``rho`` and one undiluted R-rho-R step from it, with
    the operators given one per record."""
    freqs = counts / counts.sum()
    active = freqs > 0.0
    probs = np.einsum("jab,ba->j", ops, rho).real
    r_op = np.einsum("j,jab->ab", freqs[active] / probs[active], ops[active])
    r_op = (r_op + r_op.conj().T) / 2.0
    step = r_op @ rho @ r_op
    step = (step + step.conj().T) / 2.0
    return float(freqs[active] @ np.log(probs[active])), step / np.trace(step).real


@_settings(20)
@given(seeds, st.sampled_from(["process", "state"]), st.floats(0.0, 0.8))
def test_factored_fit_matches_per_setting_kron_products(seed, kind, zero_fraction):
    rng = np.random.default_rng(seed)
    if kind == "process":
        records = enumerate_settings()
        ops = np.stack([np.kron(prep_state(prep).density().matrix.T, projector)
                        for prep, basis in records for projector in outcome_projectors(basis)])
        operators, dim = _process_operators, 16
    else:
        records = [(None, basis) for basis in enumerate_bases()]
        ops = np.concatenate([outcome_projectors(basis) for _, basis in records])
        operators, dim = _state_operators, 4
    counts = rng.integers(0, 1000, size=(len(records), 4))
    counts[rng.random(counts.shape) < zero_fraction] = 0
    assume(counts.sum() > 0)
    order = rng.permutation(len(records))  # record order must not matter
    data = CoincidenceDataset(preps=[records[i][0] for i in order],
                              bases=[records[i][1] for i in order], counts=counts[order])
    start = _ginibre(seed, dim, dim)
    left, right, factored_counts = operators(data)
    assert (left.shape[0], right.shape[0]) == ((36, 36) if kind == "process" else (1, 36))

    like, step = _fit_reference(ops, counts.reshape(-1).astype(float), start)
    fit = _iterate_rho_r(left, right, factored_counts, MLEOptions(tol=0.0, max_iter=1), start)
    assert abs(fit.log_likelihoods[0] - like) <= 1e-12
    step_like, _ = _fit_reference(ops, counts.reshape(-1).astype(float), step)
    assume(step_like > like + 1e-9)  # the undiluted step ascends, so the fit takes it
    assert np.abs(fit.estimate - step).max() <= 1e-12
