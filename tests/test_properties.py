"""Physical invariants checked over random inputs.

Examples are derandomized and no example database is kept, so every run
draws the same inputs.
"""

import functools
import itertools
import json
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from convgate import serialize
from convgate.core import (
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_choi_channel,
    apply_operator,
    channel_output_unnormalized,
    partial_trace,
)
from convgate.errors import InvalidArgumentError
from convgate.gate import PRESET_NAMES, GateSettings, build_gate, ideal_choi, preset
from convgate.metrics import (
    PhaseCorrection,
    discord,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
)
from convgate.noise import DEFAULT_CHANNEL_TEMPLATE, NoiseSpec, apply_noise
from convgate.tomography import (
    CoincidenceDataset,
    MLEOptions,
    _PROCESS_FRAME,
    _STATE_FRAME,
    _clamped,
    _NULL_EIGENVALUE,
    _iterate_rho_r,
    _lagrangian_gap,
    _process_operators,
    _state_operators,
    enumerate_bases,
    enumerate_preparations,
    enumerate_settings,
    outcome_projectors,
    prep_state,
    reconstruct,
    simulate_counts,
    simulate_state_counts,
)

from conftest import expand_operator, random_unitary
from test_metrics import DISCORD_REFINEMENT_TOL


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
    noisy = apply_noise(chi, NoiseSpec(dep, deph, phases))
    ChoiProcess(noisy.choi, success_scale=noisy.success_scale)  # validates


@_settings(50)
@given(seeds, angles, angles, probabilities, probabilities, phase_corrections)
def test_channel_noise_equals_state_noise_around_the_channel(seed, theta1, theta2, p, q,
                                                             phases):
    chi = _nondegenerate_channel(theta1, theta2)
    rho = DensityMatrix(_ginibre(seed, 4, int(seed % 4) + 1), validate=False)
    unnormalized = channel_output_unnormalized(rho, chi)
    prob = np.trace(unnormalized).real
    assume(prob > 1e-6)
    out = DensityMatrix(unnormalized / prob, validate=False)

    def close(a, b):
        return np.abs(a.matrix - b.matrix).max() <= 1e-12

    # dephasing the channel's outputs dephases its output state
    dephase = NoiseSpec(dephasing_p=q)
    assert close(apply_choi_channel(rho, apply_noise(chi, dephase))[0], apply_noise(out, dephase))
    # phases (a, b, c, d) on the channel are (a, b) on its input and (c, d) on its output
    a, b, c, d = phases.phases
    before, after = (NoiseSpec(mode_phases=PhaseCorrection(pair + (0.0, 0.0)))
                     for pair in ((a, b), (c, d)))
    shifted = apply_choi_channel(apply_noise(rho, before), chi)[0]
    assert close(apply_choi_channel(rho, apply_noise(chi, NoiseSpec(mode_phases=phases)))[0],
                 apply_noise(shifted, after))
    # depolarizing mixes the success probability linearly with the white
    # channel's 1, and the output state with 1/4 at the white channel's share
    mixed_out, mixed_prob = apply_choi_channel(rho, apply_noise(chi, NoiseSpec(depolarizing_p=p)))
    assert abs(mixed_prob - ((1.0 - p) * prob + p)) <= 1e-12
    assert close(mixed_out, apply_noise(out, NoiseSpec(depolarizing_p=p / mixed_prob)))


@_settings(8)
@given(angles, angles, st.floats(0.0, 0.5), phase_corrections,
       st.sampled_from([0.0, 1e-13, 1e-10, 5e-10]))
# a white admixture of 1e-13 leaves the target's purity 1.9e-13 below 1: pure
# by the purity rule, so the overlap polynomial is the fidelity
@example(0.0, np.pi / 4, 0.05, PhaseCorrection((0.3, 1.1, 2.0, 0.7)), 1e-13)
# one of 1e-10 leaves it 1.9e-10 below 1: mixed by the rule, so with a mixed
# estimate the phase search raises
@example(0.0, np.pi / 4, 0.05, PhaseCorrection((0.3, 1.1, 2.0, 0.7)), 1e-10)
def test_phase_optimized_fidelity_is_at_least_raw(theta1, theta2, p, planted, white):
    pure = _nondegenerate_channel(theta1, theta2)
    chi_th = ChoiProcess((1.0 - white) * pure.choi + white * np.eye(16) / 16.0)
    chi = apply_noise(pure, NoiseSpec(depolarizing_p=p, mode_phases=planted))
    if white >= 1e-10 and purity(chi) < 1.0 - 1e-12:
        with pytest.raises(InvalidArgumentError, match="needs a pure estimate or target"):
            phase_optimized_fidelity(chi, chi_th)
        return
    value, correction = phase_optimized_fidelity(chi, chi_th)
    assert value >= process_fidelity(chi, chi_th) - 1e-12
    undone = apply_noise(chi, NoiseSpec(mode_phases=planted.scaled(-1)))
    assert value >= process_fidelity(undone, chi_th) - 1e-9
    # the returned phases reach the returned value
    reached = process_fidelity(apply_noise(chi, NoiseSpec(mode_phases=correction)), chi_th)
    assert abs(reached - value) <= 1e-9


@_settings(50)
@given(seeds, st.integers(3, 5), angles, angles, probabilities, st.data())
def test_success_probability_depends_only_on_the_targets_marginal(seed, qubits, theta1,
                                                                  theta2, dep, data):
    targets = tuple(sorted(data.draw(st.permutations(range(qubits)))[:2]))
    chi = apply_noise(_nondegenerate_channel(theta1, theta2), NoiseSpec(depolarizing_p=dep))
    rho = DensityMatrix(_ginibre(seed, 2**qubits, int(seed % 2**qubits) + 1), validate=False)
    on_register = np.trace(channel_output_unnormalized(rho, chi, targets)).real
    on_marginal = np.trace(channel_output_unnormalized(partial_trace(rho, targets), chi)).real
    assert abs(on_register - on_marginal) <= 1e-12


@_settings(25)
@given(seeds, st.integers(1, 4))
def test_operator_on_any_ordered_targets_equals_the_kronecker_embedding(seed, qubits):
    rng = np.random.default_rng(seed)
    for k in range(1, qubits + 1):
        for targets in itertools.permutations(range(qubits), k):
            op = random_unitary(rng, 2**k) * rng.uniform()
            v = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
            state = PureState(v / np.linalg.norm(v))
            got = apply_operator(state, op, targets).amplitudes
            expected = expand_operator(op, qubits, targets) @ state.amplitudes
            # the same products summed in another order: a few ulps of
            # amplitudes of magnitude at most 1
            assert np.abs(got - expected).max() <= 1e-15, targets


measured_qubits = st.sampled_from([0, 1])
SWAP = np.eye(4)[[0, 2, 1, 3]]


@_settings(30)
@given(seeds, st.integers(1, 4), measured_qubits)
def test_discord_is_nonnegative(seed, rank, qubit):
    assert discord(DensityMatrix(_ginibre(seed, 4, rank), validate=False), qubit) >= 0.0


@_settings(30)
@given(seeds, probabilities, st.integers(1, 2), st.integers(1, 2), measured_qubits)
def test_discord_vanishes_on_classical_quantum_states(seed, p, rank0, rank1, qubit):
    # sum_i p_i |e_i><e_i| on the measured qubit (x) rho_i on the other, with a
    # random orthonormal basis e_i
    rng = np.random.default_rng(seed)
    basis = random_unitary(rng, 2)
    mat = np.zeros((4, 4), dtype=complex)
    for i, (weight, rank) in enumerate(((p, rank0), (1.0 - p, rank1))):
        other = _ginibre(seed + 1 + i, 2, rank)
        outer = np.outer(basis[:, i], basis[:, i].conj())
        mat += weight * (np.kron(outer, other) if qubit == 0 else np.kron(other, outer))
    assert abs(discord(DensityMatrix(mat, validate=False), qubit)) <= 1e-6


def _rotated_discords(seed, rank, qubit, on_measured):
    """discord of a Ginibre state and of the same state after a random unitary
    on the measured or on the other qubit."""
    rho = _ginibre(seed, 4, rank)
    v = random_unitary(np.random.default_rng(seed), 2)
    u = np.kron(np.eye(2), v) if (qubit == 0) != on_measured else np.kron(v, np.eye(2))
    rotated = DensityMatrix(u @ rho @ u.conj().T, validate=False)
    return discord(rotated, qubit), discord(DensityMatrix(rho, validate=False), qubit)


@_settings(30)
@given(seeds, st.integers(1, 4), measured_qubits)
def test_discord_is_invariant_under_unitaries_on_the_unmeasured_qubit(seed, rank, qubit):
    # the conditional entropy is the same function of the direction, so the
    # search takes the same path up to rounding
    rotated, original = _rotated_discords(seed, rank, qubit, on_measured=False)
    assert abs(rotated - original) <= DISCORD_REFINEMENT_TOL


@_settings(30)
@given(seeds, st.integers(1, 4), measured_qubits)
def test_discord_is_invariant_under_unitaries_on_the_measured_qubit(seed, rank, qubit):
    # the conditional entropy turns with the Bloch sphere, so the screen seeds
    # the refinement from another direction, which must reach the same minimum
    rotated, original = _rotated_discords(seed, rank, qubit, on_measured=True)
    assert abs(rotated - original) <= DISCORD_REFINEMENT_TOL


@_settings(30)
@given(seeds, st.integers(1, 4), measured_qubits)
def test_discord_follows_the_measured_qubit_under_swap(seed, rank, qubit):
    rho = _ginibre(seed, 4, rank)
    swapped = DensityMatrix(SWAP @ rho @ SWAP, validate=False)
    original = DensityMatrix(rho, validate=False)
    assert abs(discord(swapped, 1 - qubit) - discord(original, qubit)) <= 1e-6


@_settings(40)
@given(st.lists(st.just(0) | st.integers(0, 1000), min_size=36, max_size=36))
def test_state_mle_is_a_unit_trace_psd_matrix(counts):
    assume(sum(counts) > 0)
    data = CoincidenceDataset(np.reshape(counts, (9, 4)))
    rho = reconstruct(data).estimate
    assert isinstance(rho, DensityMatrix)
    assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
    assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10


def _fit_reference(ops, counts, rho):
    """Log-likelihood per count at ``rho`` and its certified gap
    (lambda_max(R) - 1) x N, with the operators given one per count."""
    freqs = counts / counts.sum()
    active = freqs > 0.0
    probs = np.einsum("jab,ba->j", ops[active], rho).real
    r_op = np.einsum("j,jab->ab", freqs[active] / probs, ops[active])
    r_op = (r_op + r_op.conj().T) / 2.0
    return (float(freqs[active] @ np.log(probs)),
            float(np.linalg.eigvalsh(r_op)[-1] - 1.0) * counts.sum())


def _record_operators(data):
    """One operator per count of ``data``, rebuilt by ``np.kron`` from the
    public enumeration: Pi_out for a dataset with a single preparation (state
    tomography), rho_prep^T (x) Pi_out otherwise."""
    if len(set(data.preps)) == 1:
        return np.concatenate([outcome_projectors(basis) for basis in data.bases])
    return np.concatenate([_setting_operators(tuple(prep), tuple(basis))
                           for prep, basis in zip(data.preps, data.bases)])


@functools.cache
def _setting_operators(prep, basis):
    return np.stack([np.kron(prep_state(prep).density().matrix.T, projector)
                     for projector in outcome_projectors(basis)])


def kron_means(chi, mean_counts):
    """(36, 9, 4) Poisson means of the per-setting loop over formed products
    prep^T (x) Pi that the contraction replaced, before the clamp."""
    chi_u = chi.unnormalized()
    return np.array([[mean_counts * float(np.einsum("ij,ji->", e, chi_u).real)
                      for e in _setting_operators(prep, basis)]
                     for prep, basis in enumerate_settings()]).reshape(36, 9, 4)


def projector_means(rho, success_probability, mean_counts):
    """(9, 4) Poisson means of output-state tomography, one projector at a
    time, before the clamp."""
    return mean_counts * success_probability * np.array(
        [[float(np.einsum("ij,ji->", p, rho.matrix).real) for p in outcome_projectors(basis)]
         for basis in enumerate_bases()])


def oracle_counts(means, mean_counts, seed):
    """Counts drawn from ``means`` through the simulation's clamp."""
    return np.random.Generator(np.random.PCG64(seed)).poisson(_clamped(means, mean_counts))


mean_counts_values = st.sampled_from([1.0, 1e2, 1e4, 1e6])


@_settings(25)
@given(seeds, st.integers(1, 16), st.floats(0.01, 1.0), mean_counts_values)
def test_contraction_draws_the_counts_of_formed_products(seed, rank, scale, mean_counts):
    chi = ChoiProcess(_ginibre(seed, 16, rank), success_scale=scale)
    assert np.array_equal(simulate_counts(chi, mean_counts, seed).counts,
                          oracle_counts(kron_means(chi, mean_counts), mean_counts, seed))


@_settings(25)
@given(angles, angles, mean_counts_values, seeds)
def test_contraction_draws_the_counts_of_formed_products_of_ideal_gates(theta1, theta2,
                                                                          mean_counts, seed):
    # rank one, with many settings whose probability is exactly zero
    chi = _nondegenerate_channel(theta1, theta2)
    assert np.array_equal(simulate_counts(chi, mean_counts, seed).counts,
                          oracle_counts(kron_means(chi, mean_counts), mean_counts, seed))


@_settings(50)
@given(seeds, st.integers(0, 4), st.floats(0.01, 1.0), mean_counts_values)
def test_contraction_draws_the_state_counts_of_each_projector(seed, rank, prob, mean_counts):
    # rank 0 stands for a product preparation, whose probabilities are often exactly zero
    rho = (prep_state(enumerate_preparations()[seed % 36]).density() if rank == 0
           else DensityMatrix(_ginibre(seed, 4, rank)))
    assert np.array_equal(simulate_state_counts(rho, prob, mean_counts, seed).counts,
                          oracle_counts(projector_means(rho, prob, mean_counts), mean_counts, seed))


def _fitted_matrix(report):
    estimate = report.estimate
    return estimate.choi if isinstance(estimate, ChoiProcess) else estimate.matrix


@_settings(20)
@given(seeds, st.sampled_from(["process", "state"]), st.floats(0.0, 0.8))
def test_factored_fit_matches_per_setting_kron_products(seed, kind, zero_fraction):
    rng = np.random.default_rng(seed)
    if kind == "process":
        records = enumerate_settings()
        operators, dim = _process_operators, 16
    else:
        records = [(None, basis) for basis in enumerate_bases()]
        operators, dim = _state_operators, 4
    counts = rng.integers(0, 1000, size=(len(records), 4))
    counts[rng.random(counts.shape) < zero_fraction] = 0
    assume(counts.sum() > 0)
    order = rng.permutation(len(records))  # record order must not matter
    data = CoincidenceDataset.from_records([records[i][0] for i in order],
                                           [records[i][1] for i in order], counts[order])
    assert np.array_equal(data.counts.reshape(-1, 4), counts)
    start = _ginibre(seed, dim, dim)
    frame, factored_counts = operators(data)
    assert factored_counts.shape == ((36, 36) if kind == "process" else (1, 36))

    like, gap = _fit_reference(_record_operators(data), data.counts.reshape(-1).astype(float),
                               start)
    fit = _iterate_rho_r(frame, factored_counts, MLEOptions(max_iter=0), start)
    assert (fit.iterations, fit.status) == (0, "max_iter")
    assert abs(fit.log_likelihoods[0] - like) <= 1e-12
    assert abs(fit.gap - gap) <= 1e-9 * max(1.0, abs(gap))


@_settings(25)
@given(seeds, st.sampled_from(["process", "state"]), st.floats(0.01, 1.0))
def test_cold_start_inverts_exact_probabilities(seed, kind, scale):
    # exact probabilities of a full-rank matrix, computed from formed
    # operators, as counts: the least-squares start is that matrix
    if kind == "process":
        truth = _ginibre(seed, 16, 16)
        counts = kron_means(ChoiProcess(truth, success_scale=scale), 1.0)
        frame, rows = _PROCESS_FRAME, counts.reshape(36, 36)
    else:
        truth = _ginibre(seed, 4, 4)
        counts = projector_means(DensityMatrix(truth), scale, 1.0)
        frame, rows = _STATE_FRAME, counts.reshape(1, 36)
    fit = _iterate_rho_r(frame, rows, MLEOptions(max_iter=0), None)
    assert fit.iterations == 0
    assert np.abs(fit.estimate - truth).max() <= 1e-12


@_settings(30)
@given(st.sampled_from(PRESET_NAMES), st.sampled_from([1e3, 1e5]),
       st.sampled_from([0.0, 0.01, 0.1, 1.0]), st.sampled_from(["process", "state"]),
       st.floats(0.0, 0.8), seeds)
def test_every_fit_certifies_its_gap(name, mean_counts, noise, kind, zero_fraction, seed):
    data = _noisy_dataset(name, mean_counts, noise, kind, seed)
    rng = np.random.default_rng(seed)
    data.counts[rng.random(data.counts.shape) < zero_fraction] = 0
    assume(data.total() > 0)
    fit = reconstruct(data)
    resample = data.resampled(rng)
    assume(resample.total() > 0)
    # a Monte Carlo resample starts at the estimate of the dataset it came from
    fits = [(data, fit), (resample, reconstruct(resample, start=fit.estimate))]
    for dataset, report in fits:
        assert report.status == "certified"
        assert report.gap <= MLEOptions.tol
        # whichever certificate stopped the fit, its gap bounds the distance
        # to an upper bound on the maximum: a fit run to its floor plus that
        # floor's gap (lambda_max(R) - 1) x N from the formed operators
        frame, counts = _operators(dataset)
        rise, floor = _rise_to_floor(frame, counts, _fitted_matrix(report))
        _, floor_gap = _fit_reference(_record_operators(dataset),
                                      dataset.counts.reshape(-1).astype(float), floor)
        assert report.gap >= rise + floor_gap - 1e-6


@_settings(25)
@given(st.sampled_from(PRESET_NAMES), st.sampled_from([1e3, 1e4, 1e5]),
       st.sampled_from([0.01, 0.1, 1.0]), st.sampled_from(["process", "state"]), seeds)
def test_newton_move_never_lowers_the_likelihood(name, mean_counts, noise, kind, seed):
    # every outcome counted, so each fit begins with the damped Newton step
    data = _noisy_dataset(name, mean_counts, noise, kind, seed)
    data.counts = np.maximum(data.counts, 1)
    frame, counts = _operators(data)
    base = _iterate_rho_r(frame, counts, None, None)
    flat = data.counts.reshape(-1).astype(float)
    for start in (None, base.estimate):
        fit = base if start is None else _iterate_rho_r(frame, counts, None, start)
        assert fit.iterations >= 1 and fit.status == "certified"
        assert (np.diff(fit.log_likelihoods) >= 0.0).all()
        still = _iterate_rho_r(frame, counts, MLEOptions(max_iter=0), start)
        assert (still.iterations, still.status) == (0, "max_iter")
        assert still.log_likelihoods == fit.log_likelihoods[:1]
        if start is not None:
            assert np.array_equal(still.estimate, start)
            like, _ = _fit_reference(_record_operators(data), flat, start)
            assert abs(fit.log_likelihoods[0] - like) <= 1e-12


def _noisy_dataset(name, mean_counts, noise, kind, seed):
    """Counts of a preset's channel, or of one preparation's output state,
    with ``noise`` scaling the channel template; weak noise at many counts
    leaves eigenvalues near zero, where the ascent is slowest."""
    chi = ideal_choi(preset(name).settings)
    if noise:
        chi = apply_noise(chi, DEFAULT_CHANNEL_TEMPLATE.scaled(noise))
    data = simulate_counts(chi, mean_counts, seed)
    if kind == "state":
        preps = enumerate_preparations()
        data = data.restrict_to(preps[seed % len(preps)])
    return data


def _operators(data):
    single = len(set(data.preps)) == 1
    return (_state_operators if single else _process_operators)(data)


def _rise_to_floor(frame, counts, rho):
    """N (L(floor) - L(rho)) in total nats and the floor: the fit from
    ``rho`` run until no step ascends, its rise summed from the step's own
    probabilities rather than as a difference of two likelihoods. The
    Lagrangian certificate is switched off, so the floor does not depend on
    the bound under test: a fit with every outcome counted then has no
    certificate and ends where no step ascends, and any other fit ends there
    or where its Glancy-Knill-Girard gap reaches 1e-12 nats."""
    with mock.patch("convgate.tomography._lagrangian_gap", return_value=np.inf):
        floor = _iterate_rho_r(frame, counts, MLEOptions(tol=1e-12, max_iter=50_000), rho)
    assert floor.status != "max_iter"
    return ((floor.final_log_likelihood - floor.log_likelihoods[0]) * counts.sum(),
            floor.estimate)


@_settings(25)
@given(st.sampled_from(PRESET_NAMES), st.sampled_from([20, 200, 1e3, 1e4, 1e5]),
       st.sampled_from([0.01, 0.1, 1.0]), st.sampled_from(["process", "state"]),
       st.integers(5, 60), seeds)
def test_lagrangian_gap_bounds_the_shortfall_of_every_iterate(name, mean_counts, noise, kind,
                                                               steps, seed):
    data = _noisy_dataset(name, mean_counts, noise, kind, seed)
    frame, counts = _operators(data)
    assume(counts.all())
    # the iterate after ``steps`` steps, which no certificate can stop early
    iterate = _iterate_rho_r(frame, counts, MLEOptions(tol=1e-12, max_iter=steps), None)
    bound = _lagrangian_gap(frame, counts, iterate.estimate)
    rise, _ = _rise_to_floor(frame, counts, iterate.estimate)
    assert bound >= rise - 1e-6
    # its Newton decrement is at least the exact one of the dense Hessian
    reference = _dense_lagrangian_gap(_record_operators(data),
                                      data.counts.reshape(-1).astype(float), iterate.estimate)
    if reference < np.inf:
        assert bound >= reference - 1e-9 * max(1.0, abs(reference))


def _hermitian_basis(d):
    """(d^2, d, d) orthonormal basis of d x d Hermitian matrices: diagonal
    units, and (e_ij + e_ji) / sqrt(2) and i (e_ij - e_ji) / sqrt(2) for i < j."""
    basis = []
    for i, j in itertools.product(range(d), repeat=2):
        m = np.zeros((d, d), complex)
        if i == j:
            m[i, i] = 1.0
        else:
            a, b = min(i, j), max(i, j)
            m[a, b], m[b, a] = (1.0, 1.0) if i < j else (-1j, 1j)
            m /= np.sqrt(2.0)
        basis.append(m)
    return np.array(basis)


def _dense_lagrangian_gap(ops, counts, rho):
    """The Lagrangian bound with the exact Newton decrement: the multiplier
    Z of ``_lagrangian_gap``, lam^2 = g^T H^-1 g solved densely from one
    formed operator per count in an orthonormal Hermitian basis, and the
    self-concordance of the smallest count m, m omega*(lam / sqrt(m)); inf
    when lam >= sqrt(m)."""
    d = rho.shape[0]
    basis = _hermitian_basis(d)
    # Tr[E_j B_k], as a product of the flattened operators and transposed basis
    design = (ops.reshape(len(ops), -1) @ basis.transpose(0, 2, 1).reshape(d * d, -1).T).real
    probs = np.einsum("jab,ba->j", ops, rho).real
    total = counts.sum()
    grad = np.einsum("j,jab->ab", counts / probs, ops) - total * np.eye(d)
    grad = (grad + grad.conj().T) / 2.0
    vals, vecs = np.linalg.eigh(rho)
    q = vecs[:, vals <= _NULL_EIGENVALUE]
    held_vals, held_vecs = np.linalg.eigh(q.conj().T @ grad @ q)
    held = q @ held_vecs[:, held_vals < 0.0]
    z = -(held * held_vals[held_vals < 0.0]) @ held.conj().T
    g = np.einsum("kab,ba->k", basis, grad + z).real
    hessian = design.T @ ((counts / probs**2)[:, None] * design)
    smallest = counts.min()
    lam = float(np.sqrt(g @ np.linalg.solve(hessian, g) / smallest))
    if not lam < 1.0:
        return np.inf
    return (np.vdot(z, rho).real + total * (1.0 - np.trace(rho).real)
            - smallest * (lam + np.log1p(-lam)))


@_settings(25)
@given(st.sampled_from(PRESET_NAMES), st.sampled_from([1e3, 1e5]), st.sampled_from([0.1, 1.0]),
       st.sampled_from(["process", "state"]), st.integers(1, 50), seeds)
def test_a_dataset_with_a_zero_count_gets_no_lagrangian_certificate(name, mean_counts, noise,
                                                                     kind, zeros, seed):
    data = _noisy_dataset(name, mean_counts, noise, kind, seed)
    rng = np.random.default_rng(seed)
    flat = data.counts.reshape(-1)
    flat[rng.choice(flat.size, size=min(zeros, flat.size - 1), replace=False)] = 0
    frame, counts = _operators(data)
    fit = _iterate_rho_r(frame, counts, None, None)
    assert _lagrangian_gap(frame, counts, fit.estimate) == np.inf
    # the reported gap is the Glancy-Knill-Girard bound at the estimate
    _, gap = _fit_reference(_record_operators(data), flat.astype(float), fit.estimate)
    assert abs(fit.gap - gap) <= 1e-6 * max(1.0, abs(gap))


def _rho_r_to_floor(ops, counts, max_iter=100_000):
    """Log-likelihood per count of the R-rho-R fit the projected-gradient fit
    replaced, run with tol=0 until no step ascends.

    From the maximally mixed state, rho <- N[R rho R]; a step that would lower
    the likelihood is diluted toward the identity, (1 + eps R) / (1 + eps) for
    eps = 0.5, 0.1, 0.01, and the loop ends when none of them ascends.
    """
    freqs = counts / counts.sum()
    active = freqs > 0.0
    flat = ops[active].reshape(int(active.sum()), -1)
    dim = ops.shape[-1]

    def evaluate(rho):
        probs = np.maximum((flat @ rho.T.ravel()).real, 1e-300)
        return probs, float(freqs[active] @ np.log(probs))

    def step(before, after):
        candidate = before @ rho @ after
        candidate = (candidate + candidate.conj().T) / 2.0
        candidate /= np.trace(candidate).real
        return (candidate, *evaluate(candidate))

    rho = np.eye(dim, dtype=complex) / dim
    probs, current = evaluate(rho)
    for _ in range(max_iter):
        r_op = (freqs[active] / probs @ flat).reshape(dim, dim)
        r_op = (r_op + r_op.conj().T) / 2.0
        candidate, cand_probs, cand_like = step(r_op, r_op)
        for eps in (0.5, 0.1, 0.01):
            if cand_like >= current:
                break
            damped = (np.eye(dim) + eps * r_op) / (1.0 + eps)
            candidate, cand_probs, cand_like = step(damped, damped.conj().T)
        if cand_like < current:
            break
        rho, probs, current = candidate, cand_probs, cand_like
    return current


def _assert_within_certified_gap_of_oracle(data):
    fit = reconstruct(data)
    oracle = _rho_r_to_floor(_record_operators(data), data.counts.reshape(-1).astype(float))
    assert fit.status == "certified"
    # L* <= L(fit) + gap / N, and the oracle's likelihood is at most L*
    assert fit.final_log_likelihood >= oracle - fit.gap / data.total() - 1e-12


@_settings(20)
@given(st.lists(st.just(0) | st.integers(0, 1000), min_size=36, max_size=36))
def test_state_fit_is_within_its_gap_of_rho_r_at_its_floor(counts):
    assume(sum(counts) > 0)
    _assert_within_certified_gap_of_oracle(CoincidenceDataset(np.reshape(counts, (9, 4))))


@pytest.mark.parametrize("name,noisy", [("ghz", True), ("dicke", False)])
def test_process_fit_is_within_its_gap_of_rho_r_at_its_floor(name, noisy):
    chi = ideal_choi(preset(name).settings)
    if noisy:
        chi = apply_noise(chi, DEFAULT_CHANNEL_TEMPLATE)
    _assert_within_certified_gap_of_oracle(simulate_counts(chi, 1e3, seed=3))
