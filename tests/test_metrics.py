import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import sqrtm
from scipy.optimize import minimize

from convgate.core import DensityMatrix, PureState, apply_choi_channel, partial_trace
from convgate.errors import InvalidArgumentError
from convgate.gate import GateSettings, build_gate, ideal_choi, preset, target_state
from convgate.metrics import (
    TWO_PI,
    PhaseCorrection,
    _conditional_entropies,
    concurrence,
    discord,
    fidelity,
    log_negativity,
    metric_function,
    phase_conjugate_choi,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
    von_neumann_entropy,
)
from convgate.noise import depolarize_choi

from conftest import random_density_matrix, random_pure_state, random_unitary

# regression constant for the discord-demo output measured on qubit 2,
# frozen from a dense (theta, phi) grid search refined by Nelder-Mead
DISCORD_DEMO_Q2 = 0.082133339713


def _demo_state() -> DensityMatrix:
    chi = ideal_choi(preset("discord-demo").settings)
    inp = DensityMatrix(np.kron(np.eye(2) / 2,
                                np.full((2, 2), 0.5)), validate=False)
    out, _ = apply_choi_channel(inp, chi)
    return out


@pytest.fixture(scope="module")
def demo_state() -> DensityMatrix:
    return _demo_state()


class TestPurity:
    def test_pure_state(self):
        assert purity(target_state("phi_plus").density()) == pytest.approx(1.0, abs=1e-14)

    def test_maximally_mixed(self):
        assert purity(DensityMatrix.maximally_mixed(2)) == pytest.approx(0.25, abs=1e-14)

    def test_ideal_processes(self):
        for name in ("cluster-identity", "ghz", "dicke", "bell-pair"):
            assert purity(ideal_choi(preset(name).settings)) == pytest.approx(1.0, abs=1e-12)


class TestFidelity:
    def test_self_fidelity(self, rng):
        rho = random_density_matrix(rng, 2)
        assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        h = PureState.from_labels("H").density()
        v = PureState.from_labels("V").density()
        assert fidelity(h, v) == pytest.approx(0.0, abs=1e-14)

    def test_pure_versus_mixed_closed_form(self):
        phi = target_state("phi_plus").density()
        assert fidelity(phi, DensityMatrix.maximally_mixed(2)) == pytest.approx(0.25, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(10):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-10)

    def test_against_scipy_oracle(self, rng):
        for _ in range(10):
            a = random_density_matrix(rng, 2).matrix
            b = random_density_matrix(rng, 2).matrix
            root = sqrtm(a)
            oracle = float(np.trace(sqrtm(root @ b @ root)).real ** 2)
            assert fidelity(a, b) == pytest.approx(oracle, abs=1e-8)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            fidelity(DensityMatrix.maximally_mixed(1), DensityMatrix.maximally_mixed(2))


class TestProcessFidelity:
    def test_self_fidelity_per_preset(self):
        for name in ("cluster-identity", "ghz", "dicke", "bell-pair"):
            chi = ideal_choi(preset(name).settings)
            assert process_fidelity(chi, chi) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_overlap_oracle(self):
        g1 = build_gate(preset("ghz").settings)
        g2 = build_gate(preset("cluster-identity").settings)
        expected = (abs(np.trace(g1.conj().T @ g2)) ** 2
                    / (np.trace(g1.conj().T @ g1) * np.trace(g2.conj().T @ g2))).real
        chi1 = ideal_choi(preset("ghz").settings)
        chi2 = ideal_choi(preset("cluster-identity").settings)
        assert process_fidelity(chi1, chi2) == pytest.approx(expected, abs=1e-12)

    def test_depolarized_against_scipy_oracle(self):
        chi_th = ideal_choi(preset("ghz").settings)
        noisy = depolarize_choi(chi_th, 0.1)
        root = sqrtm(chi_th.choi)
        oracle = float(np.trace(sqrtm(root @ noisy.choi @ root)).real ** 2)
        # sqrtm on the rank-deficient target limits the oracle to ~1e-7
        assert process_fidelity(noisy, chi_th) == pytest.approx(oracle, abs=1e-6)
        # the exact mixture value: [(1-p) s + p/16] / [(1-p) s + p] with s = 1/2
        assert process_fidelity(noisy, chi_th) == pytest.approx(0.45625 / 0.55, abs=1e-12)


class TestPhaseOptimizedFidelity:
    def test_already_optimal_returns_raw(self):
        chi = ideal_choi(preset("ghz").settings)
        value, correction = phase_optimized_fidelity(chi, chi)
        assert value == pytest.approx(1.0, abs=1e-9)
        raw = process_fidelity(chi, chi)
        assert value >= raw - 1e-12

    def test_plant_and_recover(self, rng):
        chi_th = ideal_choi(preset("dicke").settings)
        for _ in range(5):
            planted = phase_conjugate_choi(
                chi_th, PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4))))
            value, _ = phase_optimized_fidelity(planted, chi_th)
            assert value >= 0.999999

    def test_never_below_raw_on_perturbed_channels(self, rng):
        chi_th = ideal_choi(preset("ghz").settings)
        for _ in range(10):
            noisy = depolarize_choi(chi_th, rng.uniform(0, 0.5))
            noisy = phase_conjugate_choi(
                noisy, PhaseCorrection(tuple(rng.uniform(0, 1.0, 4))))
            raw = process_fidelity(noisy, chi_th)
            value, _ = phase_optimized_fidelity(noisy, chi_th)
            assert value >= raw - 1e-12

    def test_invariant_under_pre_applied_phases(self, rng):
        chi_th = ideal_choi(preset("ghz").settings)
        noisy = depolarize_choi(chi_th, 0.2)
        base, _ = phase_optimized_fidelity(noisy, chi_th)
        shifted = phase_conjugate_choi(
            noisy, PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4))))
        value, _ = phase_optimized_fidelity(shifted, chi_th)
        assert value == pytest.approx(base, abs=1e-9)

    # depolarizing strengths (estimate, target): 0 is pure, 5e-5 leaves a
    # residual spectrum below 1e-4 of the trace, 0.1 and 0.2 are mixed
    @pytest.mark.parametrize("p_est,p_th", [
        (0.1, 0.0),    # target pure
        (0.0, 0.1),    # estimate pure
        (0.1, 5e-5),   # near-pure target
        (0.1, 0.2),    # mixed-mixed
    ], ids=["target-pure", "estimate-pure", "near-pure", "mixed-mixed"])
    def test_planted_phases_in_every_purity_regime(self, rng, p_est, p_th):
        chi = ideal_choi(preset("ghz").settings)
        chi_th = depolarize_choi(chi, p_th) if p_th else chi
        planted_phases = PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4)))
        planted = phase_conjugate_choi(depolarize_choi(chi, p_est) if p_est else chi,
                                       planted_phases)
        value, correction = phase_optimized_fidelity(planted, chi_th)
        undone = process_fidelity(
            phase_conjugate_choi(planted, planted_phases.scaled(-1)), chi_th)
        assert value >= undone - 1e-9
        swapped, _ = phase_optimized_fidelity(chi_th, planted)
        assert swapped == pytest.approx(value, abs=1e-9)
        # the returned phases reach the returned value
        reached = process_fidelity(phase_conjugate_choi(planted, correction), chi_th)
        assert reached == pytest.approx(value, abs=1e-9)

    def test_pure_target_search_allocates_little(self):
        # the 16^4-point screen runs in blocks; holding all 65,536 phase
        # vectors (16 MiB complex) at once would raise the peak several-fold
        chi_th = ideal_choi(preset("ghz").settings)
        noisy = depolarize_choi(chi_th, 1e-3)
        tracemalloc.start()
        try:
            phase_optimized_fidelity(noisy, chi_th)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


class TestConcurrence:
    def test_bell_states(self):
        for kind in ("phi_plus", "psi_plus"):
            assert concurrence(target_state(kind).density()) == pytest.approx(1.0, abs=1e-12)

    def test_product_states(self, rng):
        for labels in ("HV", "++", "RL"):
            rho = PureState.from_labels(labels).density()
            assert concurrence(rho) == pytest.approx(0.0, abs=1e-8)

    def test_entangler_output(self):
        from convgate.gate import apply_gate
        out, _ = apply_gate(GateSettings(3 * np.pi / 8, np.pi / 8),
                            PureState.from_labels("--"))
        assert concurrence(out.density()) == pytest.approx(1.0, abs=1e-10)

    def test_requires_two_qubits(self):
        with pytest.raises(InvalidArgumentError):
            concurrence(DensityMatrix.maximally_mixed(1))


class TestLogNegativity:
    def test_bell_state(self):
        assert log_negativity(target_state("phi_plus").density()) == pytest.approx(1.0, abs=1e-12)

    def test_separable_product(self):
        assert log_negativity(PureState.from_labels("H+").density()) == pytest.approx(0.0, abs=1e-12)

    def test_discord_demo_output_is_ppt(self, demo_state):
        assert log_negativity(demo_state) == pytest.approx(0.0, abs=1e-10)

    def test_zero_iff_ppt_on_separable_mixtures(self, rng):
        from convgate.core import partial_transpose
        for _ in range(20):
            # convex combination of random product states is separable, hence PPT
            weights = rng.dirichlet(np.ones(4))
            mat = np.zeros((4, 4), dtype=complex)
            for w in weights:
                a = random_pure_state(rng, 1).amplitudes
                b = random_pure_state(rng, 1).amplitudes
                ket = np.kron(a, b)
                mat += w * np.outer(ket, ket.conj())
            rho = DensityMatrix(mat, validate=False)
            min_eig = np.linalg.eigvalsh(partial_transpose(rho, 1)).min()
            assert min_eig >= -1e-10
            assert log_negativity(rho) <= 1e-9


def _reference_conditional_entropy(rho, measured_qubit, theta, phi):
    """Per-point sum_b p_b S(rho_other|b), one measurement direction at a time."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    kets = (np.array([c, s * np.exp(1j * phi)], dtype=complex),
            np.array([-s, c * np.exp(1j * phi)], dtype=complex))
    t = rho.reshape(2, 2, 2, 2)
    total = 0.0
    for ket in kets:
        if measured_qubit == 0:
            cond = np.einsum("a,abcd,c->bd", ket.conj(), t, ket)
        else:
            cond = np.einsum("b,abcd,d->ac", ket.conj(), t, ket)
        p = float(np.trace(cond).real)
        if p > 1e-12:
            total += p * von_neumann_entropy(cond / p)
    return total


def _reference_grid(n_theta=20, n_phi=40):
    return [(theta, phi) for theta in np.linspace(0.0, np.pi, n_theta)
            for phi in np.linspace(0.0, TWO_PI, n_phi, endpoint=False)]


def _reference_discord(m, measured_qubit):
    """Per-point grid loop (first strict minimum) and Nelder-Mead refinement."""
    rho = m.matrix
    best_val, best_angles = np.inf, (0.0, 0.0)
    for theta, phi in _reference_grid():
        val = _reference_conditional_entropy(rho, measured_qubit, theta, phi)
        if val < best_val:
            best_val, best_angles = val, (theta, phi)
    res = minimize(lambda x: _reference_conditional_entropy(rho, measured_qubit, x[0], x[1]),
                   x0=np.array(best_angles), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400})
    if res.fun < best_val:
        best_val = float(res.fun)
    value = (von_neumann_entropy(partial_trace(m, {measured_qubit}))
             - von_neumann_entropy(m) + best_val)
    return float(max(0.0, value)) if value > -1e-9 else float(value)


def _oracle_states():
    states = {
        "demo": _demo_state(),
        "bell": target_state("phi_plus").density(),
        "classical": DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), validate=False),
        "pure-00": PureState.from_labels("HH").density(),
    }
    for seed in range(6):
        states[f"ginibre-{seed}"] = random_density_matrix(np.random.default_rng(seed), 2)
    return states


ORACLE_STATES = _oracle_states()


class TestDiscordOracle:
    """The batched evaluator against the per-point loop it replaced, bit for bit."""

    @pytest.mark.parametrize("measured_qubit", [0, 1])
    @pytest.mark.parametrize("name", list(ORACLE_STATES))
    def test_batched_grid_and_discord_equal_per_point_loop(self, name, measured_qubit):
        m = ORACLE_STATES[name]
        theta, phi = np.array(_reference_grid()).T
        with warnings.catch_warnings():
            # |00> has outcomes of probability exactly 0: no division or log of
            # zero may warn
            warnings.simplefilter("error")
            batched = _conditional_entropies(m.matrix, measured_qubit, theta, phi)
            value = discord(m, measured_qubit)
        reference = [_reference_conditional_entropy(m.matrix, measured_qubit, t, p)
                     for t, p in zip(theta, phi)]
        assert np.array_equal(batched, reference)
        assert value == _reference_discord(m, measured_qubit)


class TestDiscord:
    def test_classically_correlated_state(self):
        rho = DensityMatrix(np.diag([0.5, 0.0, 0.0, 0.5]), validate=False)
        assert discord(rho, 0) == pytest.approx(0.0, abs=1e-6)
        assert discord(rho, 1) == pytest.approx(0.0, abs=1e-6)

    def test_product_state(self, rng):
        a = random_density_matrix(rng, 1)
        b = random_density_matrix(rng, 1)
        rho = DensityMatrix(np.kron(a.matrix, b.matrix), validate=False)
        assert discord(rho, 0) == pytest.approx(0.0, abs=1e-6)
        assert discord(rho, 1) == pytest.approx(0.0, abs=1e-6)

    def test_demo_state_regression_value(self, demo_state):
        assert discord(demo_state, 1) == pytest.approx(DISCORD_DEMO_Q2, abs=1e-6)

    def test_demo_state_frozen_value_against_coarse_grid_oracle(self, demo_state):
        # independent check of the frozen constant: a denser 60 x 120 grid
        # screened without refinement
        theta, phi = np.meshgrid(np.linspace(0.0, np.pi, 60),
                                 np.linspace(0.0, TWO_PI, 120, endpoint=False), indexing="ij")
        conditional = _conditional_entropies(demo_state.matrix, 1, theta.ravel(), phi.ravel())
        value = (von_neumann_entropy(partial_trace(demo_state, {1}))
                 - von_neumann_entropy(demo_state) + conditional.min())
        assert value == pytest.approx(DISCORD_DEMO_Q2, abs=1e-3)

    def test_measured_side_asymmetry(self, demo_state):
        assert discord(demo_state, 0) == pytest.approx(0.0, abs=1e-6)
        assert discord(demo_state, 1) > 0.01

    @pytest.mark.parametrize("weight", [1e-7, 1e-9, 1e-11])
    def test_rare_outcome_stays_inside_the_clamp_window(self, weight):
        # measured along its own basis, the rare branch has probability
        # ``weight``; its conditional state carries rounding of order 1e-17 / weight
        rng = np.random.default_rng(1)
        basis = random_unitary(rng, 2)
        mat = sum(w * np.kron(np.outer(basis[:, i], basis[:, i].conj()),
                              random_density_matrix(rng, 1, rank=1).matrix)
                  for i, w in enumerate((weight, 1.0 - weight)))
        assert discord(DensityMatrix(mat, validate=False), 0) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state_discord_is_one(self):
        rho = target_state("phi_plus").density()
        assert discord(rho, 0) == pytest.approx(1.0, abs=1e-6)

    def test_requires_two_qubits(self):
        with pytest.raises(InvalidArgumentError):
            discord(DensityMatrix.maximally_mixed(1), 0)


class TestEntropy:
    def test_base_two_convention(self):
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(1)) == pytest.approx(1.0)
        assert von_neumann_entropy(DensityMatrix.maximally_mixed(2)) == pytest.approx(2.0)
        assert von_neumann_entropy(target_state("phi_plus").density()) == pytest.approx(0.0, abs=1e-12)


class TestRangeInvariants:
    def test_metric_ranges_on_random_states(self, rng):
        for _ in range(1000):
            rho = random_density_matrix(rng, 2, rank=int(rng.integers(1, 5)))
            c = concurrence(rho)
            assert 0.0 <= c <= 1.0 + 1e-12
            p = purity(rho)
            assert 0.25 - 1e-12 <= p <= 1.0 + 1e-9
            assert log_negativity(rho) >= -1e-9

    def test_fidelity_range(self, rng):
        for _ in range(100):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            f = fidelity(a, b)
            assert -1e-12 <= f <= 1.0 + 1e-9


class TestMetricRegistry:
    def test_trace_metric(self, rng):
        fn = metric_function("trace")
        assert fn(random_density_matrix(rng, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_needs_target(self):
        with pytest.raises(InvalidArgumentError):
            metric_function("fidelity")

    def test_unknown_metric(self):
        with pytest.raises(InvalidArgumentError):
            metric_function("entanglement-of-formation")

    def test_discord_variants_select_qubit(self, demo_state):
        assert metric_function("discord-q1")(demo_state) == pytest.approx(0.0, abs=1e-6)
        assert metric_function("discord-q2")(demo_state) > 0.01


class TestPhaseCorrection:
    def test_canonicalization(self):
        pc = PhaseCorrection((2 * np.pi + 0.5, -0.5, 0.0, 7.0))
        assert pc.phases[0] == pytest.approx(0.5)
        assert pc.phases[1] == pytest.approx(2 * np.pi - 0.5)

    def test_phase_vector_matches_per_mode_loop(self, rng):
        for _ in range(200):
            pc = PhaseCorrection(tuple(rng.uniform(0.0, 2 * np.pi, 4)))
            for n_modes in range(1, 6):
                theta = np.zeros(2**n_modes)
                idx = np.arange(2**n_modes)
                for m, phi in enumerate(pc.phases[:n_modes]):
                    theta += np.where(idx & (1 << (n_modes - 1 - m)), phi, 0.0)
                assert np.array_equal(pc.phase_vector(n_modes), np.exp(1j * theta))

    def test_phase_vector_structure(self):
        pc = PhaseCorrection((np.pi, 0.0, 0.0, 0.0))
        w = pc.phase_vector()
        assert np.allclose(w[:8], 1.0)
        assert np.allclose(w[8:], -1.0)
