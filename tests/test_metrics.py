import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import LinAlgWarning, sqrtm
from scipy.optimize import minimize

import convgate
from convgate.core import (
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_choi_channel,
    partial_trace,
)
from convgate.errors import InvalidArgumentError
from convgate.gate import (
    CONVERSION_PRESET_NAMES,
    PRESET_NAMES,
    GateSettings,
    build_gate,
    ideal_choi,
    preset,
    target_state,
)
from convgate.metrics import (
    DISCORD_GRID,
    DISCORD_ROUNDS,
    PHASE_GRID_POINTS,
    PHASE_TOL,
    TWO_PI,
    PhaseCorrection,
    _conditional_entropies,
    _GATHER,
    _grid_values,
    _phase_vectors,
    _polynomial_derivatives,
    _refined_conditional_entropy,
    _screen_directions,
    concurrence,
    discord,
    fidelity,
    log_negativity,
    metric_function,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
    von_neumann_entropy,
)
from convgate.noise import NoiseSpec, apply_noise

from conftest import random_density_matrix, random_pure_state, random_unitary

# regression constant for the discord-demo output measured on qubit 2,
# frozen from a dense (theta, phi) grid search refined by Nelder-Mead
DISCORD_DEMO_Q2 = 0.082133339713
# the stencil-Newton refinement against the Nelder-Mead oracle: both minimize
# the same evaluator, and the measured differences lie within 6.7e-16 on the
# oracle states and in [-2.8e-16, 1.8e-15] on 200 Ginibre states of ranks 1-4
DISCORD_REFINEMENT_TOL = 1e-12


def _demo_state() -> DensityMatrix:
    chi = ideal_choi(preset("discord-demo").settings)
    inp = DensityMatrix(np.kron(np.eye(2) / 2,
                                np.full((2, 2), 0.5)), validate=False)
    out, _ = apply_choi_channel(inp, chi)
    return out


@pytest.fixture(scope="module")
def demo_state() -> DensityMatrix:
    return _demo_state()


class TestKindGuards:
    """Each figure of merit checks the kind of its arguments in one place."""

    def test_fidelity_refuses_a_state_with_a_process(self):
        rho, chi = DensityMatrix.maximally_mixed(4), ideal_choi(preset("ghz").settings)
        for a, b in [(rho, chi), (chi, rho)]:
            with pytest.raises(InvalidArgumentError, match="two states or two processes"):
                fidelity(a, b)
        # raw arrays are neither kind: the overlap of 1/16 with a pure matrix
        assert fidelity(rho.matrix, chi) == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert fidelity(chi.choi, rho) == pytest.approx(1.0 / 16.0, abs=1e-15)

    @pytest.mark.parametrize("call", [process_fidelity,
                                      lambda a, b: phase_optimized_fidelity(a, b)[0]],
                             ids=["process_fidelity", "phase_optimized_fidelity"])
    def test_process_metrics_take_two_processes(self, call):
        rho, chi = DensityMatrix.maximally_mixed(4), ideal_choi(preset("ghz").settings)
        for a, b in [(rho, rho), (rho, chi), (chi, rho), (chi.choi, chi)]:
            with pytest.raises(InvalidArgumentError,
                               match="^process fidelity expects 16x16 Choi matrices$"):
                call(a, b)

    @pytest.mark.parametrize("name,call", [
        ("concurrence", concurrence),
        ("log-negativity", log_negativity),
        ("discord", lambda m: discord(m, 0)),
    ])
    def test_two_qubit_measures_take_two_qubit_states(self, name, call):
        for m in [DensityMatrix.maximally_mixed(1), DensityMatrix.maximally_mixed(3),
                  ideal_choi(preset("ghz").settings)]:
            with pytest.raises(InvalidArgumentError,
                               match=f"^{name} is defined for two-qubit density matrices$"):
                call(m)


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

    @pytest.mark.parametrize("d", [4, 16])
    def test_rank_deficient_commuting_pairs_closed_form(self, rng, d):
        # a commuting pair of one support in a shared eigenbasis has F =
        # (sum_i sqrt(l_i m_i))^2; a square root of a zero eigenvalue that
        # rounding left at ~1e-17 would add ~3e-9 per zero
        for rank in np.repeat(np.arange(2, d), 40 // (d - 2)):
            u = random_unitary(rng, d)
            lam, mu = (np.concatenate([w / w.sum(), np.zeros(d - rank)])
                       for w in rng.uniform(0.05, 1.0, (2, rank)))
            a, b = ((u * v) @ u.conj().T for v in (lam, mu))
            exact = np.sqrt(lam * mu).sum() ** 2
            assert fidelity(a, b) == pytest.approx(exact, abs=1e-13)
            if d == 16:
                assert process_fidelity(ChoiProcess(a), ChoiProcess(b)) == pytest.approx(
                    exact, abs=1e-13)


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
        noisy = apply_noise(chi_th, NoiseSpec(depolarizing_p=0.1))
        # sqrtm warns that the rank-one target and its product are singular
        with pytest.warns(LinAlgWarning):
            root = sqrtm(chi_th.choi)
        with pytest.warns(LinAlgWarning):
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
            planted = apply_noise(chi_th, NoiseSpec(
                mode_phases=PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4)))))
            value, _ = phase_optimized_fidelity(planted, chi_th)
            assert value >= 0.999999

    def test_never_below_raw_on_perturbed_channels(self, rng):
        chi_th = ideal_choi(preset("ghz").settings)
        for _ in range(10):
            noisy = apply_noise(chi_th, NoiseSpec(depolarizing_p=rng.uniform(0, 0.5)))
            noisy = apply_noise(noisy, NoiseSpec(
                mode_phases=PhaseCorrection(tuple(rng.uniform(0, 1.0, 4)))))
            raw = process_fidelity(noisy, chi_th)
            value, _ = phase_optimized_fidelity(noisy, chi_th)
            assert value >= raw - 1e-12

    def test_invariant_under_pre_applied_phases(self, rng):
        chi_th = ideal_choi(preset("ghz").settings)
        noisy = apply_noise(chi_th, NoiseSpec(depolarizing_p=0.2))
        base, _ = phase_optimized_fidelity(noisy, chi_th)
        shifted = apply_noise(noisy, NoiseSpec(
            mode_phases=PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4)))))
        value, _ = phase_optimized_fidelity(shifted, chi_th)
        assert value == pytest.approx(base, abs=1e-9)

    # depolarizing strengths (estimate, target): 0 is pure, 0.1 is mixed
    @pytest.mark.parametrize("p_est,p_th", [
        (0.1, 0.0),    # target pure
        (0.0, 0.1),    # estimate pure
    ], ids=["target-pure", "estimate-pure"])
    def test_planted_phases_in_every_purity_regime(self, rng, p_est, p_th):
        chi = ideal_choi(preset("ghz").settings)
        chi_th = apply_noise(chi, NoiseSpec(depolarizing_p=p_th)) if p_th else chi
        planted_phases = PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4)))
        planted = apply_noise(
            apply_noise(chi, NoiseSpec(depolarizing_p=p_est)) if p_est else chi,
            NoiseSpec(mode_phases=planted_phases))
        value, correction = phase_optimized_fidelity(planted, chi_th)
        undone = process_fidelity(
            apply_noise(planted, NoiseSpec(mode_phases=planted_phases.scaled(-1))), chi_th)
        assert value >= undone - 1e-9
        swapped, _ = phase_optimized_fidelity(chi_th, planted)
        assert swapped == pytest.approx(value, abs=1e-9)
        # the returned phases reach the returned value
        reached = process_fidelity(apply_noise(planted, NoiseSpec(mode_phases=correction)),
                                   chi_th)
        assert reached == pytest.approx(value, abs=1e-9)

    # depolarizing strengths (estimate, target): 5e-5 leaves the target's
    # purity 1.9e-4 below 1, mixed by the purity rule like 0.1 and 0.2
    @pytest.mark.parametrize("p_est,p_th", [(0.1, 5e-5), (0.1, 0.2)],
                             ids=["near-pure", "mixed-mixed"])
    def test_two_mixed_arguments_raise(self, p_est, p_th):
        chi = ideal_choi(preset("ghz").settings)
        estimate, target = (apply_noise(chi, NoiseSpec(depolarizing_p=p)) for p in (p_est, p_th))
        for pair in ((estimate, target), (target, estimate)):
            with pytest.raises(InvalidArgumentError, match="needs a pure estimate or target"):
                phase_optimized_fidelity(*pair)
        # raw fidelity of the same pair stays defined
        assert 0.0 < process_fidelity(estimate, target) <= 1.0

    def test_pure_target_search_allocates_little(self):
        # the 16^4-point screen ends in one 1 MiB complex array; the 65,536
        # phase vectors it replaces would take 16 MiB complex at once
        chi_th = ideal_choi(preset("ghz").settings)
        noisy = apply_noise(chi_th, NoiseSpec(depolarizing_p=1e-3))
        tracemalloc.start()
        try:
            phase_optimized_fidelity(noisy, chi_th)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * 2**20


def _reference_screen_function(chi, chi_th):
    """The evaluator of the blocked screen: the quadratic form of the pure
    argument (residual spectrum below 1e-9 of the trace), the fidelity of a
    pair with one pure argument."""
    for pure, other in ((chi_th.choi, chi.choi), (chi.choi.T, chi_th.choi.T)):
        vals, vecs = np.linalg.eigh(pure)
        if vals[-1] >= np.trace(pure).real - 1e-9:
            quad = np.outer(vecs[:, -1].conj(), vecs[:, -1]) * other
            return lambda ws: np.einsum("gj,gj->g", ws @ quad, ws.conj()).real
    raise AssertionError("the reference screen needs a pure argument")


def _reference_screen(chi, chi_th):
    """The blocked 16^4 screen, over blocks of 2048 phase vectors."""
    screen = _reference_screen_function(chi, chi_th)
    points = np.arange(PHASE_GRID_POINTS**4)
    return np.concatenate([screen(_phase_vectors(_reference_grid_phases(points[s:s + 2048, None])))
                           for s in range(0, len(points), 2048)])


def _reference_grid_phases(index):
    axis = np.linspace(0.0, TWO_PI, PHASE_GRID_POINTS, endpoint=False)
    place = PHASE_GRID_POINTS ** np.arange(3, -1, -1)  # the first phase varies slowest
    return axis[index // place % PHASE_GRID_POINTS]


def _overlap_coefficients(chi, chi_th):
    """The 81 frequency coefficients of the overlap Tr[D chi D^dag chi_th]."""
    return _GATHER @ (chi.choi * chi_th.choi.T).ravel()


def _reference_search(chi, chi_th):
    """The Nelder-Mead phase search that Newton steps replaced: the blocked
    screen's first maximum seeds one Nelder-Mead refinement of the exact
    fidelity."""
    exact = _reference_screen_function(chi, chi_th)
    res = minimize(lambda x: -exact(_phase_vectors(x[None, :]))[0],
                   x0=_reference_grid_phases(np.argmax(_reference_screen(chi, chi_th))),
                   method="Nelder-Mead", options={"xatol": PHASE_TOL})
    return max(float(-res.fun), process_fidelity(chi, chi_th))


def _noisy_gate_channel(rng, settings, planted=True):
    chi = apply_noise(ideal_choi(settings), NoiseSpec(depolarizing_p=rng.uniform(0.05, 0.4),
                                                      dephasing_p=rng.uniform(0.0, 0.2)))
    if planted:
        chi = apply_noise(chi, NoiseSpec(
            mode_phases=PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4)))))
    return chi


class TestPhaseScreenOracle:
    """The separable screen against the blocked screen, and the search against
    the Nelder-Mead search it replaced."""

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_fft_grid_equals_blocked_screen_on_presets(self, name, rng):
        chi_th = ideal_choi(preset(name).settings)
        noisy = _noisy_gate_channel(rng, preset(name).settings)
        # a pure target, then a pure estimate: the overlap polynomial equals
        # the pure argument's form
        for chi, target in ((noisy, chi_th), (chi_th, noisy)):
            grid = _grid_values(_overlap_coefficients(chi, target))
            assert np.max(np.abs(grid.ravel() - _reference_screen(chi, target))) <= 1e-13

    def test_fft_grid_equals_blocked_screen_on_random_pure_settings(self, rng):
        for _ in range(4):
            chi, chi_th = (ideal_choi(GateSettings(*rng.uniform(0.0, np.pi, 2)))
                           for _ in range(2))
            grid = _grid_values(_overlap_coefficients(chi, chi_th))
            assert np.max(np.abs(grid.ravel() - _reference_screen(chi, chi_th))) <= 1e-13

    @pytest.mark.parametrize("name", CONVERSION_PRESET_NAMES)
    def test_seed_does_not_follow_last_bit_rounding(self, name):
        # a conversion channel's phase symmetries tie up to 4096 grid points
        # at the maximum; a 1e-15 change of the estimate must not pick another
        chi_th = ideal_choi(preset(name).settings)
        estimate = apply_noise(chi_th, NoiseSpec(
            depolarizing_p=0.05, mode_phases=PhaseCorrection((0.3, 1.1, 2.0, 0.7))))
        h = np.random.default_rng(7).normal(size=(16, 16, 2)) @ [1.0, 1j]
        perturbed = ChoiProcess(estimate.choi + 1e-15 * (h + h.conj().T) / 2.0)
        _, correction = phase_optimized_fidelity(estimate, chi_th)
        _, moved = phase_optimized_fidelity(perturbed, chi_th)
        turn = np.angle(np.exp(1j * (np.array(moved.phases) - correction.phases)))
        assert np.max(np.abs(turn)) <= 1e-6


def _pure_pairs(rng, n):
    """n pairs (estimate, target) of a random-rank Ginibre channel and a pure
    gate channel, in both orders."""
    pairs = []
    for _ in range(n):
        pure = ideal_choi(GateSettings(*rng.uniform(0.0, np.pi, 2)))
        mixed = ChoiProcess(random_density_matrix(rng, 4, rank=int(rng.integers(1, 17))).matrix)
        pairs += [(mixed, pure), (pure, mixed)]
    return pairs


class TestPhaseNewton:
    """Newton steps on the 81-term fidelity polynomial of a pure pair."""

    def test_closed_form_derivatives_match_central_differences(self, rng):
        for chi, chi_th in _pure_pairs(rng, 3):
            objective = _reference_screen_function(chi, chi_th)
            derivatives = _polynomial_derivatives(_overlap_coefficients(chi, chi_th))
            for theta in rng.uniform(0.0, TWO_PI, (3, 4)):
                value, grad, hess = derivatives(theta)
                assert value == pytest.approx(objective(_phase_vectors(theta[None]))[0], abs=1e-14)
                # central differences: truncation ~1e-11 and rounding ~1e-11 in
                # the gradient at 1e-5, ~1e-8 each in the Hessian at 1e-4
                h, eye = 1e-5, np.eye(4)
                f = objective(_phase_vectors(theta + h * np.concatenate([eye, -eye])))
                assert np.max(np.abs(grad - (f[:4] - f[4:]) / (2 * h))) <= 1e-9
                h = 1e-4
                corners = np.array([theta + h * (s * eye[a] + t * eye[b])
                                    for a in range(4) for b in range(4)
                                    for s, t in ((1, 1), (1, -1), (-1, 1), (-1, -1))])
                f = objective(_phase_vectors(corners)).reshape(4, 4, 4)
                assert np.max(np.abs(hess - f @ [1, -1, -1, 1] / (4 * h * h))) <= 1e-6

    @pytest.mark.parametrize("kind", ["ideal", "depolarized-planted"])
    @pytest.mark.parametrize("name", CONVERSION_PRESET_NAMES)
    def test_never_below_nelder_mead_on_conversion_presets(self, name, kind):
        # measured: within 2.2e-16 of Nelder-Mead on either side
        chi_th = ideal_choi(preset(name).settings)
        chi = chi_th if kind == "ideal" else apply_noise(chi_th, NoiseSpec(
            depolarizing_p=0.05, mode_phases=PhaseCorrection((2.9, 0.4, 5.1, 1.7))))
        value, correction = phase_optimized_fidelity(chi, chi_th)
        assert value >= _reference_search(chi, chi_th) - 1e-12
        reached = process_fidelity(apply_noise(chi, NoiseSpec(mode_phases=correction)), chi_th)
        assert reached == pytest.approx(value, abs=1e-14)

    @pytest.mark.parametrize("name", CONVERSION_PRESET_NAMES)
    def test_no_step_along_phase_symmetries(self, name):
        # a conversion channel's fidelity is constant along its phase
        # symmetries, the null space of the Hessian everywhere; the steps
        # leave the seed's component there unchanged
        chi_th = ideal_choi(preset(name).settings)
        chi = apply_noise(chi_th, NoiseSpec(
            depolarizing_p=0.05, mode_phases=PhaseCorrection((0.3, 1.1, 2.0, 0.7))))
        screen = _reference_screen(chi, chi_th)
        seed = _reference_grid_phases(np.flatnonzero(screen >= screen.max() - 1e-12)[0])
        _, correction = phase_optimized_fidelity(chi, chi_th)
        theta = seed + np.angle(np.exp(1j * (np.array(correction.phases) - seed)))
        _, _, hess = _polynomial_derivatives(_overlap_coefficients(chi, chi_th))(theta)
        curvatures, axes = np.linalg.eigh(hess)
        flat = axes[:, np.abs(curvatures) <= 1e-9 * np.abs(curvatures).max()]
        assert flat.shape[1] >= 1
        assert np.max(np.abs(flat.T @ (theta - seed))) <= 1e-12


def test_phase_search_imports_no_scipy():
    # the child imports the same convgate as this process, installed or not
    src = str(Path(convgate.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = """
import sys
import numpy as np
import convgate
from convgate.gate import ideal_choi, preset
from convgate.metrics import phase_optimized_fidelity
from convgate.noise import NoiseSpec, apply_noise
chi_th = ideal_choi(preset("ghz").settings)
noisy = apply_noise(chi_th, NoiseSpec(depolarizing_p=0.1))
value, _ = phase_optimized_fidelity(noisy, chi_th)
assert 0.0 < value <= 1.0
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))
"""
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env=env)
    assert result.returncode == 0, result.stderr


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


def _reference_conditional_minimum(rho, measured_qubit):
    """Per-point grid loop (first strict minimum) and Nelder-Mead refinement."""
    best_val, best_angles = np.inf, (0.0, 0.0)
    for theta, phi in _reference_grid():
        val = _reference_conditional_entropy(rho, measured_qubit, theta, phi)
        if val < best_val:
            best_val, best_angles = val, (theta, phi)
    res = minimize(lambda x: _reference_conditional_entropy(rho, measured_qubit, x[0], x[1]),
                   x0=np.array(best_angles), method="Nelder-Mead",
                   options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400})
    return min(best_val, float(res.fun))


def _reference_discord(m, measured_qubit):
    value = (von_neumann_entropy(partial_trace(m, {measured_qubit}))
             - von_neumann_entropy(m) + _reference_conditional_minimum(m.matrix, measured_qubit))
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
    """The batched evaluator against the per-point loop it replaced, bit for
    bit, and the discord against the grid loop refined by Nelder-Mead."""

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
        assert abs(value - _reference_discord(m, measured_qubit)) <= DISCORD_REFINEMENT_TOL


def _classical_quantum_state(measured_qubit, theta, phi, p=0.3):
    """p |n><n| (x) rho_0 + (1 - p) |-n><-n| (x) rho_1 with |n> the Bloch
    direction (theta, phi) on the measured qubit and full-rank rho_i on the
    other, so the conditional entropy is smooth with its minimum, p S(rho_0) +
    (1 - p) S(rho_1), at +-n; returns the state and that minimum."""
    rng = np.random.default_rng(3)
    kets = (np.array([np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi)]),
            np.array([-np.sin(theta / 2), np.cos(theta / 2) * np.exp(1j * phi)]))
    mat, minimum = np.zeros((4, 4), dtype=complex), 0.0
    for weight, ket in zip((p, 1.0 - p), kets):
        proj, other = np.outer(ket, ket.conj()), random_density_matrix(rng, 1)
        mat += weight * (np.kron(proj, other.matrix) if measured_qubit == 0
                         else np.kron(other.matrix, proj))
        minimum += weight * von_neumann_entropy(other)
    return DensityMatrix(mat, validate=False), minimum


# an optimum just below phi = 2 pi, 0.01 from the grid meridian phi = 0
SEAM = (1.0, TWO_PI - 0.01)
REFINEMENT_EDGE_STATES = {
    "pole": lambda q: _classical_quantum_state(q, 0.0, 0.0)[0],
    "seam": lambda q: _classical_quantum_state(q, *SEAM)[0],
    "maximally-mixed": lambda q: DensityMatrix.maximally_mixed(2),
    "bell": lambda q: target_state("phi_plus").density(),
}


def _bloch_vectors(theta, phi):
    return np.stack([np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)],
                    axis=-1)


class TestDiscordScreen:
    """The screen holds each projective measurement of ``DISCORD_GRID`` once:
    n and -n are one measurement with the outcomes swapped."""

    def test_no_two_screened_directions_are_one_measurement(self):
        theta, phi = _screen_directions()
        assert len(theta) == len(phi) == 361
        overlaps = np.abs(_bloch_vectors(theta, phi) @ _bloch_vectors(theta, phi).T)
        np.fill_diagonal(overlaps, 0.0)
        assert overlaps.max() < 1.0 - 1e-12

    def test_every_grid_point_is_screened_or_its_antipode_is(self):
        grid = _bloch_vectors(*np.array(_reference_grid()).T)
        assert len(grid) == DISCORD_GRID[0] * DISCORD_GRID[1]
        overlaps = grid @ _bloch_vectors(*_screen_directions()).T
        assert np.all(np.abs(overlaps).max(axis=1) >= 1.0 - 1e-12)

    def test_discord_reads_one_read_only_screen_built_at_import(self, monkeypatch, demo_state):
        from convgate import metrics
        for built, fresh in zip(metrics._SCREEN, _screen_directions()):
            assert np.array_equal(built, fresh) and not built.flags.writeable
        expected = discord(demo_state, 1)

        def rebuilt():
            raise AssertionError("discord rebuilt its screen")

        monkeypatch.setattr(metrics, "_screen_directions", rebuilt)
        assert discord(demo_state, 1) == expected

    @pytest.mark.parametrize("measured_qubit", [0, 1])
    def test_screened_minimum_is_the_grid_minimum(self, measured_qubit):
        grid = np.array(_reference_grid()).T
        states = {**ORACLE_STATES,
                  **{name: make(measured_qubit) for name, make in REFINEMENT_EDGE_STATES.items()}}
        for name, m in states.items():
            screened = _conditional_entropies(m.matrix, measured_qubit, *_screen_directions())
            full = _conditional_entropies(m.matrix, measured_qubit, *grid)
            assert abs(screened.min() - full.min()) <= 1e-15, name


# the 321st discord(., 0) estimate of ``convgate reproduce discord --seed 3``, a
# rank-2 fit. From the pole seeds at phi index 9, 19, 29 and 39 a Newton step
# cuts the stencil half-width to 3.6e-4; a refinement that keeps that
# half-width on each move to a better stencil point creeps 3.6e-4 per round
# and ends at the round cap, 3.4e-6 above the minimum
STALL_STATE = np.array([
    [0.13297250258088186, 0.13302986084620227, -0.002149901399452229, -0.027741677451252833],
    [0.13302986084620227, 0.13383955178202195, -0.0105042621834124, -0.009685481470988362],
    [-0.002149901399452229, -0.0105042621834124, 0.13062235988512041, -0.27772938455150026],
    [-0.027741677451252833, -0.009685481470988362, -0.27772938455150026, 0.6025655857519749],
]) + 1j * np.array([
    [0.0, -0.004237950454034236, -0.006043574841336068, 0.018617933450866507],
    [0.004237950454034236, 0.0, -0.008834905921743906, 0.022042259949780672],
    [0.006043574841336068, 0.008834905921743906, 0.0, 0.02113813379244589],
    [-0.018617933450866507, -0.022042259949780672, -0.02113813379244589, 0.0],
])


class TestDiscordRefinement:
    """Optima on a pole and across the phi seam, and flat or degenerate
    conditional entropies, where the Hessian carries no information."""

    @pytest.mark.parametrize("measured_qubit", [0, 1])
    @pytest.mark.parametrize("name", list(REFINEMENT_EDGE_STATES))
    def test_matches_oracle_within_the_round_cap(self, monkeypatch, name, measured_qubit):
        m = REFINEMENT_EDGE_STATES[name](measured_qubit)
        calls = []

        def counted(*args):
            calls.append(args)
            return _conditional_entropies(*args)

        monkeypatch.setattr("convgate.metrics._conditional_entropies", counted)
        value = discord(m, measured_qubit)
        assert len(calls) <= DISCORD_ROUNDS + 1
        theta, phi = np.array(_reference_grid()).T
        grid_only = (von_neumann_entropy(partial_trace(m, {measured_qubit}))
                     - von_neumann_entropy(m)
                     + _conditional_entropies(m.matrix, measured_qubit, theta, phi).min())
        assert value <= max(0.0, grid_only)
        assert abs(value - _reference_discord(m, measured_qubit)) <= DISCORD_REFINEMENT_TOL

    @pytest.mark.parametrize("measured_qubit", [0, 1])
    @pytest.mark.parametrize("name", ["pure", "bell"])
    def test_flat_entropy_stops_at_the_first_stencil(self, monkeypatch, name, measured_qubit):
        # every measurement leaves the other qubit pure, so the conditional
        # entropy is 0 in every direction and the stencil values agree to rounding
        m = (PureState(np.array([0.6, 0.48j, -0.64, 0.0])).density() if name == "pure"
             else target_state("phi_plus").density())
        calls = []

        def counted(*args):
            calls.append(args)
            return _conditional_entropies(*args)

        monkeypatch.setattr("convgate.metrics._conditional_entropies", counted)
        value = discord(m, measured_qubit)
        assert len(calls) <= 3
        assert abs(value - _reference_discord(m, measured_qubit)) <= DISCORD_REFINEMENT_TOL

    def test_every_pole_seed_reaches_the_minimum_before_the_round_cap(self, monkeypatch):
        minimum = _reference_conditional_minimum(STALL_STATE, 0)
        calls = []

        def counted(*args):
            calls.append(args)
            return _conditional_entropies(*args)

        monkeypatch.setattr("convgate.metrics._conditional_entropies", counted)
        for phi in np.linspace(0.0, TWO_PI, DISCORD_GRID[1], endpoint=False):
            calls.clear()
            refined = _refined_conditional_entropy(STALL_STATE, 0, 0.0, phi,
                                                   np.pi / (DISCORD_GRID[0] - 1))
            # fewer rounds than the cap: the refinement ended by its own rule
            assert len(calls) < DISCORD_ROUNDS, phi
            assert abs(refined - minimum) <= DISCORD_REFINEMENT_TOL, phi
        m = DensityMatrix(STALL_STATE, validate=False)
        assert abs(discord(m, 0) - _reference_discord(m, 0)) <= DISCORD_REFINEMENT_TOL

    @pytest.mark.parametrize("measured_qubit", [0, 1])
    def test_crosses_the_phi_seam_from_the_nearest_grid_point(self, measured_qubit):
        # the screen may seed the refinement on either side of the seam, so it
        # starts here from the grid point on phi = 0 nearest the optimum just
        # below 2 pi
        m, minimum = _classical_quantum_state(measured_qubit, *SEAM)
        spacing = np.pi / (DISCORD_GRID[0] - 1)
        start = spacing * round(SEAM[0] / spacing)
        assert _conditional_entropies(m.matrix, measured_qubit, np.array([start]),
                                      np.array([0.0]))[0] > minimum + 1e-6
        refined = _refined_conditional_entropy(m.matrix, measured_qubit, start, 0.0, spacing)
        assert abs(refined - minimum) <= 1e-14
        # the discord of a classical-quantum state vanishes
        assert 0.0 <= discord(m, measured_qubit) <= 1e-14


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
