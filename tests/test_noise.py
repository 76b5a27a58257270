import numpy as np
import pytest

from convgate.core import (
    PAULI_Z,
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_choi_channel,
)
from convgate.errors import InvalidArgumentError, NumericalDomainError
from convgate.gate import GateSettings, cluster_state_c4, ideal_choi, preset
from convgate.metrics import (
    PhaseCorrection,
    fidelity,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
)
from convgate.noise import (
    DEFAULT_CHANNEL_TEMPLATE,
    DEFAULT_STATE_TEMPLATE,
    STATE_CALIBRATION_TOL,
    NoiseSpec,
    apply_noise,
    calibrate_noise_to_fidelity,
)

from conftest import expand_operator, random_density_matrix


@pytest.fixture(scope="module")
def chi_ghz():
    return ideal_choi(GateSettings(0.0, np.pi / 4))


# --- oracle: the noise model written once per kind, step by step ---------

def _oracle_channel(chi, spec):
    """Depolarize, dephase both outputs, then conjugate by the mode phases."""
    p = spec.depolarizing_p
    if p != 0.0:
        scale = (1.0 - p) * chi.success_scale + p
        stored = ((1.0 - p) * chi.success_scale * chi.choi
                  + p * (np.eye(16, dtype=complex) / 16.0)) / scale
        chi = ChoiProcess(stored, success_scale=scale, validate=False)
    mat = chi.choi
    for out_qubit in (2, 3):
        z = expand_operator(PAULI_Z, 4, (out_qubit,))
        mat = (1.0 - spec.dephasing_p) * mat + spec.dephasing_p * (z @ mat @ z)
    chi = ChoiProcess(mat, success_scale=chi.success_scale, validate=False)
    if spec.mode_phases is not None:
        w = spec.mode_phases.phase_vector()
        chi = ChoiProcess(chi.choi * np.outer(w, w.conj()), success_scale=chi.success_scale,
                          validate=False)
    return chi


def _oracle_state(rho, spec):
    """Mix with the maximally mixed state, dephase each qubit in turn, then
    apply the first n mode phases."""
    p, d = spec.depolarizing_p, 2**rho.qubits
    out = DensityMatrix((1.0 - p) * rho.matrix + p * np.eye(d) / d, validate=False)
    for qubit in range(rho.qubits):
        z = expand_operator(PAULI_Z, rho.qubits, (qubit,))
        q = spec.dephasing_p
        out = DensityMatrix((1.0 - q) * out.matrix + q * (z @ out.matrix @ z), validate=False)
    if spec.mode_phases is not None:
        w = spec.mode_phases.phase_vector(rho.qubits)
        out = DensityMatrix(out.matrix * np.outer(w, w.conj()), validate=False)
    return out


def _bits(mat):
    return np.ascontiguousarray(mat).view(np.uint64)


def _random_spec(rng):
    """Each component zero, extreme or random, so the zero branches are hit."""
    p = (0.0, 1.0, float(rng.uniform()))[rng.integers(3)]
    q = (0.0, float(rng.uniform()), 1.0)[rng.integers(3)]
    phases = (None, PhaseCorrection.zero(),
              PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4))))[rng.integers(3)]
    return NoiseSpec(p, q, phases)


def _random_state(rng, i):
    """Dense random states and states with exact zeros, on 1 to 4 qubits."""
    qubits = int(rng.integers(1, 5))
    if i % 3 == 0:
        return random_density_matrix(rng, qubits, int(rng.integers(1, 2**qubits + 1)))
    if i % 3 == 1 and qubits == 4:
        return cluster_state_c4().density()
    return PureState.from_labels("".join(rng.choice(list("HV+-RL"), qubits))).density()


class TestOneNoiseBody:
    PRESETS = ("cluster-identity", "ghz", "dicke", "bell-pair", "entangler", "discord-demo")

    def test_channels_equal_the_oracle_bit_for_bit(self, rng):
        for i in range(150):
            settings = (preset(self.PRESETS[i % 6]).settings if i % 2
                        else GateSettings(*rng.uniform(0, 2 * np.pi, 2)))
            chi = ideal_choi(settings)
            spec = _random_spec(rng)
            out, expected = apply_noise(chi, spec), _oracle_channel(chi, spec)
            assert isinstance(out, ChoiProcess)
            assert np.array_equal(_bits(out.choi), _bits(expected.choi))
            assert out.success_scale == expected.success_scale

    def test_states_equal_the_oracle_bit_for_bit(self, rng):
        for i in range(150):
            rho, spec = _random_state(rng, i), _random_spec(rng)
            out, expected = apply_noise(rho, spec), _oracle_state(rho, spec)
            assert isinstance(out, DensityMatrix)
            if spec.depolarizing_p == 0.0:
                # the mixing step is skipped, which can only flip an exact zero's sign
                assert np.array_equal(out.matrix, expected.matrix)
            else:
                assert np.array_equal(_bits(out.matrix), _bits(expected.matrix))

    @pytest.mark.parametrize("x", [PureState.from_labels("HH"), np.eye(4) / 4, None],
                             ids=["pure-state", "array", "none"])
    def test_other_kinds_are_rejected(self, x):
        with pytest.raises(InvalidArgumentError):
            apply_noise(x, NoiseSpec(depolarizing_p=0.1))
        with pytest.raises(InvalidArgumentError):
            calibrate_noise_to_fidelity(0.9, x, DEFAULT_STATE_TEMPLATE)


class TestDepolarize:
    def test_zero_is_identity(self, chi_ghz):
        out = apply_noise(chi_ghz, NoiseSpec(depolarizing_p=0.0))
        assert np.abs(out.choi - chi_ghz.choi).max() == 0.0
        assert out.success_scale == chi_ghz.success_scale

    def test_full_depolarizing_is_white(self, chi_ghz):
        out = apply_noise(chi_ghz, NoiseSpec(depolarizing_p=1.0))
        assert np.abs(out.choi - np.eye(16) / 16).max() < 1e-14
        assert purity(out) == pytest.approx(1.0 / 16.0, abs=1e-14)
        assert out.success_scale == 1.0

    def test_purity_monotone_in_p(self, chi_ghz):
        values = [purity(apply_noise(chi_ghz, NoiseSpec(depolarizing_p=p)))
                  for p in np.linspace(0, 1, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[0] == pytest.approx(1.0, abs=1e-12)

    def test_success_probabilities_mix_linearly(self, chi_ghz):
        rho = PureState.from_labels("++").density()
        p = 0.3
        out = apply_noise(chi_ghz, NoiseSpec(depolarizing_p=p))
        _, prob = apply_choi_channel(rho, out)
        # white channel is trace preserving: probability (1-p) q + p
        assert prob == pytest.approx((1 - p) * 0.5 + p, abs=1e-12)

    def test_composition_law(self, chi_ghz):
        a = apply_noise(apply_noise(chi_ghz, NoiseSpec(depolarizing_p=0.2)),
                        NoiseSpec(depolarizing_p=0.3))
        b = apply_noise(chi_ghz, NoiseSpec(depolarizing_p=1 - (1 - 0.2) * (1 - 0.3)))
        assert np.abs(a.choi - b.choi).max() < 1e-12
        assert a.success_scale == pytest.approx(b.success_scale, abs=1e-12)

    def test_full_depolarizing_of_a_state_is_maximally_mixed(self):
        out = apply_noise(cluster_state_c4().density(), NoiseSpec(depolarizing_p=1.0))
        assert np.abs(out.matrix - np.eye(16) / 16).max() < 1e-15

    def test_out_of_range(self, chi_ghz):
        with pytest.raises(InvalidArgumentError):
            apply_noise(chi_ghz, NoiseSpec(depolarizing_p=1.5))


class TestDephaseState:
    def test_zero_is_identity(self):
        rho = cluster_state_c4().density()
        out = apply_noise(rho, NoiseSpec(dephasing_p=0.0))
        assert np.abs(out.matrix - rho.matrix).max() == 0.0

    def test_half_on_plus_gives_maximally_mixed(self):
        rho = PureState.from_labels("+").density()
        out = apply_noise(rho, NoiseSpec(dephasing_p=0.5))
        assert np.abs(out.matrix - np.eye(2) / 2).max() < 1e-14

    def test_half_on_every_cluster_qubit(self):
        # F = sum_s |<C|Z^s|C>|^2 / 16 over the 16 Z strings s; on
        # |HHHH> + |HHVV> + |VVHH> - |VVVV> four of them (1, Z1Z2, Z3Z4 and
        # their product) keep the state, the others are orthogonal to it
        rho = cluster_state_c4().density()
        out = apply_noise(rho, NoiseSpec(dephasing_p=0.5))
        assert fidelity(out, rho) == pytest.approx(4.0 / 16.0, abs=1e-12)

    def test_composition_law(self):
        rho = cluster_state_c4().density()
        a = apply_noise(apply_noise(rho, NoiseSpec(dephasing_p=0.2)), NoiseSpec(dephasing_p=0.3))
        # Z rho Z mixing composes with r = p + q - 2 p q
        b = apply_noise(rho, NoiseSpec(dephasing_p=0.2 + 0.3 - 2 * 0.2 * 0.3))
        assert np.abs(a.matrix - b.matrix).max() < 1e-14

    def test_channel_inputs_do_not_dephase(self, chi_ghz):
        # only the Choi-space output qubits (2, 3) dephase, so tracing the
        # outputs out leaves the input marginal untouched
        out = apply_noise(chi_ghz, NoiseSpec(dephasing_p=0.5))
        assert not np.allclose(out.choi, chi_ghz.choi)
        inputs = [np.einsum("aibi->ab", m.reshape(4, 4, 4, 4)) for m in (out.choi, chi_ghz.choi)]
        assert np.abs(inputs[0] - inputs[1]).max() < 1e-15

    def test_out_of_range(self):
        with pytest.raises(InvalidArgumentError):
            apply_noise(cluster_state_c4().density(), NoiseSpec(dephasing_p=-0.1))


class TestModePhases:
    def test_zero_phases_identity(self, chi_ghz):
        out = apply_noise(chi_ghz, NoiseSpec(mode_phases=PhaseCorrection.zero()))
        assert np.abs(out.choi - chi_ghz.choi).max() < 1e-14

    def test_purity_and_spectrum_invariant(self, chi_ghz):
        noisy = apply_noise(chi_ghz, NoiseSpec(depolarizing_p=0.25))
        shifted = apply_noise(noisy, NoiseSpec(mode_phases=PhaseCorrection((0.4, 1.1, 2.2, 5.0))))
        assert purity(shifted) == pytest.approx(purity(noisy), abs=1e-12)
        assert np.allclose(np.linalg.eigvalsh(shifted.choi),
                           np.linalg.eigvalsh(noisy.choi), atol=1e-12)

    def test_plant_and_recover(self, chi_ghz, rng):
        planted = apply_noise(chi_ghz, NoiseSpec(
            mode_phases=PhaseCorrection(tuple(rng.uniform(0, 2 * np.pi, 4)))))
        value, _ = phase_optimized_fidelity(planted, chi_ghz)
        assert value >= 0.999999

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_phases_are_rejected(self, bad):
        with pytest.raises(InvalidArgumentError, match="finite"):
            PhaseCorrection((bad, 0.0, 0.0, 0.0))


class TestChannelNoise:
    def test_zero_spec_is_identity(self, chi_ghz):
        out = apply_noise(chi_ghz, NoiseSpec())
        assert np.abs(out.choi - chi_ghz.choi).max() < 1e-14

    def test_output_satisfies_invariants(self, chi_ghz):
        out = apply_noise(chi_ghz, DEFAULT_CHANNEL_TEMPLATE)
        assert np.trace(out.choi).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(out.choi).min() >= -1e-9
        from convgate.core import hermiticity_defect
        assert hermiticity_defect(out.choi) < 1e-9

    def test_scaled_template(self):
        spec = DEFAULT_CHANNEL_TEMPLATE.scaled(0.5)
        assert spec.depolarizing_p == pytest.approx(0.25)
        assert spec.mode_phases.phases[0] == pytest.approx(
            DEFAULT_CHANNEL_TEMPLATE.mode_phases.phases[0] / 2)


class TestStateNoise:
    def test_invariants_on_cluster(self):
        out = apply_noise(cluster_state_c4().density(), DEFAULT_STATE_TEMPLATE)
        assert np.trace(out.matrix).real == pytest.approx(1.0, abs=1e-9)
        assert np.linalg.eigvalsh(out.matrix).min() >= -1e-9


class TestCalibration:
    def test_target_one_gives_zero_noise(self, chi_ghz):
        spec = calibrate_noise_to_fidelity(1.0, chi_ghz, DEFAULT_CHANNEL_TEMPLATE)
        assert spec.is_zero()

    @pytest.mark.parametrize("name,target", [
        ("cluster-identity", 0.947), ("ghz", 0.875),
        ("dicke", 0.925), ("bell-pair", 0.947),
    ])
    def test_hits_documented_targets(self, name, target):
        chi_th = ideal_choi(preset(name).settings)
        spec = calibrate_noise_to_fidelity(target, chi_th, DEFAULT_CHANNEL_TEMPLATE)
        achieved = process_fidelity(apply_noise(chi_th, spec), chi_th)
        assert achieved == pytest.approx(target, abs=1e-4)

    def test_monotone_under_template_scaling(self, chi_ghz):
        spec = calibrate_noise_to_fidelity(0.9, chi_ghz, DEFAULT_CHANNEL_TEMPLATE)
        f1 = process_fidelity(apply_noise(chi_ghz, spec), chi_ghz)
        doubled = NoiseSpec(
            min(1.0, 2 * spec.depolarizing_p), min(1.0, 2 * spec.dephasing_p),
            spec.mode_phases.scaled(2.0) if spec.mode_phases else None)
        f2 = process_fidelity(apply_noise(chi_ghz, doubled), chi_ghz)
        assert f2 < f1

    def test_unreachable_target(self, chi_ghz):
        weak = NoiseSpec(depolarizing_p=0.001)
        with pytest.raises(NumericalDomainError):
            calibrate_noise_to_fidelity(0.6, chi_ghz, weak)

    def test_target_range_validated(self, chi_ghz):
        with pytest.raises(InvalidArgumentError):
            calibrate_noise_to_fidelity(0.4, chi_ghz, DEFAULT_CHANNEL_TEMPLATE)

    def test_state_fixture_calibration(self):
        ideal = cluster_state_c4().density()
        spec = calibrate_noise_to_fidelity(0.915, ideal, DEFAULT_STATE_TEMPLATE)
        achieved = fidelity(apply_noise(ideal, spec), ideal)
        assert achieved == pytest.approx(0.915, abs=STATE_CALIBRATION_TOL)


class TestNoiseSpecValidation:
    def test_probability_bounds(self):
        with pytest.raises(InvalidArgumentError):
            NoiseSpec(depolarizing_p=-0.2)
        with pytest.raises(InvalidArgumentError):
            NoiseSpec(dephasing_p=1.2)
