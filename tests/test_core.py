import itertools
import re

import numpy as np
import pytest

from convgate.core import (
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_choi_channel,
    apply_operator,
    channel_output_unnormalized,
    clamp_spectrum,
    hermiticity_defect,
    matrix_sqrt,
    normalize_state,
    partial_trace,
    partial_transpose,
)
from convgate.errors import (
    DegenerateOutcomeError,
    InvalidArgumentError,
    NumericalDomainError,
)
from convgate.gate import (
    GateSettings,
    build_gate,
    cluster_state_c4,
    convert_cluster,
    dicke_angles,
    ideal_choi,
    preset,
    table1_rows,
    target_state,
)
from convgate.noise import DEFAULT_CHANNEL_TEMPLATE, apply_noise
from convgate.tomography import mle_process_matrix, simulate_counts

from conftest import (
    expand_operator,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        phi = target_state("phi_plus").density()
        reduced = partial_trace(phi, {0})
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() < 1e-12

    def test_product_marginal(self):
        rho = PureState.from_labels("H+").density()
        reduced = partial_trace(rho, {0})
        assert np.abs(reduced.matrix - np.outer([1, 0], [1, 0])).max() < 1e-12

    def test_ghz_output_marginal_vs_brute_force(self):
        out, _ = convert_cluster(GateSettings(0.0, np.pi / 4))
        rho = out.density()
        reduced = partial_trace(rho, {0, 3})
        # independent brute-force index summation over the traced qubits 1, 2
        t = rho.matrix.reshape((2,) * 8)
        expected = np.zeros((4, 4), dtype=complex)
        for a in range(2):
            for d in range(2):
                for ap in range(2):
                    for dp in range(2):
                        total = 0.0 + 0.0j
                        for b in range(2):
                            for c in range(2):
                                total += t[a, b, c, d, ap, b, c, dp]
                        expected[2 * a + d, 2 * ap + dp] = total
        assert np.abs(reduced.matrix - expected).max() < 1e-12

    def test_kron_then_trace_recovers_factor(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng, 1)
            sigma = random_density_matrix(rng, 1)
            joint = DensityMatrix(np.kron(rho.matrix, sigma.matrix), validate=False)
            back = partial_trace(joint, {0})
            assert np.abs(back.matrix - rho.matrix).max() < 1e-12

    def test_rejects_empty_and_full_keep(self):
        rho = random_density_matrix(np.random.default_rng(0), 2)
        with pytest.raises(InvalidArgumentError):
            partial_trace(rho, set())
        with pytest.raises(InvalidArgumentError):
            partial_trace(rho, {0, 1})

    def test_equals_the_letter_einsum_bit_for_bit(self, rng):
        for qubits in (2, 3, 4):
            for _ in range(5):
                rho = random_density_matrix(rng, qubits, int(rng.integers(1, 2**qubits + 1)))
                for k in range(1, qubits):
                    for kept in itertools.combinations(range(qubits), k):
                        expected = _letter_einsum_trace(rho.matrix, kept)
                        got = partial_trace(rho, set(kept)).matrix
                        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


def _letter_einsum_trace(matrix, kept):
    """The partial trace as one einsum over 2n qubit letters, the kept qubits'
    column letters renamed so that only the traced qubits are summed."""
    n = int(np.log2(matrix.shape[0]))
    row = [chr(ord("a") + q) for q in range(n)]
    col = [chr(ord("a") + n + q) if q in kept else row[q] for q in range(n)]
    out = [row[q] for q in kept] + [col[q] for q in kept]
    spec = "".join(row + col) + "->" + "".join(out)
    reduced = np.einsum(spec, matrix.reshape((2,) * (2 * n)))
    return np.ascontiguousarray(reduced.reshape(2 ** len(kept), 2 ** len(kept)))


class TestPartialTranspose:
    def test_product_state_unchanged(self):
        rho = PureState.from_labels("HV").density()
        assert np.abs(partial_transpose(rho, 0) - rho.matrix).max() < 1e-14

    def test_bell_state_minimum_eigenvalue(self):
        phi = target_state("phi_plus").density()
        vals = np.linalg.eigvalsh(partial_transpose(phi, 1))
        assert vals.min() == pytest.approx(-0.5, abs=1e-12)

    def test_werner_mixture_spectrum_vs_oracle(self):
        phi = target_state("phi_plus").density()
        rho = DensityMatrix(0.5 * phi.matrix + 0.5 * np.eye(4) / 4, validate=False)
        pt = partial_transpose(rho, 0)
        # brute-force oracle: swap row/column indices of qubit 0 explicitly
        oracle = np.empty((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                i0, i1 = divmod(i, 2)
                j0, j1 = divmod(j, 2)
                oracle[i, j] = rho.matrix[2 * j0 + i1, 2 * i0 + j1]
        assert np.abs(pt - oracle).max() < 1e-14
        assert np.allclose(np.linalg.eigvalsh(pt), np.linalg.eigvalsh(oracle))

    def test_requires_two_qubits(self):
        rho = cluster_state_c4().density()
        with pytest.raises(InvalidArgumentError):
            partial_transpose(rho, 0)


class TestMatrixSqrt:
    def test_identity(self):
        assert np.abs(matrix_sqrt(np.eye(4)) - np.eye(4)).max() < 1e-14

    def test_diagonal(self):
        assert np.allclose(matrix_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_multiply_back(self, rng):
        for _ in range(10):
            rho = random_density_matrix(rng, 2).matrix
            root = matrix_sqrt(rho)
            assert np.abs(root @ root - rho).max() < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(NumericalDomainError):
            matrix_sqrt(np.array([[0, 1], [0, 0.0]]))

    def test_rejects_negative_spectrum(self):
        with pytest.raises(NumericalDomainError):
            matrix_sqrt(np.diag([1.0, -1e-6]))

    def test_clamps_tiny_negative_eigenvalues(self):
        out = matrix_sqrt(np.diag([1.0, -5e-11]))
        assert out[1, 1] == 0.0


class TestApplyChoiChannel:
    def test_identity_channel(self, rng):
        chi = ideal_choi(GateSettings(0.0, 0.0))
        rho = random_density_matrix(rng, 2)
        out, prob = apply_choi_channel(rho, chi)
        assert prob == pytest.approx(1.0, abs=1e-12)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-12

    def test_ghz_gate_on_plus_plus(self):
        chi = ideal_choi(GateSettings(0.0, np.pi / 4))
        rho = PureState.from_labels("++").density()
        out, prob = apply_choi_channel(rho, chi)
        assert prob == pytest.approx(0.5, abs=1e-12)
        # only |HH> and |VV> survive, with opposite signs
        expected = 0.5 * np.outer([1, 0, 0, -1], [1, 0, 0, -1])
        assert np.abs(out.matrix - expected).max() < 1e-10

    def test_matches_direct_gate_application(self, rng):
        for kind, settings, _ in table1_rows()[:4]:
            g = build_gate(settings)
            chi = ideal_choi(settings)
            for _ in range(12):
                psi = random_pure_state(rng, 2)
                rho = psi.density()
                direct = g @ rho.matrix @ g.conj().T
                weight = np.trace(direct).real
                out, prob = apply_choi_channel(rho, chi)
                assert prob == pytest.approx(weight, abs=1e-10)
                assert np.abs(out.matrix - direct / weight).max() < 1e-10

    def test_unitary_channel_reproduces_conjugation(self, rng):
        pair = np.zeros(16, dtype=complex)
        pair[[0, 5, 10, 15]] = 0.5  # normalized maximally entangled in-out pair
        for _ in range(5):
            u = random_unitary(rng, 4)
            vec = np.kron(np.eye(4), u) @ pair
            chi = ChoiProcess(np.outer(vec, vec.conj()), success_scale=1.0)
            rho = random_density_matrix(rng, 2)
            out, prob = apply_choi_channel(rho, chi)
            assert prob == pytest.approx(1.0, abs=1e-10)
            assert np.abs(out.matrix - u @ rho.matrix @ u.conj().T).max() < 1e-10

    def test_degenerate_outcome(self):
        chi = ideal_choi(GateSettings(0.0, np.pi / 4))  # annihilates |HV>
        rho = PureState.from_labels("HV").density()
        with pytest.raises(DegenerateOutcomeError, match="channel annihilates this input") as err:
            apply_choi_channel(rho, chi)
        assert err.value.exit_code == 4


class TestEmbedTwoQubitChannel:
    """The channel on a target pair of a larger register, identity elsewhere."""

    def test_identity_on_cluster(self):
        chi = ideal_choi(GateSettings(0.0, 0.0))
        rho = cluster_state_c4().density()
        out, prob = apply_choi_channel(rho, chi, (1, 2))
        assert prob == pytest.approx(1.0, abs=1e-10)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-10

    def test_ghz_preset_on_cluster(self):
        chi = ideal_choi(GateSettings(0.0, np.pi / 4))
        rho = cluster_state_c4().density()
        out, prob = apply_choi_channel(rho, chi, (1, 2))
        ghz = target_state("ghz4")
        fid = (ghz.amplitudes.conj() @ out.matrix @ ghz.amplitudes).real
        assert prob == pytest.approx(0.5, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_bell_preset_on_cluster(self):
        chi = ideal_choi(GateSettings(3 * np.pi / 8, np.pi / 8))
        rho = cluster_state_c4().density()
        out, prob = apply_choi_channel(rho, chi, (1, 2))
        bell = target_state("bell_pair_product")
        fid = (bell.amplitudes.conj() @ out.matrix @ bell.amplitudes).real
        assert prob == pytest.approx(0.25, abs=1e-12)
        assert fid == pytest.approx(1.0, abs=1e-10)

    def test_commutes_with_relabeling(self, rng):
        chi = ideal_choi(GateSettings(np.pi / 5, np.pi / 7))
        rho = random_density_matrix(rng, 3)
        perm = [2, 0, 1]
        p_op = np.zeros((8, 8))
        for idx in range(8):
            bits = [(idx >> (2 - q)) & 1 for q in range(3)]
            new = sum(bits[perm[q]] << (2 - q) for q in range(3))
            p_op[new, idx] = 1.0
        rho_perm = DensityMatrix(p_op @ rho.matrix @ p_op.T, validate=False)
        targets = (0, 2)
        perm_targets = tuple(perm.index(t) for t in targets)
        out, prob = apply_choi_channel(rho, chi, targets)
        out_perm, prob_perm = apply_choi_channel(rho_perm, chi, perm_targets)
        assert prob == pytest.approx(prob_perm, abs=1e-12)
        assert np.abs(p_op @ out.matrix @ p_op.T - out_perm.matrix).max() < 1e-10

    def test_rejects_repeated_targets(self):
        chi = ideal_choi(GateSettings(0.0, 0.0))
        with pytest.raises(InvalidArgumentError):
            apply_choi_channel(cluster_state_c4().density(), chi, (1, 1))

    @pytest.mark.parametrize("qubits,targets", [(4, (0, 4)), (4, (-1, 2)), (3, (0, 1, 2)),
                                                (1, (0, 1))])
    def test_rejects_targets_outside_the_register(self, rng, qubits, targets):
        chi = ideal_choi(GateSettings(0.0, 0.0))
        with pytest.raises(InvalidArgumentError):
            apply_choi_channel(random_density_matrix(rng, qubits), chi, targets)

    def test_accepts_a_choi_spectrum_inside_the_clamp_window(self):
        # the identity channel with one eigenvalue at -5e-11, as ChoiProcess
        # admits; a Kraus decomposition of 4 chi would see -2e-10 and fail
        pair = np.zeros(16, dtype=complex)
        pair[[0, 5, 10, 15]] = 0.5
        other = np.zeros(16, dtype=complex)
        other[1] = 1.0
        chi = ChoiProcess((1 + 5e-11) * np.outer(pair, pair) - 5e-11 * np.outer(other, other))
        rho = cluster_state_c4().density()
        out, prob = apply_choi_channel(rho, chi, (1, 2))
        assert prob == pytest.approx(1.0, abs=1e-9)
        assert np.abs(out.matrix - rho.matrix).max() < 1e-9


def _kraus_embedding(rho, chi, targets):
    """The Kraus-sum embedding the one contraction replaced: eigenvectors of
    the unnormalized Choi matrix reshaped into Kraus operators, weights at or
    below 1e-12 dropped, each operator embedded on ``targets``."""
    vals, vecs = np.linalg.eigh(chi.unnormalized())
    out = np.zeros_like(rho.matrix)
    for lam, vec in zip(clamp_spectrum(vals), vecs.T):
        if lam > 1e-12:
            full = expand_operator(np.sqrt(lam) * vec.reshape(4, 4).T, rho.qubits, targets)
            out += full @ rho.matrix @ full.conj().T
    return out


@pytest.fixture(scope="module")
def oracle_channels():
    chi = ideal_choi(preset("ghz").settings)
    noisy = apply_noise(chi, DEFAULT_CHANNEL_TEMPLATE.scaled(0.3))
    fitted = mle_process_matrix(simulate_counts(noisy, 1e4, seed=5)).estimate
    assert np.linalg.eigvalsh(fitted.choi).min() > 1e-7  # full rank
    return {"ideal": chi, "template": noisy, "mle": fitted}


class TestChannelContractionOracle:
    @pytest.mark.parametrize("channel", ["ideal", "template", "mle"])
    @pytest.mark.parametrize("qubits", [2, 3, 4, 5])
    def test_equals_kraus_embedding_on_every_ordered_pair(self, oracle_channels, channel,
                                                          qubits):
        chi = oracle_channels[channel]
        rng = np.random.default_rng(qubits)
        for targets in itertools.permutations(range(qubits), 2):
            rho = random_density_matrix(rng, qubits)
            expected = _kraus_embedding(rho, chi, targets)
            got = channel_output_unnormalized(rho, chi, targets)
            assert np.abs(got - expected).max() < 1e-12, targets
            out, prob = apply_choi_channel(rho, chi, targets)
            assert prob == pytest.approx(np.trace(expected).real, abs=1e-12)
            assert np.abs(out.matrix - expected / prob).max() < 1e-12, targets


class TestNormalizeState:
    def test_half_bell(self):
        raw = PureState(np.array([0, 0.5, 0.5, 0], dtype=complex))
        out, norm_sq = normalize_state(raw)
        assert norm_sq == pytest.approx(0.5, abs=1e-14)
        assert np.allclose(out.amplitudes, [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0])

    def test_already_normalized(self):
        out, norm_sq = normalize_state(cluster_state_c4())
        assert norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_dicke_angle_conversion_norm(self):
        tp, tm = dicke_angles()
        _, prob = convert_cluster(GateSettings(tp, tm))
        assert prob == pytest.approx(0.3, abs=1e-12)

    def test_vanishing_norm(self):
        with pytest.raises(DegenerateOutcomeError):
            normalize_state(PureState(np.zeros(4, dtype=complex)))


class TestTypeInvariants:
    def test_pure_state_rejects_norm_above_one(self):
        with pytest.raises(InvalidArgumentError):
            PureState(np.array([1.0, 1.0]))

    def test_pure_state_qubit_bounds(self):
        with pytest.raises(InvalidArgumentError):
            PureState(np.zeros(32, dtype=complex))
        with pytest.raises(InvalidArgumentError):
            PureState(np.array([1.0, 0.0, 0.0]))

    def test_density_matrix_validation(self):
        with pytest.raises(NumericalDomainError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
        with pytest.raises(NumericalDomainError):
            DensityMatrix(np.diag([0.9, 0.2]))
        with pytest.raises(NumericalDomainError):
            DensityMatrix(np.diag([1.1, -0.1]))

    @pytest.mark.parametrize("make,what", [(DensityMatrix, "matrix"),
                                           (ChoiProcess, "Choi matrix")], ids=["state", "choi"])
    def test_states_and_choi_matrices_share_one_validation_rule(self, make, what):
        skew = np.eye(16) / 16
        skew[0, 1] = 1e-9
        with pytest.raises(NumericalDomainError, match=rf"^{what} is not Hermitian \(defect "):
            make(skew)
        # the trace is tested before the eigenvalues
        with pytest.raises(NumericalDomainError,
                           match=re.escape(f"{what} trace (2+0j) differs from 1")):
            make(np.diag([2.1, -0.1] + [0.0] * 14))
        with pytest.raises(NumericalDomainError,
                           match=re.escape(f"{what} has eigenvalue -1.000e-01 below -1e-10")):
            make(np.diag([1.1, -0.1] + [0.0] * 14))
        # within the tolerances the stored matrix is the Hermitian part
        near = np.eye(16) / 16
        near[0, 1] = 1e-12
        stored = make(near)
        matrix = stored.matrix if make is DensityMatrix else stored.choi
        assert np.array_equal(matrix, (near + near.conj().T) / 2.0)

    def test_choi_shape_checked(self):
        with pytest.raises(InvalidArgumentError):
            ChoiProcess(np.eye(4) / 4)

    def test_hermiticity_defect(self):
        m = np.array([[1.0, 1e-3], [0.0, 1.0]])
        assert hermiticity_defect(m) == pytest.approx(1e-3)


BAD_TARGETS = {"repeated": (1, 1), "out-of-range": (0, 3), "negative": (-1, 0)}
# apply_choi_channel's cases are in TestApplyChoiChannel
_ON_THREE_QUBITS = {
    "apply_operator": lambda t: apply_operator(PureState.from_labels("H+V"), np.eye(4), t),
    "partial_trace": lambda t: partial_trace(PureState.from_labels("H+V").density(), t),
}


@pytest.mark.parametrize("case", list(BAD_TARGETS))
@pytest.mark.parametrize("operation", list(_ON_THREE_QUBITS))
def test_bad_targets_raise(operation, case):
    with pytest.raises(InvalidArgumentError):
        _ON_THREE_QUBITS[operation](BAD_TARGETS[case])
