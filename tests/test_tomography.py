import numpy as np
import pytest

from convgate.core import DensityMatrix, PureState
from convgate.errors import DegenerateOutcomeError, InvalidArgumentError
from convgate.gate import GateSettings, ideal_choi, preset, target_state
from convgate.metrics import concurrence, fidelity, process_fidelity, purity
from convgate.noise import DEFAULT_CHANNEL_TEMPLATE, apply_channel_noise
from convgate.tomography import (
    CoincidenceDataset,
    MLEOptions,
    _expected_counts,
    _resamples,
    derive_seed,
    enumerate_bases,
    enumerate_preparations,
    enumerate_settings,
    mle_density_matrix,
    mle_process_matrix,
    monte_carlo_metric_table,
    monte_carlo_metrics,
    outcome_probabilities,
    outcome_projectors,
    prep_state,
    simulate_counts,
    simulate_state_counts,
)


@pytest.fixture(scope="module")
def chi_identity():
    return ideal_choi(GateSettings(0.0, 0.0))


@pytest.fixture(scope="module")
def chi_ghz():
    return ideal_choi(GateSettings(0.0, np.pi / 4))


class TestSettings:
    def test_enumeration_sizes(self):
        assert len(enumerate_preparations()) == 36
        assert len(enumerate_bases()) == 9
        assert len(enumerate_settings()) == 324

    def test_fixed_ordering(self):
        settings = enumerate_settings()
        assert settings[0] == (("H", "H"), ("Z", "Z"))
        assert settings[1] == (("H", "H"), ("Z", "X"))
        assert settings[9] == (("H", "V"), ("Z", "Z"))

    def test_projector_for_xy_outcome_00(self):
        projectors = outcome_projectors(("X", "Y"))
        plus = np.array([1, 1]) / np.sqrt(2)
        r = np.array([1, 1j]) / np.sqrt(2)
        expected = np.kron(np.outer(plus, plus.conj()), np.outer(r, r.conj()))
        assert np.abs(projectors[0] - expected).max() < 1e-14

    def test_projectors_complete_per_basis(self):
        for basis in enumerate_bases():
            total = outcome_projectors(basis).sum(axis=0)
            assert np.abs(total - np.eye(4)).max() < 1e-14

    def test_prep_states_are_products(self):
        psi = prep_state(("R", "-"))
        expected = np.kron([1, 1j], [1, -1]) / 2.0
        assert np.abs(psi.amplitudes - expected).max() < 1e-14


class TestOutcomeProbabilities:
    def test_identity_channel(self, chi_identity):
        probs = outcome_probabilities(chi_identity, ("H", "V"), ("Z", "Z"))
        assert np.allclose(probs, [0, 1, 0, 0], atol=1e-12)

    def test_ghz_gate_diagonal_basis(self, chi_ghz):
        probs = outcome_probabilities(chi_ghz, ("+", "+"), ("Z", "Z"))
        assert np.allclose(probs, [0.5, 0, 0, 0.5], atol=1e-12)

    def test_completeness_for_all_presets(self):
        for name in ("cluster-identity", "ghz", "dicke", "bell-pair"):
            chi = ideal_choi(preset(name).settings)
            for prep, basis in enumerate_settings()[::23]:
                try:
                    probs = outcome_probabilities(chi, prep, basis)
                except DegenerateOutcomeError:
                    continue  # gate annihilates this preparation entirely
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)
                assert probs.min() >= 0.0

    def test_annihilated_preparation(self, chi_ghz):
        with pytest.raises(DegenerateOutcomeError):
            outcome_probabilities(chi_ghz, ("H", "V"), ("Z", "Z"))


class TestSimulateCounts:
    def test_deterministic_outcome_at_large_counts(self, chi_identity):
        data = simulate_counts(chi_identity, 1e6, seed=1)
        idx = enumerate_settings().index((("H", "H"), ("Z", "Z")))
        counts = data.counts[idx]
        assert abs(counts[0] - 1e6) < 5 * np.sqrt(1e6)
        assert counts[1] == counts[2] == counts[3] == 0

    def test_same_seed_identical(self, chi_ghz):
        a = simulate_counts(chi_ghz, 1000, seed=42)
        b = simulate_counts(chi_ghz, 1000, seed=42)
        assert (a.counts == b.counts).all()
        c = simulate_counts(chi_ghz, 1000, seed=43)
        assert (a.counts != c.counts).any()

    def test_empirical_frequencies_match_model(self, chi_ghz):
        mean = 1e5
        data = simulate_counts(chi_ghz, mean, seed=3)
        from convgate.core import channel_output_unnormalized
        within = 0
        total = 0
        for i, (prep, basis) in enumerate(enumerate_settings()):
            out = channel_output_unnormalized(prep_state(prep).density(), chi_ghz)
            success = float(np.trace(out).real)
            if success < 1e-12:
                continue
            probs = outcome_probabilities(chi_ghz, prep, basis)
            lam = mean * success * probs
            for o in range(4):
                total += 1
                sigma = max(np.sqrt(lam[o]), 1.0)
                if abs(data.counts[i, o] - lam[o]) <= 3 * sigma:
                    within += 1
        assert within / total >= 0.95

    def test_rejects_nonpositive_mean(self, chi_ghz):
        rho = DensityMatrix.maximally_mixed(2)
        for mean in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(InvalidArgumentError, match="mean_counts must be positive"):
                simulate_counts(chi_ghz, mean, seed=1)
            with pytest.raises(InvalidArgumentError, match="mean_counts must be positive"):
                simulate_state_counts(rho, 0.5, mean, seed=1)


class TestDataset:
    def test_restrict_to_unknown_prep(self, chi_ghz):
        data = simulate_counts(chi_ghz, 100, seed=5)
        with pytest.raises(InvalidArgumentError):
            data.restrict_to(("Q", "Q"))

    def test_require_full_detects_missing_settings(self, chi_ghz):
        data = simulate_counts(chi_ghz, 100, seed=5)
        clipped = CoincidenceDataset(
            preps=data.preps[:300], bases=data.bases[:300], counts=data.counts[:300],
            mean_counts=data.mean_counts, seed=data.seed)
        with pytest.raises(InvalidArgumentError):
            clipped.require_full()

    def test_negative_counts_rejected(self):
        with pytest.raises(InvalidArgumentError):
            CoincidenceDataset(preps=[None], bases=[("Z", "Z")],
                               counts=np.array([[1, -1, 0, 0]]))

    def test_resample_determinism(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=5)
        rng1 = np.random.Generator(np.random.PCG64(9))
        rng2 = np.random.Generator(np.random.PCG64(9))
        assert (data.resampled(rng1).counts == data.resampled(rng2).counts).all()


class TestStateMLE:
    def test_round_trip_bell_state(self):
        psi = target_state("phi_plus")
        data = simulate_state_counts(psi.density(), 1.0, 1e6, seed=11)
        report = mle_density_matrix(data)
        assert fidelity(report.estimate, psi.density()) >= 0.999
        assert report.converged

    def test_maximally_mixed_input_low_purity(self):
        data = simulate_state_counts(DensityMatrix.maximally_mixed(2), 1.0, 1e6, seed=12)
        report = mle_density_matrix(data)
        assert purity(report.estimate) <= 0.26

    def test_log_likelihood_non_decreasing(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e4, seed=13)
        report = mle_density_matrix(data)
        gains = np.diff(report.log_likelihoods)
        assert (gains >= 0).all()

    def test_estimate_is_physical(self):
        data = simulate_state_counts(target_state("phi_plus").density(), 1.0, 300, seed=14)
        rho = mle_density_matrix(data).estimate
        assert np.trace(rho.matrix).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-8

    def test_needs_all_bases(self, chi_ghz):
        data = simulate_state_counts(target_state("phi_plus").density(), 1.0, 100, seed=1)
        clipped = CoincidenceDataset(
            preps=data.preps[:5], bases=data.bases[:5], counts=data.counts[:5])
        with pytest.raises(InvalidArgumentError):
            mle_density_matrix(clipped)

    def test_mixed_preparations_rejected(self, chi_ghz):
        data = simulate_counts(chi_ghz, 100, seed=2)
        with pytest.raises(InvalidArgumentError):
            mle_density_matrix(data)


class TestProcessMLE:
    def test_round_trip_ghz(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1e5, seed=21)
        report = mle_process_matrix(data)
        assert process_fidelity(report.estimate, chi_ghz) >= 0.999
        assert report.converged
        assert (np.diff(report.log_likelihoods) >= 0).all()

    def test_identity_round_trip_purity(self, chi_identity):
        data = simulate_counts(chi_identity, 1e5, seed=22)
        report = mle_process_matrix(data)
        assert purity(report.estimate) >= 0.999

    def test_success_scale_recovery(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1e5, seed=23)
        report = mle_process_matrix(data)
        assert report.estimate.success_scale == pytest.approx(0.5, rel=0.02)

    def test_per_preparation_success_recovery_dicke(self):
        chi = ideal_choi(preset("dicke").settings)
        data = simulate_counts(chi, 1e5, seed=24)
        estimate = mle_process_matrix(data).estimate
        from convgate.core import channel_output_unnormalized
        for prep in enumerate_preparations()[::7]:
            rho = prep_state(prep).density()
            true = np.trace(channel_output_unnormalized(rho, chi)).real
            got = np.trace(channel_output_unnormalized(rho, estimate)).real
            assert got == pytest.approx(true, rel=0.05)

    def test_estimate_within_choi_invariants(self, chi_ghz):
        data = simulate_counts(chi_ghz, 500, seed=25)
        est = mle_process_matrix(data).estimate
        assert np.trace(est.choi).real == pytest.approx(1.0, abs=1e-8)
        assert np.linalg.eigvalsh(est.choi).min() >= -1e-8

    def test_requires_full_dataset(self, chi_ghz):
        data = simulate_counts(chi_ghz, 100, seed=26)
        clipped = CoincidenceDataset(
            preps=data.preps[:100], bases=data.bases[:100], counts=data.counts[:100])
        with pytest.raises(InvalidArgumentError):
            mle_process_matrix(clipped)

    def test_max_iter_reported_as_unconverged(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1e4, seed=27)
        report = mle_process_matrix(data, MLEOptions(tol=0.0, max_iter=5))
        assert report.iterations == 5
        assert not report.converged


class TestOperatorTable:
    def test_expected_counts_match_per_setting_loop(self):
        chi = apply_channel_noise(ideal_choi(preset("dicke").settings),
                                  DEFAULT_CHANNEL_TEMPLATE.scaled(0.3))
        chi_u = chi.unnormalized()
        reference = np.empty((324, 4))
        for i, (prep, basis) in enumerate(enumerate_settings()):
            rho_t = prep_state(prep).density().matrix.T
            for o, projector in enumerate(outcome_projectors(basis)):
                e = np.kron(rho_t, projector)
                reference[i, o] = 1e4 * float(np.einsum("ij,ji->", e, chi_u).real)
        assert np.array_equal(_expected_counts(chi, 1e4), np.clip(reference, 0.0, None))

    def test_shuffled_process_records_reconstruct_identically(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1e4, seed=42)
        perm = np.random.default_rng(43).permutation(len(data))
        shuffled = CoincidenceDataset(
            preps=[data.preps[i] for i in perm], bases=[data.bases[i] for i in perm],
            counts=data.counts[perm], mean_counts=data.mean_counts)
        a, b = mle_process_matrix(data), mle_process_matrix(shuffled)
        assert np.array_equal(a.estimate.choi, b.estimate.choi)
        assert a.estimate.success_scale == b.estimate.success_scale
        assert a.iterations == b.iterations

    def test_state_records_may_repeat_a_basis(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e4, seed=44)
        doubled = CoincidenceDataset(
            preps=data.preps + [None], bases=data.bases + [data.bases[4]],
            counts=np.vstack([data.counts, data.counts[4:5]]))
        report = mle_density_matrix(doubled)
        assert report.metadata["total_counts"] == data.total() + int(data.counts[4].sum())
        assert fidelity(report.estimate, psi.density()) > 0.99


class TestMonteCarlo:
    def test_trace_metric_degenerate(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=31)
        mean, std = monte_carlo_metrics(data, 3, "trace", seed=32)
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert std < 1e-12

    def test_two_samples_is_enough(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=33)
        mean, std = monte_carlo_metrics(data, 2, "process-fidelity", seed=34,
                                        target=chi_ghz)
        assert np.isfinite(mean) and np.isfinite(std)

    def test_rejects_single_sample(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=35)
        with pytest.raises(InvalidArgumentError):
            monte_carlo_metrics(data, 1, "purity", seed=36)

    def test_state_metric_path(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e4, seed=37)
        mean, std = monte_carlo_metrics(data, 3, "concurrence", seed=38)
        assert mean > 0.98
        assert std < 0.05

    def test_given_start_matches_own_reconstruction(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e3, seed=45)
        metrics = {"purity": purity, "concurrence": concurrence}
        own = monte_carlo_metric_table(data, 3, metrics, 46)
        given = monte_carlo_metric_table(data, 3, metrics, 46,
                                         start=mle_density_matrix(data).estimate)
        assert own == given

    def test_table_equals_hand_loop_over_labeled_resamples(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e3, seed=47)
        base = mle_density_matrix(data).estimate
        table = monte_carlo_metric_table(data, 4, {"purity": purity}, 48,
                                         label="custom")
        values = np.asarray([purity(mle_density_matrix(sample, start=base).estimate)
                             for sample in _resamples(data, 4, 48, "custom")])
        assert table == {"purity": (float(values.mean()), float(values.std(ddof=1)))}
        default = monte_carlo_metric_table(data, 4, {"purity": purity}, 48)
        assert default != table

    def test_unknown_metric(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=39)
        with pytest.raises(InvalidArgumentError):
            monte_carlo_metrics(data, 2, "negativity-cubed", seed=40)


class TestSeeds:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_derive_seed_range(self):
        s = derive_seed(123456789, "sample:999")
        assert 0 <= s < 2**64
