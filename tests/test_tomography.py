import hashlib
import inspect

import numpy as np
import pytest

from convgate import pipeline, tomography
from convgate.core import (
    EIG_CLAMP,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_choi_channel,
    channel_output_unnormalized,
)
from convgate.errors import InvalidArgumentError, NumericalDomainError
from convgate.gate import GateSettings, apply_gate, ideal_choi, preset, target_state
from convgate.metrics import (
    concurrence,
    fidelity,
    metric_function,
    process_fidelity,
    purity,
)
from convgate.noise import DEFAULT_CHANNEL_TEMPLATE, NoiseSpec, apply_noise
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
    outcome_projectors,
    prep_state,
    simulate_counts,
    simulate_state_counts,
)
from test_cli import process_monte_carlo_argv, state_monte_carlo_argv
from test_properties import kron_means, oracle_counts, projector_means
from test_report_hashes import CASES


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


def _row(chi, prep, basis):
    """The four expected counts of one setting at one mean count."""
    return _expected_counts(chi, 1.0).reshape(324, 4)[enumerate_settings().index((prep, basis))]


class TestOutcomeProbabilities:
    """Outcome probabilities as rows of ``_expected_counts``: a row is the
    preparation's success probability times the conditional outcome
    probabilities."""

    def test_identity_channel(self, chi_identity):
        assert np.allclose(_row(chi_identity, ("H", "V"), ("Z", "Z")), [0, 1, 0, 0], atol=1e-12)

    def test_ghz_gate_diagonal_basis(self, chi_ghz):
        row = _row(chi_ghz, ("+", "+"), ("Z", "Z"))
        assert np.allclose(row / row.sum(), [0.5, 0, 0, 0.5], atol=1e-12)

    def test_completeness_for_all_presets(self):
        # every basis of a preparation sums to its success probability
        for name in ("cluster-identity", "ghz", "dicke", "bell-pair"):
            chi = ideal_choi(preset(name).settings)
            lam = _expected_counts(chi, 1.0).reshape(36, 9, 4)
            assert lam.min() >= 0.0
            for prep, rows in zip(enumerate_preparations(), lam):
                success = np.trace(
                    channel_output_unnormalized(prep_state(prep).density(), chi)).real
                assert np.abs(rows.sum(axis=1) - success).max() <= 1e-12

    def test_annihilated_preparation(self, chi_ghz):
        # a preparation the gate never passes has rows of exact zeros
        lam = _expected_counts(chi_ghz, 1e6).reshape(36, 9, 4)
        assert not lam[enumerate_preparations().index(("H", "V"))].any()


class TestSimulateCounts:
    def test_deterministic_outcome_at_large_counts(self, chi_identity):
        data = simulate_counts(chi_identity, 1e6, seed=1)
        idx = enumerate_settings().index((("H", "H"), ("Z", "Z")))
        counts = data.counts.reshape(324, 4)[idx]
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
        within = 0
        total = 0
        for i, (prep, basis) in enumerate(enumerate_settings()):
            out = channel_output_unnormalized(prep_state(prep).density(), chi_ghz)
            if np.trace(out).real < 1e-12:
                continue
            lam = mean * np.einsum("oij,ji->o", outcome_projectors(basis), out).real
            for o in range(4):
                total += 1
                sigma = max(np.sqrt(lam[o]), 1.0)
                if abs(data.counts.reshape(324, 4)[i, o] - lam[o]) <= 3 * sigma:
                    within += 1
        assert within / total >= 0.95

    def test_last_bit_perturbation_draws_the_same_counts(self, chi_ghz):
        # settings of probability zero stay exactly zero however they round
        noise = [1.0, 1j] @ np.random.default_rng(5).normal(size=(16, 2, 16))
        bumped = ChoiProcess(chi_ghz.choi + 1e-15 * (noise + noise.conj().T),
                             chi_ghz.success_scale, validate=False)
        assert np.array_equal(simulate_counts(bumped, 1e3, seed=8).counts,
                              simulate_counts(chi_ghz, 1e3, seed=8).counts)

    @staticmethod
    def _diagonal_choi(low):
        # eigenvalue ``low`` on |HH>_in |HH>_out, which setting (HH, ZZ), outcome 00 sees
        return np.diag([low] + [0.0] * 14 + [1.0 - low])

    def test_probability_below_the_window_raises(self):
        chi = ChoiProcess(self._diagonal_choi(-1e-6), validate=False)
        with pytest.raises(NumericalDomainError, match="PROBABILITY_WINDOW"):
            simulate_counts(chi, 1e3, seed=1)
        rho = DensityMatrix(np.diag([-1e-6, 0.0, 0.0, 1.0 + 1e-6]), validate=False)
        with pytest.raises(NumericalDomainError, match="PROBABILITY_WINDOW"):
            simulate_state_counts(rho, 1.0, 1e3, seed=1)

    def test_eigenvalues_that_validation_accepts_draw(self):
        chi = ChoiProcess(self._diagonal_choi(-EIG_CLAMP))  # validates
        assert (simulate_counts(chi, 1e3, seed=1).counts[0] == 0).all()
        rho = DensityMatrix(np.diag([-EIG_CLAMP, 0.0, 0.0, 1.0 + EIG_CLAMP]))
        assert simulate_state_counts(rho, 1.0, 1e3, seed=1).counts[0, 0] == 0

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

    def test_restrict_to_indexes_one_preparation(self, chi_ghz):
        data = simulate_counts(chi_ghz, 100, seed=5)
        state = data.restrict_to(("+", "H"))
        assert state.counts.shape == (9, 4)
        assert np.array_equal(state.counts, data.counts[enumerate_preparations().index(("+", "H"))])
        with pytest.raises(InvalidArgumentError, match="no records for preparation"):
            state.restrict_to(("+", "H"))

    def test_from_records_detects_missing_settings(self, chi_ghz):
        data = simulate_counts(chi_ghz, 100, seed=5)
        with pytest.raises(InvalidArgumentError, match="needs all 324 settings; dataset has 300"):
            CoincidenceDataset.from_records(
                data.preps[:300], data.bases[:300], data.counts.reshape(324, 4)[:300],
                mean_counts=data.mean_counts, seed=data.seed)

    def test_negative_counts_rejected(self):
        counts = np.zeros((9, 4), dtype=int)
        counts[0] = [1, -1, 0, 0]
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            CoincidenceDataset.from_records([None] * 9, enumerate_bases(), counts)
        with pytest.raises(InvalidArgumentError, match="nonnegative"):
            CoincidenceDataset(counts)

    def test_a_total_beyond_the_int64_range_is_rejected(self):
        # 6e16 mean counts stay below MAX_POISSON_MEAN, yet the counts sum to
        # 1.94e19, which an int64 total wraps to 9.9e17
        with pytest.raises(InvalidArgumentError, match="19439999993063378542 exceeds the int64"):
            simulate_counts(ideal_choi(preset("cluster-identity").settings), 6e16, 1)
        counts = np.zeros((9, 4), dtype=np.int64)
        counts[0, 0] = np.iinfo(np.int64).max
        assert CoincidenceDataset(counts).total() == np.iinfo(np.int64).max
        counts[1, 0] = 1
        with pytest.raises(InvalidArgumentError, match="exceeds the int64 range"):
            CoincidenceDataset(counts)

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
        with pytest.raises(InvalidArgumentError, match="all 9 basis pairs"):
            CoincidenceDataset.from_records(data.preps[:5], data.bases[:5], data.counts[:5])

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
        with pytest.raises(InvalidArgumentError, match="needs all 324 settings; dataset has 100"):
            CoincidenceDataset.from_records(data.preps[:100], data.bases[:100],
                                            data.counts.reshape(324, 4)[:100])
        state = simulate_state_counts(target_state("phi_plus").density(), 1.0, 100, seed=26)
        with pytest.raises(InvalidArgumentError, match="needs all 324 settings; dataset has 9"):
            mle_process_matrix(state)

    def test_max_iter_reported_as_unconverged(self, chi_ghz):
        # the noisy channel is full rank and counts every outcome: its cold fit
        # certifies in 2 steps from the least-squares start, the Newton move and
        # one ascent step, so the move alone ends it uncertified
        data = simulate_counts(apply_noise(chi_ghz, DEFAULT_CHANNEL_TEMPLATE), 1e4, seed=27)
        report = mle_process_matrix(data, MLEOptions(max_iter=1))
        assert report.iterations == 1
        assert report.status == "max_iter"
        assert not report.converged
        assert report.gap > 0.0

    @pytest.mark.parametrize("max_iter", [2.5, True])
    def test_max_iter_that_is_not_an_int_rejected(self, max_iter):
        # the command line parses --max-iter as an int; the library takes any value
        with pytest.raises(InvalidArgumentError, match="max_iter"):
            MLEOptions(max_iter=max_iter)

    def test_default_fit_is_certified_to_one_nat(self, chi_ghz):
        data = simulate_counts(apply_noise(chi_ghz, DEFAULT_CHANNEL_TEMPLATE), 1e4, seed=28)
        report = mle_process_matrix(data)
        assert MLEOptions().tol == 1.0
        assert report.status == "certified" and report.converged
        assert 0.0 <= report.gap <= 1.0

    def test_rank_one_start_missing_counted_outcomes_still_certifies(self, chi_ghz):
        # the ideal channel gives probability 0 to outcomes the noisy counts hold
        data = simulate_counts(apply_noise(chi_ghz, DEFAULT_CHANNEL_TEMPLATE), 1e3, seed=30)
        report = mle_process_matrix(data, start=chi_ghz)
        assert report.status == "certified"
        assert np.isfinite(report.log_likelihoods[0])

    def test_unreachable_gap_ends_stalled_not_certified(self):
        # this fit's ascent reaches its numerical floor at a gap of 1.9e-8
        # nats, which the rounding of its probabilities leaves above a 1e-12 tol
        # (the sign of a floor gap is set by rounding, like the hash pins)
        data = simulate_state_counts(target_state("phi_plus").density(), 0.5, 1e7, seed=29)
        report = mle_density_matrix(data, MLEOptions(tol=1e-12))
        assert report.status == "stalled" and not report.converged
        assert report.iterations < MLEOptions().max_iter
        assert (np.diff(report.log_likelihoods) >= 0).all()
        assert abs(report.gap) <= 1e-6

    def test_fit_without_a_certificate_ends_stalled(self, monkeypatch):
        # every outcome is counted, so the fit stops on the Lagrangian bound
        # alone; switched off, it leaves the fit no certificate by construction,
        # and the ascent must end at its numerical floor whatever the rounding
        mixed = 0.8 * target_state("phi_plus").density().matrix + 0.05 * np.eye(4)
        data = simulate_state_counts(DensityMatrix(mixed), 0.5, 1e4, seed=29)
        assert data.counts.min() >= 1
        monkeypatch.setattr(tomography, "_lagrangian_gap", lambda *args: np.inf)
        report = mle_density_matrix(data)
        assert report.status == "stalled" and not report.converged
        assert report.iterations < MLEOptions().max_iter
        assert (np.diff(report.log_likelihoods) >= 0).all()

    def test_options_are_frozen(self):
        # a NaN tol set after the range check would certify every fit
        with pytest.raises(AttributeError):
            MLEOptions().tol = float("nan")


class TestCertificate:
    """Each fit stops on one certificate, chosen by its data: the Lagrangian
    bound when every outcome is counted, (lambda_max(R) - 1) x N otherwise."""

    @pytest.fixture(scope="class")
    def counted(self, chi_ghz):
        data = simulate_counts(apply_noise(chi_ghz, DEFAULT_CHANNEL_TEMPLATE), 1e4, seed=28)
        assert data.counts.min() >= 1
        return tomography._process_operators(data)

    def test_counted_fit_reports_its_lagrangian_bound(self, counted):
        fit = tomography._iterate_rho_r(*counted, None, None)
        assert (fit.status, fit.metadata["certificate"]) == ("certified", "lagrangian")
        assert fit.gap == tomography._lagrangian_gap(*counted, fit.estimate)

    def test_fit_from_its_own_estimate_certifies_within_two_steps(self, counted):
        # as every Monte Carlo resample starts, at an estimate already certified
        fit = tomography._iterate_rho_r(*counted, None, None)
        again = tomography._iterate_rho_r(*counted, None, fit.estimate)
        assert again.status == "certified" and again.iterations <= 2

    def test_fit_from_its_own_estimate_ends_no_lower(self, counted):
        # at the maximum a full Newton step may overshoot: the damped move is
        # taken only where it rises, and one that rose by at most tol tries the
        # certificate at once, where the next ascent step may not rise at all
        options = MLEOptions(tol=1e-9)
        fit = tomography._iterate_rho_r(*counted, options, None)
        frame, counts = counted
        again = tomography._iterate_rho_r(*counted, options, fit.estimate)
        assert again.status == "certified"
        assert again.log_likelihoods[0] == float(
            (counts / counts.sum()).ravel() @ np.log(frame.probabilities(fit.estimate).ravel()))
        assert again.final_log_likelihood >= again.log_likelihoods[0]
        assert (np.diff(again.log_likelihoods) >= 0.0).all()

    def test_uncertified_counted_fit_reports_the_smaller_gap(self, counted, monkeypatch):
        # a stand-in Lagrangian bound of 2 nats never certifies at the 1-nat tol
        tried = []
        monkeypatch.setattr(tomography, "_lagrangian_gap", lambda *args: tried.append(2.0) or 2.0)
        gaps, certificates = [], []
        for max_iter, status in ((1, "max_iter"), (3, "max_iter"), (5000, "stalled")):
            tried.clear()
            fit = tomography._iterate_rho_r(*counted, MLEOptions(max_iter=max_iter), None)
            assert fit.status == status
            frame, counts = counted
            r_op = frame.adjoint(counts / frame.probabilities(fit.estimate))
            gkg = np.linalg.eigvalsh((r_op + r_op.conj().T) / 2.0)[-1] - counts.sum()
            assert fit.gap == pytest.approx(min([gkg, *tried]), rel=1e-9, abs=1e-6)
            gaps.append(fit.gap)
            certificates.append(fit.metadata["certificate"])
        # no bound tried in the Newton move alone; one tried below a larger
        # lambda_max gap in 3 steps; and the floor's lambda_max gap below it;
        # each named by the bound it came from
        assert gaps[0] > 2.0 and gaps[1] == 2.0 and gaps[2] < 2.0
        assert certificates == ["gkg", "lagrangian", "gkg"]

    def test_dataset_with_a_zero_count_stops_on_lambda_max(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1e3, seed=28)
        assert data.counts.min() == 0
        fit = mle_process_matrix(data)
        assert (fit.status, fit.metadata["certificate"]) == ("certified", "gkg")


def _noisy_ghz(mean_counts, seed):
    chi = apply_noise(ideal_choi(GateSettings(0.0, np.pi / 4)), DEFAULT_CHANNEL_TEMPLATE)
    return simulate_counts(chi, mean_counts, seed)


def _z_basis_counts():
    # the Z-basis counts of the cold-start tests: their fit restarts its
    # momentum at step 3, where the extrapolation would halve a counted
    # probability
    counts = np.zeros((9, 4), dtype=int)
    counts[0] = [990, 0, 0, 10]
    return CoincidenceDataset(counts)


def _warm(data):
    """The first resample of ``data``, fitted from the estimate of ``data``."""
    return next(_resamples(data, 1, 0)), None, tomography.reconstruct(data).estimate


#: name -> (dataset, options, start) of the pinned fits.
FIT_CASES = {
    "noisy-ghz-1e4-cold": lambda: (_noisy_ghz(1e4, 28), None, None),
    "noisy-ghz-1e4-warm": lambda: _warm(_noisy_ghz(1e4, 28)),
    "ideal-ghz-1e3-cold": lambda: (simulate_counts(ideal_choi(GateSettings(0.0, np.pi / 4)),
                                                   1e3, seed=11), None, None),
    "ideal-ghz-1e3-warm": lambda: _warm(simulate_counts(
        ideal_choi(GateSettings(0.0, np.pi / 4)), 1e3, seed=11)),
    "noisy-ghz-1e3-from-ideal": lambda: (_noisy_ghz(1e3, 30), None,
                                         ideal_choi(GateSettings(0.0, np.pi / 4))),
    "phi-plus-1e7-stalled": lambda: (simulate_state_counts(
        target_state("phi_plus").density(), 0.5, 1e7, seed=29), MLEOptions(tol=1e-12), None),
    "noisy-ghz-1e4-max-iter": lambda: (_noisy_ghz(1e4, 27), MLEOptions(max_iter=1), None),
    "mixed-state-1e4-tol-1e-9": lambda: (simulate_state_counts(DensityMatrix(
        0.8 * target_state("phi_plus").density().matrix + 0.05 * np.eye(4)), 0.5, 1e4, seed=29),
        MLEOptions(tol=1e-9), None),
    "z-basis-momentum-floor": lambda: (_z_basis_counts(), None, None),
}


def _fit_pin(data, options, start):
    """iterations, status, certificate, repr(gap) and the sha256 of the
    estimate and of the log-likelihoods of ``reconstruct``."""
    fit = tomography.reconstruct(data, options, start)
    estimate = fit.estimate.matrix if data.counts.ndim == 2 else fit.estimate.choi
    return (fit.iterations, fit.status, fit.metadata["certificate"], repr(fit.gap),
            hashlib.sha256(estimate.tobytes()).hexdigest(),
            hashlib.sha256(np.asarray(fit.log_likelihoods).tobytes()).hexdigest())


class TestFitPins:
    """Byte-level pins of single fits, recorded before the loop of
    ``_iterate_rho_r`` was restructured: cold and warm fits of both
    certificates, a rank-one start, a stall, a ``max_iter`` stop and a
    momentum restart at the probability floor. Like the report hashes they
    depend on the BLAS build and CPU kernel, and are never re-recorded to
    follow a refactor. The five fits with every outcome counted were
    re-recorded, as a declared change of results, when such fits began with
    a damped Newton step: the four ``lagrangian`` ones and
    ``noisy-ghz-1e4-max-iter``, whose ``max_iter`` went from 5 to 1 since
    its fit now certifies in 2 steps. The four fits with an uncounted
    outcome did not move."""

    PINS = {
        "noisy-ghz-1e4-cold": (2, "certified", "lagrangian", "3.551468442171472e-05",
            "7bea57f1d1cd94f619c1a0a19c1d3528e3d9e7427c0efcaab032f7369278aa81",
            "8dc25996046e1eaba59252559366e6d9efd1542f280d0cedee054d3df1b95d4c"),
        "noisy-ghz-1e4-warm": (2, "certified", "lagrangian", "0.0025704617520855913",
            "fc1d18f9fdca92baed3093c5d890f48aa76f9cc0695d809767602a2828dd88a3",
            "09e789a43c179b44e19bd1d7a462339805aaf4048e947bcf3b8a9f5509528a1f"),
        "ideal-ghz-1e3-cold": (2, "certified", "gkg", "np.float64(0.6761045616415112)",
            "85d01b7bdfa633154214e9c66051c2a6d952d1083b5abff81eff53bf18be97b7",
            "62b99ed3293ff8ad5ae79241c5b368187cdcfea9e54ce7dd46487d30e2dad4ca"),
        "ideal-ghz-1e3-warm": (2, "certified", "gkg", "np.float64(0.6858736081905008)",
            "26ef13e7eba01b6dff78818ac4fb56909eb8ea1aac43006feb49f2cfb5a6836e",
            "93f6b43170b6921a8a52eacf459e5e70fa7cf61e71cfb80d9df270f90c7c52fa"),
        "noisy-ghz-1e3-from-ideal": (22, "certified", "lagrangian", "0.010186605558995084",
            "decde7c392ab2e222afa5a9552176deb0063017c9acabb10a7e6ecdbe0843700",
            "64db1e639cffc77d59c7dd94bbe2ff591c67c2aaa8776fc7d96fb21fd1aa7273"),
        "phi-plus-1e7-stalled": (15, "stalled", "gkg", "np.float64(1.873138830647805e-08)",
            "df659836c437fa6f2992e78ca5a2143b2552870a4cf6caf4be2d8d633d860c99",
            "f1f65772280db9bcccea739e4aa6414baef0906f3281adeca0d4ffd9ea4f7437"),
        "noisy-ghz-1e4-max-iter": (1, "max_iter", "gkg", "np.float64(11.087109317042351)",
            "b848f0c3608e5b22b16bad456fd3ab022f3ac5df77e738582ceb488bfbe63c04",
            "b93880197aba80ae5cf1f838648586c0970453799be1164804cf57c0362f9a4a"),
        "mixed-state-1e4-tol-1e-9": (18, "certified", "lagrangian", "5.149048234043254e-12",
            "8b43a79384a15f97fb6f71fd90ee0e98c90039618d90350a65d3375c898ac459",
            "7c950921b8d0dde21882ab22a97335862a63143be197ca433def955dd482bce2"),
        "z-basis-momentum-floor": (7, "certified", "gkg", "np.float64(0.013910773670744447)",
            "a150d54a0a3f364c14bdf0f21f712d5e1eea8c44ba08b3a57f1c508a23709fd1",
            "b96c3b1bf5feeabca2bd538bac490292b999088e9861d247812ded52516de8f4"),
    }

    @pytest.mark.parametrize("name", FIT_CASES)
    def test_fit_is_pinned(self, name):
        assert _fit_pin(*FIT_CASES[name]()) == self.PINS[name]

    def test_floor_case_takes_a_momentum_floor_restart(self, monkeypatch):
        # without the floor its extrapolations run on and the fit differs
        pinned = _fit_pin(*FIT_CASES["z-basis-momentum-floor"]())
        monkeypatch.setattr(tomography, "_MOMENTUM_FLOOR", -np.inf)
        assert _fit_pin(*FIT_CASES["z-basis-momentum-floor"]()) != pinned


class TestNewtonMove:
    """A fit with every outcome counted begins with one damped Newton step of
    its log-likelihood; a fit with an uncounted outcome takes none."""

    def test_calibrated_fits_at_1e5_counts_take_few_steps(self):
        # the four calibrated base datasets at 1e5 counts and seed 7, each
        # fitted cold and in 4 resamples from its estimate: 681 steps without
        # the move, 70 with it
        steps = 0
        for name, spec in pipeline.calibrated_channel_noise().items():
            chi = apply_noise(ideal_choi(preset(name).settings), spec)
            data = simulate_counts(chi, 1e5, derive_seed(7, f"tomo:{name}"))
            assert data.counts.min() >= 1
            base = mle_process_matrix(data)
            fits = [base, *(mle_process_matrix(sample, start=base.estimate)
                            for sample in _resamples(data, 4, 7))]
            assert all(fit.status == "certified" for fit in fits)
            steps += sum(fit.iterations for fit in fits)
        assert steps <= 120

    #: ``TestFitPins`` entries of fits with every outcome counted, as recorded
    #: before fits began with the move
    UNMOVED = {
        "noisy-ghz-1e4-cold": (11, "certified", "lagrangian", "0.11154243528087705",
            "3dda809ba09214f047dd489915adf77c4255904228afc86d20788d6b3b2a726f",
            "2914cc6efc48fee7a46e861b3a73c9a5739273ff820cd0261a4001825c0a5f8a"),
        "mixed-state-1e4-tol-1e-9": (24, "certified", "lagrangian", "9.132239787151952e-13",
            "2f6e985e6041f08f4a00874ec523911e0ad6b083c58b96acaac53b4a57cd74bb",
            "ec62f61f44f4cffe40233f63541260663a9fdd0503a5b357aa19121b6c0077dc"),
    }

    @pytest.mark.parametrize("name", ["ideal-ghz-1e3-cold", "ideal-ghz-1e3-warm",
                                      "phi-plus-1e7-stalled", "z-basis-momentum-floor"])
    def test_fit_with_an_uncounted_outcome_solves_no_newton_system(self, name, monkeypatch):
        def solve(*args):
            raise AssertionError("a fit with an uncounted outcome solved a Newton system")
        monkeypatch.setattr(tomography, "_newton_solve", solve)
        data, options, start = FIT_CASES[name]()
        assert data.counts.min() == 0
        assert _fit_pin(data, options, start) == TestFitPins.PINS[name]

    @pytest.mark.parametrize("name", list(UNMOVED))
    def test_counted_fit_without_the_move_is_the_fit_of_before(self, name, monkeypatch):
        # the move is the only change to a counted fit: damped to nothing, it
        # leaves the ascent that the fit ran before, bit for bit
        monkeypatch.setattr(tomography, "_NEWTON_DAMPING", ())
        assert _fit_pin(*FIT_CASES[name]()) == self.UNMOVED[name]


class TestColdStart:
    def test_calibrated_noisy_fits_take_under_half_the_steps_of_the_mixed_start(self):
        # the four base datasets of run_tomography_suite with calibrated noise
        # at 1e4 counts and seed 7: 410 steps from the least-squares starts,
        # 1,052 from the maximally mixed state
        specs = pipeline.calibrated_channel_noise()
        mixed = ChoiProcess(np.eye(16) / 16.0)
        cold = from_mixed = 0
        for name, spec in specs.items():
            chi = apply_noise(ideal_choi(preset(name).settings), spec)
            data = simulate_counts(chi, 1e4, derive_seed(7, f"tomo:{name}"))
            fits = mle_process_matrix(data), mle_process_matrix(data, start=mixed)
            assert all(fit.status == "certified" for fit in fits)
            cold += fits[0].iterations
            from_mixed += fits[1].iterations
        assert len(specs) == 4
        assert 2 * cold < from_mixed

    def test_start_missing_a_counted_outcome_is_mixed_and_certifies(self):
        # Z-basis counts alone: the projected least-squares start is |HH><HH|,
        # which gives the 10 counts of VV probability 0 up to rounding; a fit
        # that followed the gradient f / p of a ~1e-33 stalled at a gap of 1e34
        counts = np.zeros((9, 4), dtype=int)
        counts[0] = [990, 0, 0, 10]
        data = CoincidenceDataset(counts)
        frame, rows = tomography._state_operators(data)
        start = tomography._project_unit_trace_psd(frame.least_squares(rows / rows.sum()))
        assert abs(frame.probabilities(start)[0, 3]) <= tomography.PROBABILITY_WINDOW
        report = mle_density_matrix(data)
        assert report.status == "certified"
        mixed = (start + np.eye(4) / 4.0) / 2.0
        vv = np.kron(np.diag([0.0, 1.0]), np.diag([0.0, 1.0]))
        expected = 0.99 * np.log(mixed[0, 0].real) + 0.01 * np.log(np.trace(vv @ mixed).real)
        assert report.log_likelihoods[0] == pytest.approx(expected, abs=1e-12)

    def test_start_near_missing_a_counted_outcome_is_mixed_and_certifies(self):
        # a start giving the counted VV outcome probability 1e-30 stalled at a
        # gap of ~1.5e3 nats when only a probability of 0 or less was mixed
        counts = np.zeros((9, 4), dtype=int)
        counts[0] = [990, 0, 0, 10]
        data = CoincidenceDataset(counts)
        ket = np.array([1.0, 0.0, 0.0, 1e-15]) / np.sqrt(1.0 + 1e-30)
        report = mle_density_matrix(data, start=DensityMatrix(np.outer(ket, ket)))
        assert report.status == "certified"

    def test_repeated_state_bases_add_their_counts(self):
        data = simulate_state_counts(target_state("psi_plus").density(), 0.5, 1e3, seed=16)
        split = CoincidenceDataset.from_records(
            [None] * 10, [*data.bases, data.bases[4]],
            [*data.counts[:4], data.counts[4] // 2, *data.counts[5:],
             data.counts[4] - data.counts[4] // 2])
        assert np.array_equal(split.counts, data.counts)
        whole, parts = mle_density_matrix(data), mle_density_matrix(split)
        assert parts.iterations == whole.iterations
        assert np.abs(parts.estimate.matrix - whole.estimate.matrix).max() <= 1e-14


@pytest.fixture(scope="module")
def pinned_simulations(tmp_path_factory):
    """(simulation, arguments, dataset) of every simulation that the pinned
    report cases and CLI digests draw, recorded with the fits stubbed out."""
    calls = []

    def recording(simulate):
        def record(*args, **kwargs):
            bound = inspect.signature(simulate).bind(*args, **kwargs)
            calls.append((simulate, bound.args, simulate(*args, **kwargs)))
            return calls[-1][2]
        return record

    with pytest.MonkeyPatch.context() as patch:
        for simulate in (simulate_counts, simulate_state_counts):
            for module in (pipeline, tomography):
                patch.setattr(module, simulate.__name__, recording(simulate))
        patch.setattr(pipeline, "_sampled_rows", lambda *args: ([], tomography.MetricTable({})))
        patch.setattr(pipeline, "_success_row", lambda *args: pipeline.TableRow("stub", 0.0))
        for run, _, _ in CASES.values():
            run()
        for argv in (process_monte_carlo_argv, state_monte_carlo_argv):
            argv(tmp_path_factory.mktemp("cli"))
    return calls


class TestOperatorTable:
    def test_expected_counts_match_per_setting_loop(self, pinned_simulations):
        # the per-setting products, through the same clamp, draw the same counts
        kinds = [simulate for simulate, _, _ in pinned_simulations]
        assert (kinds.count(simulate_counts), kinds.count(simulate_state_counts)) == (6, 3)
        for simulate, args, data in pinned_simulations:
            if simulate is simulate_counts:
                chi, mean_counts, seed = args
                means = kron_means(chi, mean_counts)
            else:
                rho, prob, mean_counts, seed = args
                means = projector_means(rho, prob, mean_counts)
            assert np.array_equal(data.counts, oracle_counts(means, mean_counts, seed))

    def test_shuffled_process_records_reconstruct_identically(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1e4, seed=42)
        perm = np.random.default_rng(43).permutation(len(data))
        shuffled = CoincidenceDataset.from_records(
            [data.preps[i] for i in perm], [data.bases[i] for i in perm],
            data.counts.reshape(324, 4)[perm], mean_counts=data.mean_counts)
        assert np.array_equal(shuffled.counts, data.counts)
        a, b = mle_process_matrix(data), mle_process_matrix(shuffled)
        assert np.array_equal(a.estimate.choi, b.estimate.choi)
        assert a.estimate.success_scale == b.estimate.success_scale
        assert a.iterations == b.iterations

    def test_state_records_may_repeat_a_basis(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e4, seed=44)
        doubled = CoincidenceDataset.from_records(
            data.preps + [None], data.bases + [data.bases[4]],
            np.vstack([data.counts, data.counts[4:5]]))
        report = mle_density_matrix(doubled)
        assert report.metadata["total_counts"] == data.total() + int(data.counts[4].sum())
        assert fidelity(report.estimate, psi.density()) > 0.99


class TestMonteCarlo:
    def test_trace_metric_degenerate(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=31)
        mean, std = monte_carlo_metric_table(data, 3, {"trace": metric_function("trace")},
                                             32, start=mle_process_matrix(data).estimate)["trace"]
        assert mean == pytest.approx(1.0, abs=1e-12)
        assert std < 1e-12

    def test_two_samples_is_enough(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=33)
        mean, std = monte_carlo_metric_table(
            data, 2, {"process-fidelity": metric_function("process-fidelity", chi_ghz)},
            34, start=mle_process_matrix(data).estimate)["process-fidelity"]
        assert np.isfinite(mean) and np.isfinite(std)

    def test_rejects_single_sample(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=35)
        with pytest.raises(InvalidArgumentError):
            monte_carlo_metric_table(data, 1, {"purity": metric_function("purity")}, 36,
                                     start=chi_ghz)

    def test_state_metric_path(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e4, seed=37)
        mean, std = monte_carlo_metric_table(
            data, 3, {"concurrence": metric_function("concurrence")}, 38,
            start=mle_density_matrix(data).estimate)["concurrence"]
        assert mean > 0.98
        assert std < 0.05

    def test_table_equals_hand_loop_over_labeled_resamples(self):
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 1e3, seed=47)
        base = mle_density_matrix(data).estimate
        table = monte_carlo_metric_table(data, 4, {"purity": purity}, 48, start=base)
        values = np.asarray([purity(mle_density_matrix(sample, start=base).estimate)
                             for sample in _resamples(data, 4, 48)])
        assert table == {"purity": (float(values.mean()), float(values.std(ddof=1)))}

    def test_uncertified_resamples_are_counted(self, monkeypatch, chi_ghz):
        data = simulate_counts(apply_noise(chi_ghz, DEFAULT_CHANNEL_TEMPLATE), 1e3, seed=41)
        start = mle_process_matrix(data).estimate
        assert monte_carlo_metric_table(data, 3, {"purity": purity}, 42,
                                        start=start).uncertified == 0
        fit = tomography.reconstruct
        # one step cannot close a resample's gap from the estimate of its parent
        monkeypatch.setattr(tomography, "reconstruct", lambda sample, options=None, start=None:
                            fit(sample, MLEOptions(max_iter=1), start))
        table = monte_carlo_metric_table(data, 3, {"purity": purity}, 42, start=start)
        assert table.uncertified == 3
        assert np.isfinite(table["purity"]).all()

    def test_uncertified_resamples_reach_the_report_metadata(self, monkeypatch):
        config = pipeline.ExperimentConfig(preset="ghz", mean_counts=1e3, seed=43,
                                           monte_carlo_samples=2)
        assert "uncertified_resamples" not in pipeline.run_tomography_suite(config).metadata
        fit = tomography.reconstruct
        monkeypatch.setattr(tomography, "reconstruct", lambda sample, options=None, start=None:
                            fit(sample, MLEOptions(max_iter=1), start))
        metadata = pipeline.run_tomography_suite(config).metadata
        assert metadata["uncertified_resamples"] == {"ghz": 2}

    @pytest.mark.parametrize("mean_counts", [1e3, 1e5])
    def test_state_std_matches_the_delta_method_in_the_interior(self, mean_counts):
        # the entangler output through a 5% depolarized channel is full rank
        # (eigenvalues 0.024 x 3 and 0.929), so the fit is interior and
        # asymptotically normal with covariance I^-1: the multinomial Fisher
        # information I = N sum_j grad q_j grad q_j^T / q_j of the 36 outcome
        # frequencies q_j = Tr[Pi_j rho] / 9, in the 15 traceless Hermitian
        # directions (sigma_i (x) sigma_k) / 2, at the estimate
        settings = preset("entangler").settings
        psi_in = PureState.from_labels("--")
        target = apply_gate(settings, psi_in)[0].density()
        chi = apply_noise(ideal_choi(settings), NoiseSpec(depolarizing_p=0.05))
        rho_out, prob = apply_choi_channel(psi_in.density(), chi)
        data = simulate_state_counts(rho_out, prob, mean_counts, seed=5)
        # a fit error far below the error bar, so the spread is the estimator's
        options, n = MLEOptions(tol=1e-6), 400
        estimate = tomography.reconstruct(data, options).estimate
        metrics = {"fidelity": lambda m: fidelity(m, target), "purity": purity,
                   "concurrence": concurrence}
        values = {name: [] for name in metrics}
        for sample in _resamples(data, n, 7):
            fit = tomography.reconstruct(sample, options, start=estimate).estimate
            for name, fn in metrics.items():
                values[name].append(fn(fit))

        paulis = [IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z]
        directions = np.array([np.kron(a, b) / 2.0 for i, a in enumerate(paulis)
                               for k, b in enumerate(paulis) if i or k])
        projectors = np.concatenate([outcome_projectors(b) for b in enumerate_bases()])
        rho = estimate.matrix
        q = np.einsum("jab,ba->j", projectors, rho).real / 9.0
        dq = np.einsum("jab,kba->jk", projectors, directions).real / 9.0
        covariance = np.linalg.inv(data.total() * (dq.T / q) @ dq)
        h = 1e-6
        # a std of n normal samples has a relative sampling error 1 / sqrt(2 (n - 1)),
        # 3.5% at n = 400
        band = 3.0 / np.sqrt(2.0 * (n - 1))
        for name, fn in metrics.items():
            grad = np.array([(fn(DensityMatrix(rho + h * d, validate=False))
                              - fn(DensityMatrix(rho - h * d, validate=False))) / (2.0 * h)
                             for d in directions])
            delta = np.sqrt(grad @ covariance @ grad)
            assert abs(np.std(values[name], ddof=1) / delta - 1.0) <= band, name

    def test_unknown_metric(self, chi_ghz):
        data = simulate_counts(chi_ghz, 1000, seed=39)
        with pytest.raises(InvalidArgumentError):
            monte_carlo_metric_table(
                data, 2, {"negativity-cubed": metric_function("negativity-cubed")}, 40,
                start=chi_ghz)


class TestSeeds:
    def test_derive_seed_is_deterministic(self):
        assert derive_seed(7, "a") == derive_seed(7, "a")
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(7, "a") != derive_seed(8, "a")

    def test_derive_seed_range(self):
        s = derive_seed(123456789, "sample:999")
        assert 0 <= s < 2**64
