import numpy as np
import pytest

from convgate.core import PureState, apply_choi_channel
from convgate.errors import InvalidArgumentError
from convgate.gate import cluster_state_c4, ideal_choi, preset, target_state
from convgate.metrics import concurrence, fidelity
from convgate.noise import NoiseSpec
from convgate.pipeline import (
    RAW_FIDELITY_TARGETS,
    ExperimentConfig,
    TableReport,
    TableRow,
    _success_row,
    calibrated_channel_noise,
    realistic_cluster_fixture,
    run_discord_demo,
    run_entangler_demo,
    run_table1,
    run_table3,
    run_tomography_suite,
)
from convgate.tomography import (
    CoincidenceDataset,
    _resamples,
    derive_seed,
    reconstruct,
    simulate_state_counts,
)


@pytest.fixture(scope="module")
def small_config():
    return ExperimentConfig(seed=71, mean_counts=2e4, monte_carlo_samples=3)


class TestTable1:
    def test_probability_column(self):
        report = run_table1()
        expected = {"cluster-identity": 1.0, "ghz": 0.5, "dicke": 0.3, "bell-pair": 0.25}
        for row in report.rows:
            kind = row.label.split("[")[0]
            if row.label.endswith("success-probability"):
                assert row.value == pytest.approx(expected[kind], abs=1e-12)
            else:
                assert row.value >= 1.0 - 1e-10

    def test_sampling_free_and_exact(self):
        a, b = run_table1(), run_table1()
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()
        assert all(row.std is None and row.seed is None for row in a.rows)


class TestEntanglerDemo:
    def test_ideal_rows(self, small_config):
        report = run_entangler_demo(small_config)
        assert report.value("ideal/success-probability") == pytest.approx(0.5, abs=1e-12)
        assert report.value("ideal/concurrence") == pytest.approx(1.0, abs=1e-10)

    def test_sampled_rows(self, small_config):
        report = run_entangler_demo(small_config)
        assert report.value("sampled/concurrence") > 0.99
        assert report.value("sampled/fidelity") > 0.99
        assert report.value("sampled/success-probability") == pytest.approx(0.5, rel=0.02)
        for row in report.rows:
            if row.label.startswith("sampled/"):
                assert row.std is not None and row.n_samples == 3

    def test_deterministic_reports(self, small_config):
        a = run_entangler_demo(small_config)
        b = run_entangler_demo(small_config)
        assert a.to_json() == b.to_json()
        assert a.to_csv() == b.to_csv()

    def test_noise_lowers_fidelity(self):
        clean = ExperimentConfig(seed=5, mean_counts=2e4, monte_carlo_samples=2)
        noisy = ExperimentConfig(seed=5, mean_counts=2e4, monte_carlo_samples=2,
                                 noise=NoiseSpec(depolarizing_p=0.3))
        f_clean = run_entangler_demo(clean).value("sampled/fidelity")
        f_noisy = run_entangler_demo(noisy).value("sampled/fidelity")
        assert f_noisy < f_clean - 0.02


class TestDiscordDemo:
    def test_ideal_rows(self, small_config):
        report = run_discord_demo(small_config)
        assert report.value("ideal/success-probability") == pytest.approx(7 / 16, abs=1e-12)
        assert report.value("ideal/log-negativity") == pytest.approx(0.0, abs=1e-10)
        assert report.value("ideal/concurrence") == pytest.approx(0.0, abs=1e-10)
        assert report.value("ideal/discord-q1") == pytest.approx(0.0, abs=1e-6)
        assert report.value("ideal/discord-q2") > 0.01

    def test_sampled_entanglement_compatible_with_zero(self, small_config):
        report = run_discord_demo(small_config)
        for key in ("sampled/log-negativity", "sampled/concurrence"):
            row = report.row(key)
            assert abs(row.value) <= max(3 * row.std, 0.02)
        assert report.value("sampled/discord-q2") > 0.01


class TestTomographySuite:
    def test_single_preset_round_trip(self):
        config = ExperimentConfig(preset="ghz", seed=17, mean_counts=5e4,
                                  monte_carlo_samples=3)
        report = run_tomography_suite(config)
        assert report.value("ghz/purity") >= 0.999
        assert report.value("ghz/fidelity-raw") >= 0.999
        raw = report.row("ghz/fidelity-raw")
        opt = report.row("ghz/fidelity-optimized")
        assert opt.value >= raw.value - 1e-12
        assert raw.std is not None

    def test_requires_seed(self):
        with pytest.raises(InvalidArgumentError):
            run_tomography_suite(ExperimentConfig(preset="ghz"))

    def test_mode_phases_open_optimized_gap(self):
        specs = calibrated_channel_noise()
        config = ExperimentConfig(preset="ghz", seed=23, mean_counts=2e4,
                                  monte_carlo_samples=2, noise=specs["ghz"])
        report = run_tomography_suite(config)
        raw = report.value("ghz/fidelity-raw")
        optimized = report.value("ghz/fidelity-optimized")
        assert optimized > raw + 1e-3  # systematic phases are recoverable
        assert abs(raw - 0.875) < 0.02


class TestTable3:
    def test_ideal_channels_identity_total(self):
        report = run_table3(ExperimentConfig(seed=1), calibrate_channels=False)
        assert report.value("cluster-identity/total-fidelity") == pytest.approx(
            0.915, abs=1e-6)
        for name in RAW_FIDELITY_TARGETS:
            assert report.value(f"{name}/operation-fidelity") == pytest.approx(
                1.0, abs=1e-9)

    def test_calibrated_channels_band_and_ordering(self):
        report = run_table3(ExperimentConfig(seed=1))
        for name in RAW_FIDELITY_TARGETS:
            op = report.value(f"{name}/operation-fidelity")
            tot = report.value(f"{name}/total-fidelity")
            assert op >= tot
            assert 0.80 <= tot <= 0.95


class TestOneResamplingStream:
    def test_success_std_is_the_poisson_value(self):
        data = simulate_state_counts(target_state("psi_plus").density(), 0.5, 1e3, seed=61)
        row = _success_row(data, [sample.total() for sample in _resamples(data, 2000, 62)], 61)
        poisson = np.sqrt(data.total()) / (9.0 * data.mean_counts)
        # the std of 2000 resamples scatters by 1/sqrt(2 * 1999) ~ 1.6%
        assert abs(row.std / poisson - 1.0) <= 0.08

    def test_success_and_metric_rows_share_the_resamples(self):
        seed, n = 13, 3
        report = run_entangler_demo(ExperimentConfig(seed=seed, mean_counts=1e3,
                                                     monte_carlo_samples=n))
        rho_out, prob = apply_choi_channel(PureState.from_labels("--").density(),
                                           ideal_choi(preset("entangler").settings))
        data = simulate_state_counts(rho_out, prob, 1e3, derive_seed(seed, "entangler:data"))
        base = reconstruct(data).estimate
        samples = list(_resamples(data, n, derive_seed(seed, "entangler:mc")))
        totals = [sample.total() / (9.0 * data.mean_counts) for sample in samples]
        concurrences = [concurrence(reconstruct(sample, start=base).estimate)
                        for sample in samples]
        assert report.row("sampled/success-probability").std == float(np.std(totals, ddof=1))
        assert report.row("sampled/concurrence").std == float(np.std(concurrences, ddof=1))

    def test_state_report_draws_each_resample_once(self, monkeypatch):
        n, calls = 10, []
        original = CoincidenceDataset.resampled

        def counted(self, rng):
            calls.append(1)
            return original(self, rng)

        monkeypatch.setattr(CoincidenceDataset, "resampled", counted)
        run_entangler_demo(ExperimentConfig(seed=13, mean_counts=1e3, monte_carlo_samples=n))
        assert len(calls) == n


class TestFixtures:
    def test_realistic_cluster_fidelity(self):
        rho = realistic_cluster_fixture()
        ideal = cluster_state_c4().density()
        assert fidelity(rho, ideal) == pytest.approx(0.915, abs=1e-7)

    def test_calibrated_channel_noise_targets(self):
        specs = calibrated_channel_noise()
        assert set(specs) == set(RAW_FIDELITY_TARGETS)
        assert all(not spec.is_zero() for spec in specs.values())


class TestConfigAndReport:
    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(monte_carlo_samples=1)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(mean_counts=0.0)
        with pytest.raises(InvalidArgumentError):
            ExperimentConfig(preset="nonexistent")

    def test_report_lookup_and_csv(self):
        report = TableReport("demo", [TableRow("a/b", 1.5, 0.1, 10, 3)])
        assert report.value("a/b") == 1.5
        csv_text = report.to_csv()
        assert csv_text.splitlines()[0] == "label,value,std,n_samples,seed"
        assert "a/b,1.5,0.1,10,3" in csv_text
        with pytest.raises(KeyError):
            report.value("missing")

    def test_provenance_metadata(self, small_config):
        report = run_entangler_demo(small_config)
        meta = report.metadata
        assert meta["version"]
        assert meta["config"]["seed"] == 71
        assert len(meta["config_hash"]) == 64
