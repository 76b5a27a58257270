import json
import subprocess
import sys

import numpy as np
import pytest

from convgate import serialize
from convgate.cli import format_angle, main, parse_angle
from convgate.errors import InvalidArgumentError
from convgate.gate import GateSettings, build_gate, ideal_choi, target_state


class TestAngleParsing:
    @pytest.mark.parametrize("text,expected", [
        ("0", 0.0),
        ("0.75", 0.75),
        ("pi", np.pi),
        ("pi/4", np.pi / 4),
        ("3pi/8", 3 * np.pi / 8),
        ("-pi/3", -np.pi / 3),
        ("2pi", 2 * np.pi),
        ("1.5pi/2", 1.5 * np.pi / 2),
    ])
    def test_accepted_forms(self, text, expected):
        assert parse_angle(text) == pytest.approx(expected, abs=1e-15)

    def test_round_trip(self, rng):
        for theta in [0.0, np.pi / 4, 3 * np.pi / 8, *rng.uniform(0, np.pi, 20)]:
            assert parse_angle(format_angle(theta)) == theta

    def test_rejects_garbage(self):
        with pytest.raises(InvalidArgumentError):
            parse_angle("pi/zero")


class TestGateCommand:
    def test_writes_matrix_and_metadata(self, tmp_path, capsys):
        out = tmp_path / "gate.json"
        code = main(["gate", "--theta1", "0", "--theta2", "pi/4", "--out", str(out)])
        assert code == 0
        matrix = serialize.matrix_from_json(serialize.load_json(out))
        assert np.abs(matrix - build_gate(GateSettings(0.0, np.pi / 4))).max() == 0.0
        meta = json.loads((tmp_path / "gate.json.meta.json").read_text())
        assert meta["version"]
        assert "operator norm" in capsys.readouterr().out

    def test_preset_and_angles_conflict(self):
        assert main(["gate", "--preset", "ghz", "--theta1", "0", "--theta2", "0"]) == 2

    def test_bad_angle_exit_code(self):
        assert main(["gate", "--theta1", "junk", "--theta2", "0"]) == 2


class TestConvertCommand:
    def test_default_cluster_conversion(self, tmp_path, capsys):
        out = tmp_path / "state.json"
        assert main(["convert", "--preset", "ghz", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "0.5" in printed
        state = serialize.state_from_json(serialize.load_json(out))
        ghz = target_state("ghz4")
        assert abs(np.vdot(state.amplitudes, ghz.amplitudes)) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_two_qubit_input_state(self, tmp_path, capsys):
        from convgate.core import PureState
        inp = tmp_path / "mm.json"
        serialize.dump_json(serialize.state_to_json(PureState.from_labels("--")), inp)
        assert main(["convert", "--theta1", "3pi/8", "--theta2", "pi/8",
                     "--state-in", str(inp)]) == 0
        assert "0.5" in capsys.readouterr().out

    def test_degenerate_conversion_exit_code(self, tmp_path):
        from convgate.core import PureState
        inp = tmp_path / "hv.json"
        serialize.dump_json(serialize.state_to_json(PureState.from_labels("HV")), inp)
        assert main(["convert", "--theta1", "0", "--theta2", "pi/4",
                     "--state-in", str(inp)]) == 4


class TestTomoCommands:
    def test_simulate_reconstruct_round_trip(self, tmp_path, capsys):
        data = tmp_path / "data.json"
        assert main(["tomo", "simulate", "--preset", "ghz", "--mean-counts", "20000",
                     "--seed", "7", "--out", str(data)]) == 0
        chi_out = tmp_path / "chi.json"
        report = tmp_path / "report.json"
        assert main(["tomo", "reconstruct", "--data", str(data), "--type", "process",
                     "--out", str(chi_out), "--report", str(report)]) == 0
        est = serialize.choi_from_json(serialize.load_json(chi_out))
        from convgate.metrics import process_fidelity
        assert process_fidelity(est, ideal_choi(GateSettings(0.0, np.pi / 4))) >= 0.999
        rep = json.loads(report.read_text())
        assert rep["converged"] is True

    def test_same_seed_same_file(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["tomo", "simulate", "--preset", "dicke", "--mean-counts", "500",
                  "--seed", "3", "--out", str(path)])
        assert a.read_text() == b.read_text()

    def test_reconstruct_rejects_incomplete_dataset(self, tmp_path):
        data = tmp_path / "short.json"
        serialize.dump_json({"mean_counts": 1, "seed": 1, "records": [
            {"prep": ["H", "H"], "basis": ["Z", "Z"],
             "counts": {"00": 1, "01": 0, "10": 0, "11": 0}}]}, data)
        out = tmp_path / "x.json"
        assert main(["tomo", "reconstruct", "--data", str(data), "--type", "process",
                     "--out", str(out)]) == 2

    def test_state_reconstruction_with_prep_restriction(self, tmp_path):
        data = tmp_path / "data.json"
        main(["tomo", "simulate", "--preset", "cluster-identity", "--mean-counts",
              "20000", "--seed", "5", "--out", str(data)])
        out = tmp_path / "rho.json"
        assert main(["tomo", "reconstruct", "--data", str(data), "--type", "state",
                     "--prep", "R,L", "--out", str(out)]) == 0
        rho = serialize.state_from_json(serialize.load_json(out))
        from convgate.core import PureState
        from convgate.metrics import fidelity
        assert fidelity(rho, PureState.from_labels("RL").density()) > 0.99


class TestMetricsCommand:
    def test_process_metrics(self, tmp_path, capsys):
        chi_path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_json(
            ideal_choi(GateSettings(0.0, np.pi / 4))), chi_path)
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--chi", str(chi_path), "--target", str(chi_path),
                     "--metric", "process-fidelity", "--metric", "purity",
                     "--optimize-phases", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "process-fidelity = 1.000000000" in printed
        payload = json.loads(out.read_text())
        names = {m["name"] for m in payload["metrics"]}
        assert names == {"process-fidelity", "purity", "process-fidelity-optimized"}

    def test_state_metric_with_monte_carlo(self, tmp_path, capsys):
        from convgate.core import PureState
        from convgate.tomography import simulate_state_counts
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 5000, seed=9)
        data_path = tmp_path / "data.json"
        serialize.dump_json(serialize.dataset_to_json(data), data_path)
        state_path = tmp_path / "state.json"
        serialize.dump_json(serialize.state_to_json(psi), state_path)
        assert main(["metrics", "--state", str(state_path), "--metric", "concurrence",
                     "--monte-carlo", "3", "--data", str(data_path),
                     "--seed", "2"]) == 0
        assert "±" in capsys.readouterr().out

    @staticmethod
    def _state_inputs(tmp_path):
        from convgate.tomography import simulate_state_counts
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 5000, seed=9)
        serialize.dump_json(serialize.dataset_to_json(data), tmp_path / "data.json")
        serialize.dump_json(serialize.state_to_json(psi), tmp_path / "state.json")
        return str(tmp_path / "state.json"), str(tmp_path / "data.json")

    def test_monte_carlo_draws_one_seed_on_stderr(self, tmp_path, capsys):
        state, data = self._state_inputs(tmp_path)
        out = tmp_path / "m.json"
        assert main(["metrics", "--state", state, "--metric", "concurrence",
                     "--metric", "purity", "--monte-carlo", "3", "--data", data,
                     "--out", str(out)]) == 0
        captured = capsys.readouterr()
        assert "generated seed" not in captured.out
        seed_lines = [line for line in captured.err.splitlines()
                      if line.startswith("generated seed: ")]
        assert len(seed_lines) == 1
        seed = int(seed_lines[0].split(": ")[1])
        metrics = json.loads(out.read_text())["metrics"]
        assert [m["metadata"]["seed"] for m in metrics] == [seed, seed]

    # sha256 of the --out files written by the per-metric Monte Carlo loop this
    # command replaced; one shared table must reproduce them byte for byte
    @pytest.mark.parametrize("kind,digest", [
        ("state", "6371627212226d3d6deb84ca69e532603445f7bafd3e60e6fc4ffada27d6da0e"),
        ("process", "d53dd14f563a0b8e318b08396e6cf506a2a793c468b521a135541c201ba3c543"),
    ])
    def test_seeded_monte_carlo_report_bytes(self, tmp_path, kind, digest):
        import hashlib
        from convgate.tomography import simulate_counts
        out = tmp_path / "m.json"
        if kind == "state":
            state, data = self._state_inputs(tmp_path)
            argv = ["--state", state, "--target", state, "--metric", "concurrence",
                    "--metric", "purity", "--metric", "fidelity", "--monte-carlo", "3",
                    "--data", data, "--seed", "2"]
        else:
            chi = ideal_choi(GateSettings(0.0, np.pi / 4))
            chi_path, data = str(tmp_path / "chi.json"), str(tmp_path / "data.json")
            serialize.dump_json(serialize.choi_to_json(chi), chi_path)
            serialize.dump_json(serialize.dataset_to_json(simulate_counts(chi, 1000, seed=4)),
                                data)
            argv = ["--chi", chi_path, "--target", chi_path, "--metric", "process-fidelity",
                    "--metric", "purity", "--optimize-phases", "--monte-carlo", "2",
                    "--data", data, "--seed", "4"]
        assert main(["metrics", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_requires_metric(self, tmp_path):
        chi_path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_json(
            ideal_choi(GateSettings(0.0, 0.0))), chi_path)
        assert main(["metrics", "--chi", str(chi_path)]) == 2

    def test_numerical_domain_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        matrix = serialize.matrix_to_json(np.diag([1.2, -0.2, 0.0, 0.0]))
        serialize.dump_json({"qubits": 2, "kind": "density", "data": matrix}, bad)
        assert main(["metrics", "--state", str(bad), "--metric", "purity"]) == 3


class TestReproduceCommand:
    def test_table1(self, tmp_path, capsys):
        assert main(["reproduce", "table1", "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "table1.json").read_text())
        probs = {row["label"]: row["value"] for row in payload["rows"]
                 if row["label"].endswith("success-probability")}
        assert sorted(set(np.round(list(probs.values()), 12))) == [0.25, 0.3, 0.5, 1.0]
        assert (tmp_path / "table1.csv").exists()

    def test_discord_seeded(self, tmp_path):
        assert main(["reproduce", "discord", "--seed", "11", "--out-dir", str(tmp_path),
                     "--mean-counts", "5000", "--samples", "3"]) == 0
        payload = json.loads((tmp_path / "discord.json").read_text())
        rows = {row["label"]: row for row in payload["rows"]}
        ln = rows["sampled/log-negativity"]
        assert abs(ln["value"]) <= max(3 * ln["std"], 0.05)
        assert rows["sampled/discord-q2"]["value"] > 0.01

    def test_byte_identical_reruns(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert main(["reproduce", "entangler", "--seed", "3", "--out-dir", str(d),
                         "--mean-counts", "2000", "--samples", "2"]) == 0
        assert (d1 / "entangler.json").read_text() == (d2 / "entangler.json").read_text()
        assert (d1 / "entangler.csv").read_text() == (d2 / "entangler.csv").read_text()


def test_console_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "convgate.cli", "gate", "--preset", "cluster-identity"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert "operator norm = 1" in result.stdout
