import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import convgate
from convgate import serialize
from convgate.cli import format_angle, main, parse_angle
from convgate.errors import InvalidArgumentError
from convgate.gate import GateSettings, build_gate, ideal_choi, target_state


def process_monte_carlo_argv(tmp_path):
    """``metrics`` arguments of a seeded two-sample Monte Carlo over ideal GHZ
    process counts, with the estimate and dataset written under ``tmp_path``."""
    from convgate.tomography import simulate_counts
    chi = ideal_choi(GateSettings(0.0, np.pi / 4))
    chi_path, data = str(tmp_path / "chi.json"), str(tmp_path / "data.json")
    serialize.dump_json(serialize.choi_to_json(chi), chi_path)
    serialize.dump_json(serialize.dataset_to_json(simulate_counts(chi, 1000, seed=4)), data)
    return ["--estimate", chi_path, "--target", chi_path, "--metric", "process-fidelity",
            "--metric", "purity", "--metric", "process-fidelity-optimized",
            "--monte-carlo", "2", "--data", data, "--seed", "4"]


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
        assert main(["tomo", "reconstruct", "--data", str(data),
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
        assert main(["tomo", "reconstruct", "--data", str(data),
                     "--out", str(out)]) == 2

    def test_state_reconstruction_with_prep_restriction(self, tmp_path):
        data = tmp_path / "data.json"
        main(["tomo", "simulate", "--preset", "cluster-identity", "--mean-counts",
              "20000", "--seed", "5", "--out", str(data)])
        out = tmp_path / "rho.json"
        assert main(["tomo", "reconstruct", "--data", str(data),
                     "--prep", "R,L", "--out", str(out)]) == 0
        rho = serialize.state_from_json(serialize.load_json(out))
        from convgate.core import PureState
        from convgate.metrics import fidelity
        assert fidelity(rho, PureState.from_labels("RL").density()) > 0.99

    @pytest.mark.parametrize("kind,written", [("state", "density"), ("process", "choi")])
    def test_reconstruction_follows_the_dataset(self, tmp_path, kind, written):
        from convgate.tomography import simulate_counts, simulate_state_counts
        if kind == "state":
            data = simulate_state_counts(target_state("psi_plus").density(), 0.5, 1000, seed=3)
        else:
            data = simulate_counts(ideal_choi(GateSettings(0.0, np.pi / 4)), 1000, seed=3)
        serialize.dump_json(serialize.dataset_to_json(data), tmp_path / "data.json")
        out = tmp_path / "estimate.json"
        assert main(["tomo", "reconstruct", "--data", str(tmp_path / "data.json"),
                     "--out", str(out)]) == 0
        assert json.loads(out.read_text())["kind"] == written

    def test_reconstruct_defaults_are_the_mle_options(self):
        from convgate.cli import build_parser
        from convgate.tomography import MLEOptions
        args = build_parser().parse_args(["tomo", "reconstruct", "--data", "d.json",
                                          "--out", "x.json"])
        assert (args.tol, args.max_iter) == (MLEOptions.tol, MLEOptions.max_iter)


@pytest.mark.parametrize("argv", [
    ["tomo", "reconstruct", "--data", "d.json", "--type", "process", "--out", "x.json"],
    ["metrics", "--estimate", "e.json", "--chi", "chi.json", "--metric", "purity"],
    ["metrics", "--estimate", "e.json", "--state", "rho.json", "--metric", "purity"],
    ["metrics", "--estimate", "chi.json", "--optimize-phases"],
], ids=["type", "chi", "state", "optimize-phases"])
def test_removed_options_are_rejected(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("mean", ["nan", "inf"])
@pytest.mark.parametrize("command", [
    ["tomo", "simulate", "--preset", "ghz", "--seed", "1", "--out", "x.json"],
    ["reproduce", "table2-sim", "--seed", "1", "--samples", "2", "--out-dir", "out"],
], ids=["tomo-simulate", "reproduce"])
def test_mean_counts_must_be_finite(tmp_path, monkeypatch, capsys, command, mean):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--mean-counts", mean]) == 2
    assert "mean_counts must be positive" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.json")) == []


def test_infinite_mean_counts_is_rejected_before_any_means_are_formed(tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["tomo", "simulate", "--preset", "ghz", "--seed", "1", "--out", "x.json",
                     "--mean-counts", "inf"]) == 2
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["tomo", "simulate", "--preset", "ghz", "--seed", "1", "--out", "x.json"],
    ["reproduce", "entangler", "--seed", "1", "--samples", "2", "--out-dir", "out"],
], ids=["tomo-simulate", "reproduce"])
def test_poisson_means_beyond_the_generator_range_exit_2(tmp_path, monkeypatch, capsys,
                                                         command):
    monkeypatch.chdir(tmp_path)
    assert main([*command, "--mean-counts", "1e30"]) == 2
    assert "exceeds MAX_POISSON_MEAN" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.json")) == []


@pytest.mark.parametrize("text", ["[1, 2]", "3", '"chi"', "null"])
@pytest.mark.parametrize("argv", [
    ["metrics", "--estimate", "input.json", "--metric", "purity"],
    ["tomo", "simulate", "--preset", "ghz", "--mean-counts", "10", "--seed", "1",
     "--noise", "input.json", "--out", "x.json"],
], ids=["metrics-estimate", "tomo-simulate-noise"])
def test_json_that_is_not_an_object_exits_2(tmp_path, monkeypatch, capsys, argv, text):
    monkeypatch.chdir(tmp_path)
    Path("input.json").write_text(text)
    assert main(argv) == 2
    assert "input.json must hold a JSON object" in capsys.readouterr().err


def _set_entry(obj, value):
    obj["entries"][0][0] = value


#: name -> (file kind, edit that makes the file malformed, command reading it)
MALFORMED_INPUTS = {
    "count-abc": ("dataset", lambda o: o["records"][0]["counts"].update({"00": "abc"})),
    "mean-counts-abc": ("dataset", lambda o: o.update(mean_counts="abc")),
    "mean-counts-nan": ("dataset", lambda o: o.update(mean_counts=float("nan"))),
    "count-overflow": ("dataset", lambda o: o["records"][0]["counts"].update({"00": 1e30})),
    "metadata-int": ("dataset", lambda o: o.update(metadata=5)),
    "success-scale-abc": ("choi", lambda o: o.update(success_scale="abc")),
    "success-scale-nan": ("choi", lambda o: o.update(success_scale=float("nan"))),
    "rows-x": ("choi", lambda o: o["matrix"].update(rows="x")),
    "entry-x": ("choi", lambda o: _set_entry(o["matrix"], "x")),
    "entry-nan": ("density", lambda o: _set_entry(o["data"], float("nan"))),
    "qubits-two": ("density", lambda o: o.update(qubits="two")),
    "convert-qubits-two": ("pure", lambda o: o.update(qubits="two")),
}
_READERS = {
    "dataset": ["tomo", "reconstruct", "--data", "input.json", "--out", "x.json"],
    "choi": ["metrics", "--estimate", "input.json", "--metric", "trace", "--out", "x.json"],
    "density": ["metrics", "--estimate", "input.json", "--metric", "trace", "--out", "x.json"],
    "pure": ["convert", "--preset", "ghz", "--state-in", "input.json", "--out", "x.json"],
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2(tmp_path, monkeypatch, capsys, case):
    from convgate.core import DensityMatrix, PureState
    from convgate.tomography import simulate_counts
    kind, edit = MALFORMED_INPUTS[case]
    chi = ideal_choi(GateSettings(0.0, np.pi / 4))
    obj = {"dataset": lambda: serialize.dataset_to_json(simulate_counts(chi, 100, seed=1)),
           "choi": lambda: serialize.choi_to_json(chi),
           "density": lambda: serialize.state_to_json(DensityMatrix.maximally_mixed(2)),
           "pure": lambda: serialize.state_to_json(PureState.from_labels("HH"))}[kind]()
    edit(obj)
    monkeypatch.chdir(tmp_path)
    Path("input.json").write_text(json.dumps(obj))
    assert main(_READERS[kind]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not Path("x.json").exists()


class TestMetricsCommand:
    def test_process_metrics(self, tmp_path, capsys):
        chi_path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_json(
            ideal_choi(GateSettings(0.0, np.pi / 4))), chi_path)
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--estimate", str(chi_path), "--target", str(chi_path),
                     "--metric", "process-fidelity", "--metric", "purity",
                     "--metric", "process-fidelity-optimized", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "process-fidelity = 1.000000000" in printed
        payload = json.loads(out.read_text())
        names = {m["name"] for m in payload["metrics"]}
        assert names == {"process-fidelity", "purity", "process-fidelity-optimized"}

    def test_repeated_metric_reported_once(self, tmp_path, capsys):
        chi_path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_json(
            ideal_choi(GateSettings(0.0, np.pi / 4))), chi_path)
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--estimate", str(chi_path), "--metric", "purity",
                     "--metric", "purity", "--out", str(out)]) == 0
        assert capsys.readouterr().out.count("purity = ") == 1
        assert [m["name"] for m in json.loads(out.read_text())["metrics"]] == ["purity"]

    def test_optimize_phases_runs_one_optimization(self, tmp_path, monkeypatch):
        from convgate import cli, metrics
        calls = []
        original = metrics.phase_optimized_fidelity

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, "phase_optimized_fidelity", counted)
        monkeypatch.setattr(cli, "phase_optimized_fidelity", counted)
        chi_path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_json(
            ideal_choi(GateSettings(0.0, np.pi / 4))), chi_path)
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--estimate", str(chi_path), "--target", str(chi_path),
                     "--metric", "process-fidelity-optimized", "--out", str(out)]) == 0
        assert len(calls) == 1
        (report,) = json.loads(out.read_text())["metrics"]
        assert report["name"] == "process-fidelity-optimized"
        assert len(report["metadata"]["phases"]) == 4

    def test_state_metric_with_monte_carlo(self, tmp_path, capsys):
        from convgate.core import PureState
        from convgate.tomography import simulate_state_counts
        psi = target_state("psi_plus")
        data = simulate_state_counts(psi.density(), 0.5, 5000, seed=9)
        data_path = tmp_path / "data.json"
        serialize.dump_json(serialize.dataset_to_json(data), data_path)
        state_path = tmp_path / "state.json"
        serialize.dump_json(serialize.state_to_json(psi), state_path)
        assert main(["metrics", "--estimate", str(state_path), "--metric", "concurrence",
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
        assert main(["metrics", "--estimate", state, "--metric", "concurrence",
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

    # sha256 of the --out files. The state digest is that of the per-metric
    # Monte Carlo loop this command replaced. The process digest was
    # re-recorded when the R-rho-R fit began contracting the preparation and
    # projector stacks, and again when the phase search became one Nelder-Mead
    # refinement (the process-fidelity-optimized std moved by 7.9e-17);
    # test_report_values.py bounds how far its values moved.
    @pytest.mark.parametrize("kind,digest", [
        ("state", "6371627212226d3d6deb84ca69e532603445f7bafd3e60e6fc4ffada27d6da0e"),
        ("process", "8661b70241c5892f926072570f850045d86c2ebfc66d274ee56324c35a9c0a9a"),
    ])
    def test_seeded_monte_carlo_report_bytes(self, tmp_path, kind, digest):
        import hashlib
        out = tmp_path / "m.json"
        if kind == "state":
            state, data = self._state_inputs(tmp_path)
            argv = ["--estimate", state, "--target", state, "--metric", "concurrence",
                    "--metric", "purity", "--metric", "fidelity", "--monte-carlo", "3",
                    "--data", data, "--seed", "2"]
        else:
            argv = process_monte_carlo_argv(tmp_path)
        assert main(["metrics", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("kind,message", [
        ("chi", "needs all 324 settings"),
        ("state", "more than one preparation"),
    ])
    def test_monte_carlo_counts_of_the_other_kind(self, tmp_path, capsys, kind, message):
        from convgate.tomography import simulate_counts, simulate_state_counts
        chi = ideal_choi(GateSettings(0.0, np.pi / 4))
        psi = target_state("psi_plus")
        if kind == "chi":
            estimate = serialize.choi_to_json(chi)
            data = simulate_state_counts(psi.density(), 0.5, 1000, seed=5)
        else:
            estimate = serialize.state_to_json(psi)
            data = simulate_counts(chi, 1000, seed=5)
        serialize.dump_json(estimate, tmp_path / "estimate.json")
        serialize.dump_json(serialize.dataset_to_json(data), tmp_path / "data.json")
        assert main(["metrics", "--estimate", str(tmp_path / "estimate.json"),
                     "--metric", "purity", "--monte-carlo", "2",
                     "--data", str(tmp_path / "data.json"), "--seed", "1"]) == 2
        assert message in capsys.readouterr().err

    def test_monte_carlo_of_zero_samples_is_rejected(self, tmp_path, capsys):
        state, data = self._state_inputs(tmp_path)
        assert main(["metrics", "--estimate", state, "--metric", "purity",
                     "--monte-carlo", "0", "--data", data, "--seed", "1"]) == 2
        assert "n_samples >= 2" in capsys.readouterr().err

    def test_monte_carlo_counts_beyond_the_generator_range_exit_2(self, tmp_path, capsys):
        state, data = self._state_inputs(tmp_path)
        obj = json.loads(Path(data).read_text())
        obj["records"][0]["counts"]["00"] = 9223372036000000000
        Path(data).write_text(json.dumps(obj))
        assert main(["metrics", "--estimate", state, "--metric", "purity",
                     "--monte-carlo", "2", "--data", data, "--seed", "1"]) == 2
        assert "exceeds MAX_POISSON_MEAN" in capsys.readouterr().err

    def test_requires_metric(self, tmp_path):
        chi_path = tmp_path / "chi.json"
        serialize.dump_json(serialize.choi_to_json(
            ideal_choi(GateSettings(0.0, 0.0))), chi_path)
        assert main(["metrics", "--estimate", str(chi_path)]) == 2

    def test_numerical_domain_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        matrix = serialize.matrix_to_json(np.diag([1.2, -0.2, 0.0, 0.0]))
        serialize.dump_json({"qubits": 2, "kind": "density", "data": matrix}, bad)
        assert main(["metrics", "--estimate", str(bad), "--metric", "purity"]) == 3


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
    # the child imports the same convgate as this process, installed or not
    src = str(Path(convgate.__file__).parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "convgate.cli", "gate", "--preset", "cluster-identity"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert "operator norm = 1" in result.stdout
