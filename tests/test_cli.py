import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import convgate
from convgate import serialize, tomography
from convgate.cli import format_angle, main, parse_angle
from convgate.errors import InvalidArgumentError
from convgate.gate import GateSettings, build_gate, ideal_choi, target_state
from convgate.noise import DEFAULT_CHANNEL_TEMPLATE
from convgate.tomography import MLEOptions


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


def state_monte_carlo_argv(tmp_path):
    """``metrics`` arguments of a seeded three-sample Monte Carlo over psi_plus
    state counts, with the state and dataset written under ``tmp_path``."""
    state, data = TestMetricsCommand._state_inputs(tmp_path)
    return ["--estimate", state, "--target", state, "--metric", "concurrence",
            "--metric", "purity", "--metric", "fidelity", "--monte-carlo", "3",
            "--data", data, "--seed", "2"]


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

    @pytest.mark.parametrize("angle", ["pi/0", "0pi/0"])
    def test_zero_denominator_exit_code(self, capsys, angle):
        assert main(["gate", "--theta1", angle, "--theta2", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


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
        assert rep["status"] == "certified"
        assert 0.0 <= rep["gap"] <= MLEOptions.tol
        # the ideal channel leaves outcomes uncounted, so lambda_max(R) stops the fit
        assert rep["metadata"]["certificate"] == "gkg"
        out = capsys.readouterr().out
        assert "status = certified, certificate = gkg" in out and "nats" in out

    # sha256 of the reconstruct --out and --report files, recorded before the
    # fit loop was restructured: ideal GHZ counts leave outcomes uncounted
    # (``gkg``), calibrated-template noisy ones count every outcome
    # (``lagrangian``). The ``lagrangian`` pair was re-recorded when fits with
    # every outcome counted began with a damped Newton step: 11 steps to a
    # 0.10-nat gap became 2 steps to a 4.0e-5-nat gap, and the mean
    # log-likelihood rose by 4.1e-8 per count
    # (-2.737518139293464 -> -2.7375180982289056)
    @pytest.mark.parametrize("noise,mean,out_digest,report_digest", [
        pytest.param(None, "20000",
                     "6fc204482464fdb12b5131d08a756f25028c8164ae5af58e58d10985e5366b8f",
                     "5d5db72567882968dd584e5ef9cd45ca7cf32a1a27cda378d0b1ce8cfcc1822c", id="gkg"),
        pytest.param(DEFAULT_CHANNEL_TEMPLATE, "10000",
                     "1a6ab8b5383f6b5a68532f37103973c1e5125cf0f052a16764ce362534971f86",
                     "f7c9801b1fb0de40a975b402970b53b5b568aa64e3873d87eab160d7ec5d240a",
                     id="lagrangian"),
    ])
    def test_reconstruct_output_bytes(self, tmp_path, noise, mean, out_digest, report_digest):
        import hashlib
        argv = ["tomo", "simulate", "--preset", "ghz", "--mean-counts", mean, "--seed", "7"]
        if noise is not None:
            serialize.dump_json(serialize.noise_spec_to_json(noise), tmp_path / "noise.json")
            argv += ["--noise", str(tmp_path / "noise.json")]
        data, chi_out, report = tmp_path / "data.json", tmp_path / "chi.json", tmp_path / "r.json"
        assert main([*argv, "--out", str(data)]) == 0
        assert main(["tomo", "reconstruct", "--data", str(data),
                     "--out", str(chi_out), "--report", str(report)]) == 0
        certificate = json.loads(report.read_text())["metadata"]["certificate"]
        assert certificate == ("gkg" if noise is None else "lagrangian")
        assert [hashlib.sha256(path.read_bytes()).hexdigest() for path in (chi_out, report)] == [
            out_digest, report_digest]

    def test_same_seed_same_file(self, tmp_path):
        import hashlib
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            main(["tomo", "simulate", "--preset", "dicke", "--mean-counts", "500",
                  "--seed", "3", "--out", str(path)])
        assert a.read_text() == b.read_text()
        # sha256 recorded when datasets still stored a label per record: a
        # file keeps its record layout and bytes with frame-order counts
        assert hashlib.sha256(a.read_bytes()).hexdigest() == (
            "a423a76a010f97981fcabb3ce75a747d13f3bee548bf7ec09c515d662295470c")

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


def test_counts_whose_total_wraps_int64_exit_2(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["tomo", "simulate", "--preset", "cluster-identity", "--seed", "1",
                 "--out", "x.json", "--mean-counts", "6e16"]) == 2
    assert "exceeds the int64 range" in capsys.readouterr().err
    assert list(tmp_path.rglob("*.json")) == []


@pytest.mark.parametrize("phase", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("command", [
    ["tomo", "simulate", "--preset", "ghz", "--mean-counts", "100", "--seed", "1",
     "--out", "d.json"],
    ["reproduce", "table2-sim", "--seed", "1", "--samples", "2", "--out-dir", "out"],
], ids=["tomo-simulate", "reproduce-table2-sim"])
def test_non_finite_mode_phases_exit_2(tmp_path, monkeypatch, capsys, command, phase):
    monkeypatch.chdir(tmp_path)
    Path("bad.json").write_text(f'{{"mode_phases": [{phase}, 0, 0, 0]}}')
    assert main([*command, "--noise", "bad.json"]) == 2
    err = capsys.readouterr().err
    assert "phases must be finite" in err and "Traceback" not in err
    assert list(tmp_path.rglob("*.json")) == [tmp_path / "bad.json"]


@pytest.mark.parametrize("argv", [
    ["table1", "--noise", "n.json"],
    ["table1", "--ideal-channels"],
    ["entangler", "--ideal-channels"],
    ["table3", "--ideal-channels", "--noise", "n.json"],
], ids=["table1-noise", "table1-ideal-channels", "entangler-ideal-channels",
        "table3-ideal-channels-noise"])
def test_reproduce_flags_that_do_not_apply_exit_2(tmp_path, monkeypatch, capsys, argv):
    from convgate.noise import NoiseSpec
    monkeypatch.chdir(tmp_path)
    serialize.dump_json(serialize.noise_spec_to_json(NoiseSpec(depolarizing_p=0.1)), "n.json")
    assert main(["reproduce", *argv, "--seed", "1", "--samples", "2", "--out-dir", "out"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not Path("out").exists()


@pytest.mark.parametrize("argv,flag", [
    (["table1", "--seed", "4"], "seed"),
    (["table1", "--samples", "3"], "samples"),
    (["table1", "--mean-counts", "5"], "mean-counts"),
    (["table3", "--seed", "1", "--samples", "3"], "samples"),
    (["table3", "--seed", "1", "--mean-counts", "5"], "mean-counts"),
    (["table3", "--seed", "1"], "seed"),
], ids=["table1-seed", "table1-samples", "table1-mean-counts", "table3-samples",
        "table3-mean-counts", "table3-seed"])
def test_reproduce_flags_the_target_does_not_read_exit_2(tmp_path, monkeypatch, capsys,
                                                         argv, flag):
    monkeypatch.chdir(tmp_path)
    assert main(["reproduce", *argv, "--out-dir", "out"]) == 2
    assert f"does not read --{flag}" in capsys.readouterr().err
    assert not Path("out").exists()


def test_reproduce_table3_with_ideal_channels(tmp_path, capsys):
    assert main(["reproduce", "table3", "--ideal-channels", "--out-dir", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "table3.json").read_text())["metadata"]["channels"] == "ideal"


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


def _set_count(value):
    return lambda o: o["records"][0]["counts"].update({"00": value})


#: name -> (file kind, edit that makes the file malformed, extra flags of the
#: command reading it)
MALFORMED_INPUTS = {
    "count-abc": ("dataset", _set_count("abc")),
    "count-numeric-string": ("dataset", _set_count("12")),
    "count-fractional": ("dataset", _set_count(2.7)),
    "count-bool": ("dataset", _set_count(True)),
    "count-nan": ("dataset", _set_count(float("nan"))),
    "tol-nan": ("dataset", lambda o: None, "--tol", "nan"),
    "tol-inf": ("dataset", lambda o: None, "--tol", "inf"),
    "tol-zero": ("dataset", lambda o: None, "--tol", "0"),
    "tol-negative": ("dataset", lambda o: None, "--tol", "-1"),
    "max-iter-negative": ("dataset", lambda o: None, "--max-iter", "-1"),
    "mean-counts-abc": ("dataset", lambda o: o.update(mean_counts="abc")),
    "mean-counts-nan": ("dataset", lambda o: o.update(mean_counts=float("nan"))),
    "mean-counts-bool": ("dataset", lambda o: o.update(mean_counts=True)),
    "mean-counts-numeric-string": ("dataset", lambda o: o.update(mean_counts="1e2")),
    "count-overflow": ("dataset", _set_count(1e30)),
    "metadata-int": ("dataset", lambda o: o.update(metadata=5)),
    "success-scale-abc": ("choi", lambda o: o.update(success_scale="abc")),
    "success-scale-nan": ("choi", lambda o: o.update(success_scale=float("nan"))),
    "rows-x": ("choi", lambda o: o["matrix"].update(rows="x")),
    "entry-x": ("choi", lambda o: _set_entry(o["matrix"], "x")),
    "entry-nan": ("density", lambda o: _set_entry(o["data"], float("nan"))),
    "qubits-two": ("density", lambda o: o.update(qubits="two")),
    "convert-qubits-two": ("pure", lambda o: o.update(qubits="two")),
    "success-scale-bool": ("choi", lambda o: o.update(success_scale=True)),
    "success-scale-numeric-string": ("choi", lambda o: o.update(success_scale="1")),
    "rows-numeric-string": ("choi", lambda o: o["matrix"].update(rows="16")),
    "rows-fractional": ("choi", lambda o: o["matrix"].update(rows=16.5)),
    "entry-numeric-string": ("density", lambda o: _set_entry(o["data"], "0.25")),
    "entry-bool": ("density", lambda o: _set_entry(o["data"], True)),
    "qubits-fractional": ("density", lambda o: o.update(qubits=1.9)),
    "convert-qubits-fractional": ("pure", lambda o: o.update(qubits=2.5)),
    "seed-fractional": ("dataset", lambda o: o.update(seed=1.5)),
    "noise-depolarizing-bool": ("noise", lambda o: o.update(depolarizing_p=True)),
    "noise-dephasing-numeric-string": ("noise", lambda o: o.update(dephasing_p="0.1")),
    "noise-phase-bool": ("noise", lambda o: o["mode_phases"].__setitem__(0, True)),
    "noise-phase-numeric-string": ("noise", lambda o: o["mode_phases"].__setitem__(0, "0.3")),
    "trace-normalized-string": ("choi", lambda o: o.update(trace_normalized="false")),
    "trace-normalized-int": ("choi", lambda o: o.update(trace_normalized=0)),
    "qubits-mismatch": ("density", lambda o: o.update(qubits=3)),
    # 2^20000 has more digits than Python formats
    "qubits-huge": ("density", lambda o: o.update(qubits=20000)),
    "convert-qubits-huge": ("pure", lambda o: o.update(qubits=20000)),
    "records-empty": ("dataset", lambda o: o.update(records=[])),
    "record-repeated": ("dataset", lambda o: o["records"].__setitem__(1, o["records"][0])),
    "prep-unknown": ("dataset", lambda o: o["records"][0].update(prep=["Q", "H"])),
    "basis-unknown": ("dataset", lambda o: o["records"][0].update(basis=["W", "Z"])),
    "basis-unhashable": ("dataset", lambda o: o["records"][0].update(basis=[["Z"], "X"])),
    "state-basis-missing": ("dataset", lambda o: o.update(
        records=[r for r in o["records"] if r["prep"] == ["H", "H"]][:8])),
    "state-prep-unknown": ("dataset", lambda o: o.update(
        records=[dict(r, prep=["Q", "Q"]) for r in o["records"] if r["prep"] == ["H", "H"]])),
}
_READERS = {
    "dataset": ["tomo", "reconstruct", "--data", "input.json", "--out", "x.json"],
    "choi": ["metrics", "--estimate", "input.json", "--metric", "trace", "--out", "x.json"],
    "density": ["metrics", "--estimate", "input.json", "--metric", "trace", "--out", "x.json"],
    "pure": ["convert", "--preset", "ghz", "--state-in", "input.json", "--out", "x.json"],
    "noise": ["tomo", "simulate", "--preset", "ghz", "--mean-counts", "10", "--seed", "1",
              "--noise", "input.json", "--out", "x.json"],
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_files_exit_2(tmp_path, monkeypatch, capsys, case):
    from convgate.core import DensityMatrix, PureState
    from convgate.tomography import simulate_counts
    kind, edit, *flags = MALFORMED_INPUTS[case]
    chi = ideal_choi(GateSettings(0.0, np.pi / 4))
    obj = {"dataset": lambda: serialize.dataset_to_json(simulate_counts(chi, 100, seed=1)),
           "choi": lambda: serialize.choi_to_json(chi),
           "density": lambda: serialize.state_to_json(DensityMatrix.maximally_mixed(2)),
           "pure": lambda: serialize.state_to_json(PureState.from_labels("HH")),
           "noise": lambda: serialize.noise_spec_to_json(DEFAULT_CHANNEL_TEMPLATE)}[kind]()
    edit(obj)
    monkeypatch.chdir(tmp_path)
    Path("input.json").write_text(json.dumps(obj))
    assert main([*_READERS[kind], *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not Path("x.json").exists()


# (estimate, target, metric) of the calls that the kind rules alone make exit
# 2: each process metric needs two Choi files, and fidelity one kind for
# estimate and target. Without these rules the three process-fidelity-optimized
# calls here exited 1 with an AttributeError and the other five exited 0,
# comparing a 4-qubit state as if it were a process
CROSS_KIND_CALLS = (
    ("rho4", "rho4", "process-fidelity"),
    ("rho4", "rho4", "process-fidelity-optimized"),
    ("rho4", "choi", "fidelity"),
    ("rho4", "choi", "process-fidelity"),
    ("rho4", "choi", "process-fidelity-optimized"),
    ("choi", "rho4", "fidelity"),
    ("choi", "rho4", "process-fidelity"),
    ("choi", "rho4", "process-fidelity-optimized"),
)


def test_every_metrics_call_exits_with_a_documented_code(tmp_path, capsys):
    from convgate.core import DensityMatrix
    from convgate.gate import cluster_state_c4, discord_demo_input
    from convgate.metrics import METRIC_NAMES
    files = {
        "pure2": serialize.state_to_json(target_state("psi_plus")),
        "rho1": serialize.state_to_json(DensityMatrix.maximally_mixed(1)),
        "rho2": serialize.state_to_json(discord_demo_input()),
        "rho4": serialize.state_to_json(cluster_state_c4().density()),
        "choi": serialize.choi_to_json(ideal_choi(GateSettings(0.0, np.pi / 4))),
    }
    for name, obj in files.items():
        serialize.dump_json(obj, tmp_path / f"{name}.json")
    codes, undocumented = {}, []
    for estimate in files:
        for target in [None, *files]:
            for metric in METRIC_NAMES:
                argv = ["metrics", "--estimate", str(tmp_path / f"{estimate}.json"),
                        "--metric", metric]
                if target is not None:
                    argv += ["--target", str(tmp_path / f"{target}.json")]
                try:
                    code = main(argv)
                except Exception as exc:  # the installed command exits 1 with a traceback
                    code = f"1 ({type(exc).__name__}: {exc})"
                codes[estimate, target, metric] = code
                err = capsys.readouterr().err
                if code not in (0, 2, 3, 4) or "Traceback" in err:
                    undocumented.append((estimate, target, metric, code))
    assert len(codes) == 270
    assert undocumented == []
    assert [codes[call] for call in CROSS_KIND_CALLS] == [2] * len(CROSS_KIND_CALLS)


def _metrics_reading(path):
    return ["metrics", "--estimate", path, "--metric", "purity"]


#: name -> (command line reading or writing the path "target", what is made
#: at that path first)
UNUSABLE_FILES = {
    "metrics-estimate-missing": (_metrics_reading("target"), lambda path: None),
    "reconstruct-data-missing": (["tomo", "reconstruct", "--data", "target", "--out", "x.json"],
                                 lambda path: None),
    "metrics-estimate-directory": (_metrics_reading("target"), Path.mkdir),
    "metrics-estimate-binary": (_metrics_reading("target"),
                                lambda path: path.write_bytes(b"\xff\xfe\x00\x81")),
    "simulate-noise-binary": (["tomo", "simulate", "--preset", "ghz", "--mean-counts", "10",
                               "--seed", "1", "--noise", "target", "--out", "x.json"],
                              lambda path: path.write_bytes(b"\xff\xfe\x00\x81")),
    # deeper than the JSON parser's recursion limit
    "metrics-estimate-nested-too-deep": (
        _metrics_reading("target"), lambda path: path.write_text("[" * 10**5 + "]" * 10**5)),
    "reproduce-out-dir-is-a-file": (["reproduce", "table1", "--out-dir", "target"],
                                    lambda path: path.write_text("{}")),
    "reproduce-report-is-a-directory": (["reproduce", "table1", "--out-dir", "target"],
                                        lambda path: (path / "table1.json").mkdir(parents=True)),
    "gate-out-directory-missing": (["gate", "--preset", "ghz", "--out", "target/dir/g.json"],
                                   lambda path: None),
    "simulate-out-under-a-file": (["tomo", "simulate", "--preset", "ghz", "--mean-counts", "10",
                                   "--seed", "1", "--out", "target/x.json"],
                                  lambda path: path.write_text("{}")),
    "gate-out-is-a-directory": (["gate", "--preset", "ghz", "--out", "target"], Path.mkdir),
}


@pytest.mark.parametrize("case", list(UNUSABLE_FILES))
def test_a_file_that_cannot_be_read_or_written_exits_2(tmp_path, monkeypatch, capsys, case):
    argv, make = UNUSABLE_FILES[case]
    monkeypatch.chdir(tmp_path)
    make(Path("target"))
    assert main(argv) == 2
    err = capsys.readouterr().err
    (line,) = [line for line in err.splitlines() if line.startswith("error: ")]
    assert "target" in line and "Traceback" not in err


#: name -> command line writing one output, "missing/x.json", in a directory
#: that does not exist; ``tomo-reconstruct-report`` could write its --out
UNWRITABLE_OUTPUTS = {
    "gate": ["gate", "--preset", "ghz", "--out", "missing/x.json"],
    "convert": ["convert", "--preset", "ghz", "--out", "missing/x.json"],
    "tomo-simulate": ["tomo", "simulate", "--preset", "ghz", "--mean-counts", "10", "--seed", "1",
                      "--out", "missing/x.json"],
    "tomo-reconstruct-out": ["tomo", "reconstruct", "--data", "data.json",
                             "--out", "missing/x.json"],
    "tomo-reconstruct-report": ["tomo", "reconstruct", "--data", "data.json", "--out", "chi.json",
                                "--report", "missing/x.json"],
    "metrics": ["metrics", "--estimate", "estimate.json", "--metric", "purity",
                "--out", "missing/x.json"],
}


@pytest.mark.parametrize("case", list(UNWRITABLE_OUTPUTS))
def test_an_unwritable_output_fails_before_the_work(tmp_path, monkeypatch, capsys, case):
    # no result line is printed and no file written, not even a paired --out
    from convgate.tomography import simulate_counts
    monkeypatch.chdir(tmp_path)
    chi = ideal_choi(GateSettings(0.0, np.pi / 4))
    serialize.dump_json(serialize.choi_to_json(chi), "estimate.json")
    serialize.dump_json(serialize.dataset_to_json(simulate_counts(chi, 10, seed=1)), "data.json")
    inputs = sorted(tmp_path.iterdir())

    def work(*args, **kwargs):
        raise AssertionError("the command simulated or fitted before checking its output")
    for name in ("simulate_counts", "reconstruct"):
        monkeypatch.setattr(tomography, name, work)
    assert main(UNWRITABLE_OUTPUTS[case]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write missing/x.json: No such file or directory\n"
    assert sorted(tmp_path.iterdir()) == inputs


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

    def test_optimized_phases_reach_the_printed_value(self, tmp_path, capsys):
        from convgate.metrics import PhaseCorrection, process_fidelity
        from convgate.noise import NoiseSpec, apply_noise
        chi = ideal_choi(GateSettings(0.0, np.pi / 4))
        estimate = apply_noise(chi, NoiseSpec(
            depolarizing_p=0.1, mode_phases=PhaseCorrection((0.4, 2.5, 1.3, 5.0))))
        serialize.dump_json(serialize.choi_to_json(estimate), tmp_path / "est.json")
        serialize.dump_json(serialize.choi_to_json(chi), tmp_path / "target.json")
        out = tmp_path / "metrics.json"
        assert main(["metrics", "--estimate", str(tmp_path / "est.json"),
                     "--target", str(tmp_path / "target.json"),
                     "--metric", "process-fidelity-optimized", "--out", str(out)]) == 0
        printed = float(capsys.readouterr().out.split(" = ")[1].split()[0])
        (report,) = json.loads(out.read_text())["metrics"]
        corrected = apply_noise(estimate, NoiseSpec(
            mode_phases=PhaseCorrection(tuple(report["metadata"]["phases"]))))
        target = serialize.choi_from_json(serialize.load_json(tmp_path / "target.json"))
        assert abs(process_fidelity(corrected, target) - printed) <= 1e-9

    def test_optimized_fidelity_of_two_mixed_matrices_exits_2(self, tmp_path, capsys):
        from convgate.metrics import PhaseCorrection
        from convgate.noise import NoiseSpec, apply_noise
        chi = ideal_choi(GateSettings(0.0, np.pi / 4))
        estimate = apply_noise(chi, NoiseSpec(
            depolarizing_p=0.1, mode_phases=PhaseCorrection((0.4, 2.5, 1.3, 5.0))))
        serialize.dump_json(serialize.choi_to_json(estimate), tmp_path / "est.json")
        serialize.dump_json(serialize.choi_to_json(
            apply_noise(chi, NoiseSpec(depolarizing_p=0.2))), tmp_path / "target.json")
        out = tmp_path / "metrics.json"
        argv = ["metrics", "--estimate", str(tmp_path / "est.json"),
                "--target", str(tmp_path / "target.json"), "--out", str(out)]
        assert main([*argv, "--metric", "process-fidelity",
                     "--metric", "process-fidelity-optimized"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "pure estimate or target" in err
        assert "Traceback" not in err
        assert not out.exists()
        # the raw fidelity of the same pair is still defined
        assert main([*argv, "--metric", "process-fidelity"]) == 0

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

    # sha256 of the --out files. The state digest was first that of the
    # per-metric Monte Carlo loop this command replaced. The process digest was
    # re-recorded when the R-rho-R fit began contracting the preparation and
    # projector stacks, and again when the phase search became one Nelder-Mead
    # refinement (the process-fidelity-optimized std moved by 7.9e-17). Both
    # were re-recorded when the certified projected-gradient fit replaced
    # R-rho-R (stds moved by at most 1.3e-5). The process digest was
    # re-recorded again when the simulation began setting Poisson means within
    # PROBABILITY_WINDOW of zero to exactly zero, which re-drew the ideal GHZ
    # counts (values unchanged, stds moved by at most 1.6e-5), and again when
    # Newton steps on the fidelity polynomial replaced the phase search's
    # Nelder-Mead refinement (the process-fidelity-optimized std moved by
    # 7.9e-17), and again when the phase search took its pure-pair polynomial
    # from the overlap Tr[D chi D^dag chi_th] (that std moved back by 7.9e-17).
    # Both were re-recorded when fits given no start began at their projected
    # least-squares estimate (values unchanged, stds moved by at most 7.0e-6).
    # test_report_values.py bounds how far their values moved.
    @pytest.mark.parametrize("kind,digest", [
        pytest.param("state", "0eee830b68667241f2902c519b7aec50eed59cf32551c687f420872f7147e005",
                     id="state"),
        pytest.param("process", "90a1dc53aee2242775235b2cff14ca0c3c910acca67114854d9bf923e2ef33cd",
                     id="process"),
    ])
    def test_seeded_monte_carlo_report_bytes(self, tmp_path, kind, digest):
        import hashlib
        out = tmp_path / "m.json"
        argv = (state_monte_carlo_argv if kind == "state" else process_monte_carlo_argv)(tmp_path)
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
