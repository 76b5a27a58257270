import hashlib
import json

import numpy as np
import pytest

from convgate import serialize
from convgate.core import ChoiProcess, DensityMatrix, PureState
from convgate.errors import DegenerateOutcomeError, InvalidArgumentError
from convgate.gate import GateSettings, cluster_state_c4, ideal_choi, target_state
from convgate.metrics import PhaseCorrection
from convgate.noise import NoiseSpec, apply_noise
from convgate.tomography import simulate_counts, simulate_state_counts

from conftest import random_density_matrix


def test_matrix_round_trip(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    back = serialize.matrix_from_json(serialize.matrix_to_json(m))
    assert (back == m).all()  # repr round trip is exact


def test_matrix_survives_json_text(rng):
    m = rng.normal(size=(3, 3)) / 3.0
    text = json.dumps(serialize.matrix_to_json(m))
    back = serialize.matrix_from_json(json.loads(text))
    assert (back == m).all()


def test_pure_state_round_trip():
    psi = cluster_state_c4()
    back = serialize.state_from_json(serialize.state_to_json(psi))
    assert isinstance(back, PureState)
    assert (back.amplitudes == psi.amplitudes).all()


def test_density_round_trip(rng):
    rho = random_density_matrix(rng, 2)
    back = serialize.state_from_json(serialize.state_to_json(rho))
    assert isinstance(back, DensityMatrix)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-15


def test_choi_round_trip():
    chi = ideal_choi(GateSettings(0.0, np.pi / 4))
    back = serialize.choi_from_json(serialize.choi_to_json(chi))
    assert isinstance(back, ChoiProcess)
    assert (back.choi == chi.choi).all()
    assert back.success_scale == chi.success_scale



def test_choi_json_has_no_normalization_flag():
    obj = serialize.choi_to_json(ideal_choi(GateSettings(0.0, np.pi / 4)))
    assert set(obj) == {"kind", "matrix", "success_scale"}


def test_legacy_unnormalized_choi_loads_to_same_channel():
    chi = apply_noise(ideal_choi(GateSettings(np.pi / 3, 0.0)),
                              NoiseSpec(0.2, 0.1, PhaseCorrection((0.1, 0.2, 0.3, 0.4))))
    legacy = chi.unnormalized()
    obj = {"kind": "choi", "matrix": serialize.matrix_to_json(legacy),
           "success_scale": 0.123, "trace_normalized": False}
    back = serialize.choi_from_json(obj)
    assert np.abs(back.unnormalized() - legacy).max() < 1e-12
    assert np.trace(back.choi).real == pytest.approx(1.0, abs=1e-12)
    assert back.success_scale == pytest.approx(np.trace(legacy).real / 4.0, abs=1e-15)
    with pytest.raises(DegenerateOutcomeError):
        serialize.choi_from_json(dict(obj, matrix=serialize.matrix_to_json(np.zeros((16, 16)))))


def test_dataset_round_trip():
    chi = ideal_choi(GateSettings(0.0, np.pi / 4))
    data = simulate_counts(chi, 500, seed=3)
    back = serialize.dataset_from_json(serialize.dataset_to_json(data))
    assert (back.counts == data.counts).all()
    assert back.preps == data.preps
    assert back.bases == data.bases
    assert back.mean_counts == data.mean_counts
    assert back.seed == data.seed


def test_dataset_integral_float_count_read():
    data = simulate_counts(ideal_choi(GateSettings(0.0, 0.0)), 100, seed=1)
    obj = serialize.dataset_to_json(data)
    obj["records"][0]["counts"]["00"] = float(data.counts[0, 0, 0])
    assert (serialize.dataset_from_json(obj).counts == data.counts).all()


def test_dataset_schema_shape():
    chi = ideal_choi(GateSettings(0.0, 0.0))
    data = simulate_counts(chi, 100, seed=1)
    obj = serialize.dataset_to_json(data)
    record = obj["records"][0]
    assert record["prep"] == ["H", "H"]
    assert record["basis"] == ["Z", "Z"]
    assert set(record["counts"]) == {"00", "01", "10", "11"}


def test_state_dataset_file_bytes(tmp_path):
    # sha256 recorded when datasets still stored a label per record: a file
    # keeps its record layout and bytes now that they hold frame-order counts
    data = simulate_state_counts(target_state("psi_plus").density(), 0.5, 1e3, seed=16)
    serialize.dump_json(serialize.dataset_to_json(data), tmp_path / "data.json")
    assert hashlib.sha256((tmp_path / "data.json").read_bytes()).hexdigest() == (
        "0acbec996b3fadb2406292aadcd76447218bd868625ffe5bb9f140943a0e2096")


def test_one_preparation_file_loads_as_a_state_dataset():
    data = simulate_counts(ideal_choi(GateSettings(0.0, np.pi / 4)), 100, seed=1)
    obj = serialize.dataset_to_json(data)
    obj["records"] = [rec for rec in obj["records"] if rec["prep"] == ["+", "H"]][::-1]
    back = serialize.dataset_from_json(obj)
    assert np.array_equal(back.counts, data.restrict_to(("+", "H")).counts)
    # the preparation label is not kept: a dump writes it as null
    assert [rec["prep"] for rec in serialize.dataset_to_json(back)["records"]] == [None] * 9


def test_noise_spec_round_trip():
    spec = NoiseSpec(0.25, 0.1, PhaseCorrection((0.1, 0.2, 0.3, 0.4)))
    back = serialize.noise_spec_from_json(serialize.noise_spec_to_json(spec))
    assert back == spec
    none_phases = NoiseSpec(0.5, 0.0, None)
    assert serialize.noise_spec_from_json(
        serialize.noise_spec_to_json(none_phases)) == none_phases


def test_malformed_inputs_rejected():
    with pytest.raises(InvalidArgumentError):
        serialize.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(InvalidArgumentError):
        serialize.state_from_json({"qubits": 2, "kind": "sparse", "data": []})
    with pytest.raises(InvalidArgumentError):
        serialize.dataset_from_json({"records": [{"prep": ["H", "H"]}]})


def test_dump_and_load(tmp_path, rng):
    m = rng.normal(size=(2, 2))
    path = tmp_path / "m.json"
    serialize.dump_json(serialize.matrix_to_json(m), path)
    assert (serialize.matrix_from_json(serialize.load_json(path)) == m).all()


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(InvalidArgumentError):
        serialize.load_json(path)
