"""JSON file schemas shared by the CLI and the pipelines.

All floats are IEEE doubles serialized with Python's shortest round-trip
``repr`` (at least 15 significant digits). Schemas:

* matrix:   {"rows": N, "cols": N, "entries": [[re, im], ...]} row-major
* state:    {"qubits": n, "kind": "pure"|"density", "data": ...}
            (amplitudes as [[re, im], ...] for pure, a matrix object for
            density)
* process:  {"kind": "choi", "matrix": <matrix>, "success_scale": s}
            with a unit-trace matrix; a legacy file marked
            "trace_normalized": false holds the unnormalized matrix and is
            normalized at load (success_scale = trace / 4)
* dataset:  {"mean_counts": x, "seed": s, "records": [{"prep": ["H", "+"],
             "basis": ["Z", "X"], "counts": {"00": n, ...}}, ...]}
            (outcome bit 0 selects the first-listed basis state H/+/R);
            read in any record order, written in frame order, with "prep"
            null for every record of one preparation
* noise:    {"depolarizing_p": x, "dephasing_p": y,
             "mode_phases": [p1, p2, p3, p4]}

Every number is a finite JSON int or float, never a bool or a string; counts,
sizes, qubit numbers and seeds are also integral. ``trace_normalized`` is a
JSON bool, and a state has 2^qubits amplitudes or rows. A breach exits 2.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import NORM_FLOOR, ChoiProcess, DensityMatrix, PureState
from .errors import DegenerateOutcomeError, InvalidArgumentError
from .metrics import PhaseCorrection
from .noise import NoiseSpec
from .tomography import OUTCOME_KEYS, CoincidenceDataset


def _entries(matrix: np.ndarray) -> list[list[float]]:
    flat = np.asarray(matrix, dtype=complex).ravel()
    return [[float(z.real), float(z.imag)] for z in flat]


def _number(value, what: str) -> float:
    """A finite JSON int or float; float() would also read a bool or a string."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, not {value!r}")
    if not np.isfinite(float(value)):
        raise ValueError(f"{what} must be finite, got {value!r}")
    return float(value)


def _count(value, what: str) -> int:
    """A JSON integer: an int or an integral float such as 12.0, never rounded."""
    if _number(value, what) != int(value):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _flag(value, what: str) -> bool:
    """A JSON bool; bool() would also read the string "false" as true."""
    if not isinstance(value, bool):
        raise ValueError(f"{what} must be true or false, not {value!r}")
    return value


def _from_entries(entries, rows: int, cols: int) -> np.ndarray:
    try:
        arr = np.array([[_number(x, "entries") for x in pair] for pair in entries], dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed [re, im] entries: {exc}") from None
    if arr.shape != (rows * cols, 2):
        raise InvalidArgumentError(
            f"expected {rows * cols} [re, im] entries, got shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def matrix_to_json(matrix: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": _entries(m)}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        rows, cols = _count(obj["rows"], "rows"), _count(obj["cols"], "cols")
        return _from_entries(obj["entries"], rows, cols)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed matrix object: {exc}") from None


def state_to_json(state: PureState | DensityMatrix) -> dict:
    if isinstance(state, PureState):
        return {
            "qubits": state.qubits,
            "kind": "pure",
            "data": _entries(state.amplitudes),
        }
    if isinstance(state, DensityMatrix):
        return {
            "qubits": state.qubits,
            "kind": "density",
            "data": matrix_to_json(state.matrix),
        }
    raise InvalidArgumentError(f"cannot serialize {type(state).__name__} as a state")


def state_from_json(obj: dict) -> PureState | DensityMatrix:
    try:
        kind = obj["kind"]
        qubits = _count(obj["qubits"], "qubits")
        data = obj["data"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed state object: {exc}") from None
    if kind == "pure":
        # a list's own length, so that data of any other type fails as entries
        size = len(data) if isinstance(data, list) else 0
        matrix, holds = _from_entries(data, size, 1), "pure state has {} amplitudes"
    elif kind == "density":
        matrix, holds = matrix_from_json(data), "density matrix has {} rows"
    else:
        raise InvalidArgumentError(f"unknown state kind {kind!r}")
    rows = matrix.shape[0]
    # rows = 2^qubits, tested without forming the power: a huge qubits would
    # make one too large to format or to hold
    if rows & (rows - 1) or rows.bit_length() != qubits + 1:
        raise InvalidArgumentError(f"{holds.format(rows)}, not 2^{qubits} for {qubits} qubits")
    return PureState(matrix.ravel()) if kind == "pure" else DensityMatrix(matrix)


def choi_to_json(chi: ChoiProcess) -> dict:
    return {
        "kind": "choi",
        "matrix": matrix_to_json(chi.choi),
        "success_scale": chi.success_scale,
    }


def choi_from_json(obj: dict) -> ChoiProcess:
    try:
        matrix = matrix_from_json(obj["matrix"])
        scale = _number(obj["success_scale"], "success_scale")
        normalized = _flag(obj.get("trace_normalized", True), "trace_normalized")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed process object: {exc}") from None
    if not normalized:
        trace = float(np.trace(matrix).real)
        if trace < NORM_FLOOR:
            raise DegenerateOutcomeError("Choi matrix has vanishing trace")
        matrix, scale = matrix / trace, trace / 4.0
    return ChoiProcess(matrix, success_scale=scale)


def dataset_to_json(data: CoincidenceDataset) -> dict:
    records = []
    for prep, basis, counts in zip(data.preps, data.bases, data.counts.reshape(-1, 4)):
        records.append({
            "prep": list(prep) if prep is not None else None,
            "basis": list(basis),
            "counts": {key: int(c) for key, c in zip(OUTCOME_KEYS, counts)},
        })
    return {
        "mean_counts": data.mean_counts,
        "seed": data.seed,
        "records": records,
        "metadata": dict(data.metadata),
    }


def dataset_from_json(obj: dict) -> CoincidenceDataset:
    try:
        preps, bases, counts = [], [], []
        for rec in obj["records"]:
            preps.append(None if rec["prep"] is None else tuple(rec["prep"]))
            bases.append(tuple(rec["basis"]))
            counts.append([_count(rec["counts"][key], "counts") for key in OUTCOME_KEYS])
        mean_counts, seed = obj.get("mean_counts"), obj.get("seed")
        mean_counts = _number(mean_counts, "mean_counts") if mean_counts is not None else None
        seed = _count(seed, "seed") if seed is not None else None
        metadata = dict(obj.get("metadata", {}))
        # an unhashable label fails here with a TypeError
        return CoincidenceDataset.from_records(preps, bases, counts, mean_counts=mean_counts,
                                               seed=seed, metadata=metadata)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed dataset object: {exc}") from None


def noise_spec_to_json(spec: NoiseSpec) -> dict:
    return {
        "depolarizing_p": spec.depolarizing_p,
        "dephasing_p": spec.dephasing_p,
        "mode_phases": list(spec.mode_phases.phases) if spec.mode_phases else None,
    }


def noise_spec_from_json(obj: dict) -> NoiseSpec:
    try:
        phases = obj.get("mode_phases")
        return NoiseSpec(
            depolarizing_p=_number(obj.get("depolarizing_p", 0.0), "depolarizing_p"),
            dephasing_p=_number(obj.get("dephasing_p", 0.0), "dephasing_p"),
            mode_phases=(PhaseCorrection(tuple(_number(p, "phases") for p in phases))
                         if phases else None),
        )
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed noise spec: {exc}") from None


def dump_json(obj: dict, path) -> None:
    try:
        Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise InvalidArgumentError(f"cannot write {path}: {exc.strerror}") from None


def load_json(path) -> dict:
    try:
        obj = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidArgumentError(f"{path} is not valid JSON: {exc}") from None
    except OSError as exc:
        raise InvalidArgumentError(f"cannot read {path}: {exc.strerror}") from None
    if not isinstance(obj, dict):
        raise InvalidArgumentError(f"{path} must hold a JSON object, not {type(obj).__name__}")
    return obj
