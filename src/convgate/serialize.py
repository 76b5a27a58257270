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
            (outcome bit 0 selects the first-listed basis state H/+/R)
* noise:    {"depolarizing_p": x, "dephasing_p": y,
             "mode_phases": [p1, p2, p3, p4]}
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


def _from_entries(entries, rows: int, cols: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=float)
    if arr.shape != (rows * cols, 2):
        raise InvalidArgumentError(
            f"expected {rows * cols} [re, im] entries, got shape {arr.shape}")
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(rows, cols)


def matrix_to_json(matrix: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return {"rows": m.shape[0], "cols": m.shape[1], "entries": _entries(m)}


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        return _from_entries(obj["entries"], int(obj["rows"]), int(obj["cols"]))
    except (KeyError, TypeError) as exc:
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
        qubits = int(obj["qubits"])
        data = obj["data"]
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed state object: {exc}") from None
    if kind == "pure":
        amps = _from_entries(data, 2**qubits, 1).ravel()
        return PureState(amps)
    if kind == "density":
        return DensityMatrix(matrix_from_json(data))
    raise InvalidArgumentError(f"unknown state kind {kind!r}")


def choi_to_json(chi: ChoiProcess) -> dict:
    return {
        "kind": "choi",
        "matrix": matrix_to_json(chi.choi),
        "success_scale": chi.success_scale,
    }


def choi_from_json(obj: dict) -> ChoiProcess:
    try:
        matrix = matrix_from_json(obj["matrix"])
        scale = float(obj["success_scale"])
        normalized = bool(obj.get("trace_normalized", True))
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed process object: {exc}") from None
    if not normalized:
        trace = float(np.trace(matrix).real)
        if trace < NORM_FLOOR:
            raise DegenerateOutcomeError("Choi matrix has vanishing trace", 0.0)
        matrix, scale = matrix / trace, trace / 4.0
    return ChoiProcess(matrix, success_scale=scale)


def dataset_to_json(data: CoincidenceDataset) -> dict:
    records = []
    for prep, basis, counts in zip(data.preps, data.bases, data.counts):
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
        records = obj["records"]
        preps, bases, counts = [], [], []
        for rec in records:
            prep = rec["prep"]
            preps.append(tuple(prep) if prep is not None else None)
            bases.append(tuple(rec["basis"]))
            counts.append([int(rec["counts"][key]) for key in OUTCOME_KEYS])
    except (KeyError, TypeError) as exc:
        raise InvalidArgumentError(f"malformed dataset object: {exc}") from None
    mean_counts = obj.get("mean_counts")
    return CoincidenceDataset(
        preps=preps,
        bases=bases,
        counts=np.asarray(counts, dtype=np.int64),
        mean_counts=float(mean_counts) if mean_counts is not None else None,
        seed=obj.get("seed"),
        metadata=dict(obj.get("metadata", {})),
    )


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
            depolarizing_p=float(obj.get("depolarizing_p", 0.0)),
            dephasing_p=float(obj.get("dephasing_p", 0.0)),
            mode_phases=PhaseCorrection(tuple(phases)) if phases else None,
        )
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed noise spec: {exc}") from None


def dump_json(obj: dict, path) -> None:
    Path(path).write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def load_json(path) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise InvalidArgumentError(f"{path} is not valid JSON: {exc}") from None
