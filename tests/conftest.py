import numpy as np
import pytest

from convgate.core import DensityMatrix, PureState
from convgate.errors import InvalidArgumentError


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_pure_state(rng, qubits=2) -> PureState:
    v = rng.normal(size=2**qubits) + 1j * rng.normal(size=2**qubits)
    return PureState(v / np.linalg.norm(v))


def random_density_matrix(rng, qubits=2, rank=None) -> DensityMatrix:
    """Ginibre-random mixed state."""
    d = 2**qubits
    rank = rank or d
    a = rng.normal(size=(d, rank)) + 1j * rng.normal(size=(d, rank))
    m = a @ a.conj().T
    return DensityMatrix(m / np.trace(m).real, validate=False)


def random_unitary(rng, d=4) -> np.ndarray:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def expand_operator(op, n_qubits: int, targets) -> np.ndarray:
    """Oracle: the k-qubit operator on ``targets`` as a full 2^n x 2^n matrix,
    formed as op (x) 1 and a permutation of its 2n qubit axes."""
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise InvalidArgumentError(f"repeated target indices {targets}")
    if any(t < 0 or t >= n_qubits for t in targets):
        raise InvalidArgumentError(f"targets {targets} out of range for {n_qubits} qubits")
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise InvalidArgumentError(f"operator shape {op.shape} does not act on {k} qubits")
    if k == n_qubits and targets == sorted(targets):
        order = targets
        full = op
    else:
        order = targets + [q for q in range(n_qubits) if q not in targets]
        full = np.kron(op, np.eye(2 ** (n_qubits - k), dtype=complex))
    pos = list(np.argsort(order))
    t = full.reshape((2,) * (2 * n_qubits))
    t = np.transpose(t, pos + [n_qubits + p for p in pos])
    return t.reshape(2**n_qubits, 2**n_qubits)
