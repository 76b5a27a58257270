"""Dense complex linear algebra and state/channel primitives for few-qubit systems.

Conventions used throughout the package:

* single-qubit basis |H> = (1, 0), |V> = (0, 1),
* n-qubit basis states ordered lexicographically (|HH>, |HV>, |VH>, |VV>),
  qubit 0 being the most significant position,
* Choi matrices live on H_in (x) H_out with basis |ab>_in |cd>_out and are
  stored with unit trace next to a separate success scale, so that the
  channel action is rho_out = Tr_in[(rho_in^T (x) 1) chi_unnormalized] and
  the identity channel succeeds with probability 1 on every input.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateOutcomeError, InvalidArgumentError, NumericalDomainError

# Shared tolerances. Eigenvalues in [-EIG_CLAMP, 0) are clamped to zero;
# anything below -EIG_CLAMP is treated as a hard numerical-domain failure.
ATOL_HERMITIAN = 1e-10
ATOL_TRACE = 1e-10
EIG_CLAMP = 1e-10
NORM_FLOOR = 1e-14

KET_H = np.array([1.0, 0.0], dtype=complex)
KET_V = np.array([0.0, 1.0], dtype=complex)
KET_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
KET_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
KET_R = np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0)
KET_L = np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0)

SINGLE_QUBIT_KETS = {
    "H": KET_H,
    "V": KET_V,
    "+": KET_PLUS,
    "-": KET_MINUS,
    "R": KET_R,
    "L": KET_L,
}

IDENTITY_2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def hermiticity_defect(m: np.ndarray) -> float:
    """Largest entrywise deviation of a square matrix from its adjoint."""
    m = np.asarray(m)
    return float(np.abs(m - m.conj().T).max())


def _qubit_count(dim: int, what: str) -> int:
    n = int(round(np.log2(dim)))
    if 2**n != dim or n < 1:
        raise InvalidArgumentError(f"{what} dimension {dim} is not a power of two >= 2")
    return n


class PureState:
    """Pure state of 1..4 polarization qubits as a dense amplitude vector.

    Amplitudes may carry a norm below one (the result of a post-selected,
    trace-decreasing operation); norms above one are rejected.
    """

    __slots__ = ("amplitudes", "qubits")

    def __init__(self, amplitudes, *, normalize: bool = False):
        amps = np.asarray(amplitudes, dtype=complex).ravel().copy()
        n = _qubit_count(amps.size, "state vector")
        if n > 4:
            raise InvalidArgumentError(f"at most 4 qubits supported, got {n}")
        norm_sq = float(np.vdot(amps, amps).real)
        if normalize:
            if norm_sq < NORM_FLOOR:
                raise DegenerateOutcomeError("cannot normalize a vanishing state", 0.0)
            amps = amps / np.sqrt(norm_sq)
        elif norm_sq > 1.0 + 1e-12:
            raise InvalidArgumentError(
                f"squared norm {norm_sq} exceeds 1; post-selection can only shrink the norm"
            )
        self.amplitudes = amps
        self.qubits = n

    @classmethod
    def from_labels(cls, labels: str) -> "PureState":
        """Product state from per-qubit labels, e.g. ``"H+"`` or ``"--"``."""
        try:
            kets = [SINGLE_QUBIT_KETS[c] for c in labels]
        except KeyError as exc:
            raise InvalidArgumentError(f"unknown state label {exc.args[0]!r}") from None
        if not kets:
            raise InvalidArgumentError("empty label string")
        amps = kets[0]
        for ket in kets[1:]:
            amps = np.kron(amps, ket)
        return cls(amps)

    @property
    def norm_squared(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other> of the raw amplitude vectors."""
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def density(self) -> "DensityMatrix":
        """Unit-trace density matrix of the normalized amplitudes."""
        state, _ = normalize_state(self)
        return DensityMatrix(np.outer(state.amplitudes, state.amplitudes.conj()), validate=False)

    def __repr__(self):
        return f"PureState(qubits={self.qubits}, norm²={self.norm_squared:.6g})"


class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix on n qubits."""

    __slots__ = ("matrix", "qubits")

    def __init__(self, matrix, *, validate: bool = True):
        m = np.asarray(matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidArgumentError(f"density matrix must be square, got shape {m.shape}")
        self.qubits = _qubit_count(m.shape[0], "density matrix")
        if validate:
            defect = hermiticity_defect(m)
            if defect > ATOL_HERMITIAN:
                raise NumericalDomainError(f"matrix is not Hermitian (defect {defect:.3e})")
            tr = complex(np.trace(m))
            if abs(tr - 1.0) > ATOL_TRACE:
                raise NumericalDomainError(f"trace {tr} differs from 1")
            low = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
            if low < -EIG_CLAMP:
                raise NumericalDomainError(f"matrix has eigenvalue {low:.3e} below -{EIG_CLAMP}")
        # store the exactly Hermitian part so downstream eigh calls are stable
        self.matrix = (m + m.conj().T) / 2.0

    @classmethod
    def maximally_mixed(cls, qubits: int) -> "DensityMatrix":
        d = 2**qubits
        return cls(np.eye(d, dtype=complex) / d, validate=False)

    def __repr__(self):
        return f"DensityMatrix(qubits={self.qubits})"


class ChoiProcess:
    """Two-qubit channel as a 16x16 matrix on H_in (x) H_out.

    The stored matrix is unit trace; ``success_scale`` carries the
    trace-decreasing part, normalized so the identity channel has scale 1.
    """

    __slots__ = ("choi", "success_scale")

    def __init__(self, choi, success_scale: float = 1.0, *, validate: bool = True):
        m = np.asarray(choi, dtype=complex)
        if m.shape != (16, 16):
            raise InvalidArgumentError(f"Choi matrix must be 16x16, got shape {m.shape}")
        if success_scale < 0:
            raise InvalidArgumentError("success_scale must be nonnegative")
        if validate:
            defect = hermiticity_defect(m)
            if defect > ATOL_HERMITIAN:
                raise NumericalDomainError(f"Choi matrix is not Hermitian (defect {defect:.3e})")
            low = float(np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
            if low < -EIG_CLAMP:
                raise NumericalDomainError(f"Choi matrix eigenvalue {low:.3e} below -{EIG_CLAMP}")
            if abs(complex(np.trace(m)) - 1.0) > ATOL_TRACE:
                raise NumericalDomainError(f"stored Choi trace {np.trace(m)} differs from 1")
        self.choi = (m + m.conj().T) / 2.0
        self.success_scale = float(success_scale)

    def unnormalized(self) -> np.ndarray:
        """Choi matrix scaled so that rho_out = Tr_in[(rho^T (x) 1) chi]."""
        return 4.0 * self.success_scale * self.choi

    def kraus_operators(self, tol: float = 1e-12) -> list[np.ndarray]:
        """Kraus decomposition of the (unnormalized) channel action."""
        vals, vecs = np.linalg.eigh(self.unnormalized())
        vals = clamp_spectrum(vals)
        ops = []
        for lam, vec in zip(vals, vecs.T):
            if lam > tol:
                ops.append(np.sqrt(lam) * vec.reshape(4, 4).T)
        return ops

    def __repr__(self):
        return f"ChoiProcess(success_scale={self.success_scale:.6g})"


def clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in [-EIG_CLAMP, 0) to zero; reject anything lower."""
    low = float(values.min())
    if low < -EIG_CLAMP:
        raise NumericalDomainError(f"eigenvalue {low:.3e} below the -{EIG_CLAMP} clamp window")
    return np.clip(values, 0.0, None)


def tensor_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product in the row-major lexicographic basis convention."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(m: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the kept qubits (ascending index order)."""
    n = m.qubits
    kept = sorted(set(int(q) for q in keep))
    if not kept or len(kept) == n:
        raise InvalidArgumentError("keep must be a nonempty strict subset of the qubits")
    if kept[0] < 0 or kept[-1] >= n:
        raise InvalidArgumentError(f"qubit indices {kept} out of range for {n} qubits")
    row = [chr(ord("a") + q) for q in range(n)]
    col = [chr(ord("a") + n + q) if q in kept else row[q] for q in range(n)]
    out = [row[q] for q in kept] + [col[q] for q in kept]
    spec = "".join(row + col) + "->" + "".join(out)
    t = m.matrix.reshape((2,) * (2 * n))
    k = len(kept)
    reduced = np.einsum(spec, t).reshape(2**k, 2**k)
    return DensityMatrix(reduced, validate=False)


def partial_transpose(m: DensityMatrix, subsystem: int) -> np.ndarray:
    """Transpose on one qubit of a two-qubit state; Hermitian, possibly non-PSD."""
    if m.qubits != 2:
        raise InvalidArgumentError("partial transpose is defined here for two-qubit states only")
    if subsystem not in (0, 1):
        raise InvalidArgumentError("subsystem must be 0 or 1")
    t = m.matrix.reshape(2, 2, 2, 2)
    if subsystem == 0:
        t = t.transpose(2, 1, 0, 3)
    else:
        t = t.transpose(0, 3, 2, 1)
    return t.reshape(4, 4)


def matrix_sqrt(m: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root via eigendecomposition."""
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > 1e-8:
        raise NumericalDomainError(f"matrix_sqrt needs a Hermitian input (defect {defect:.3e})")
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    vals = clamp_spectrum(vals)
    return (vecs * np.sqrt(vals)) @ vecs.conj().T


def expand_operator(op: np.ndarray, n_qubits: int, targets) -> np.ndarray:
    """Embed a k-qubit operator acting on ``targets`` into the n-qubit space."""
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


def apply_operator(state: PureState, op: np.ndarray, targets=None) -> PureState:
    """Apply a (possibly trace-decreasing) operator to a pure state.

    The output keeps its post-selection norm; callers decide when to
    renormalize.
    """
    if targets is None:
        full = np.asarray(op, dtype=complex)
        if full.shape != (2**state.qubits,) * 2:
            raise InvalidArgumentError("operator dimension does not match the state")
    else:
        full = expand_operator(op, state.qubits, targets)
    return PureState(full @ state.amplitudes)


def normalize_state(s: PureState) -> tuple[PureState, float]:
    """Unit-norm copy of the state plus the pre-normalization squared norm."""
    norm_sq = s.norm_squared
    if norm_sq < NORM_FLOOR:
        raise DegenerateOutcomeError("post-selection succeeds with probability 0", 0.0)
    return PureState(s.amplitudes / np.sqrt(norm_sq)), norm_sq


def channel_output_unnormalized(rho_in: DensityMatrix, chi: ChoiProcess) -> np.ndarray:
    """Tr_in[(rho^T (x) 1) chi_unnormalized]; its trace is the success probability."""
    if rho_in.qubits != 2:
        raise InvalidArgumentError("Choi channels act on two-qubit inputs")
    m = tensor_product(rho_in.matrix.T, np.eye(4)) @ chi.unnormalized()
    return np.einsum("acad->cd", m.reshape(4, 4, 4, 4))


def channel_success_probability(rho_in: DensityMatrix, chi: ChoiProcess) -> float:
    """Probability that the post-selected channel fires on this input."""
    return float(np.trace(channel_output_unnormalized(rho_in, chi)).real)


def apply_choi_channel(rho_in: DensityMatrix, chi: ChoiProcess) -> tuple[DensityMatrix, float]:
    """Normalized channel output and the success probability of post-selection."""
    out = channel_output_unnormalized(rho_in, chi)
    prob = float(np.trace(out).real)
    if prob < NORM_FLOOR:
        raise DegenerateOutcomeError("channel annihilates this input", 0.0)
    return DensityMatrix(out / prob, validate=False), prob


def embed_two_qubit_channel(rho: DensityMatrix, chi: ChoiProcess,
                            targets) -> tuple[DensityMatrix, float]:
    """Apply a two-qubit channel to the target qubits, identity on the rest."""
    targets = tuple(int(t) for t in targets)
    if len(targets) != 2 or targets[0] == targets[1]:
        raise InvalidArgumentError(f"targets must be two distinct qubit indices, got {targets}")
    if rho.qubits < 2:
        raise InvalidArgumentError("embedding needs at least two qubits")
    out = np.zeros_like(rho.matrix)
    for kraus in chi.kraus_operators():
        full = expand_operator(kraus, rho.qubits, targets)
        out += full @ rho.matrix @ full.conj().T
    prob = float(np.trace(out).real)
    if prob < NORM_FLOOR:
        raise DegenerateOutcomeError("channel annihilates this input", 0.0)
    return DensityMatrix(out / prob, validate=False), prob
