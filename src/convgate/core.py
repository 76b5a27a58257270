"""Dense complex linear algebra and state/channel primitives for few-qubit systems.

Conventions used throughout the package:

* single-qubit basis |H> = (1, 0), |V> = (0, 1),
* n-qubit basis states ordered lexicographically (|HH>, |HV>, |VH>, |VV>),
  qubit 0 being the most significant position,
* Choi matrices live on H_in (x) H_out with basis |ab>_in |cd>_out and are
  stored with unit trace next to a separate success scale, so that the
  channel action is rho_out = Tr_in[(rho_in^T (x) 1) chi_unnormalized] and
  the identity channel succeeds with probability 1 on every input,
* gates, two-qubit channels (identity on the other qubits) and partial
  traces use one qubit order, the ordered targets first and the rest
  ascending (``_targets_first``), and act on the leading block.
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


def _hermitian_part(m: np.ndarray, what: str, validate: bool) -> np.ndarray:
    """(m + m^dag) / 2, stable under eigh; with ``validate``, m is Hermitian, unit-trace, PSD."""
    hermitian = (m + m.conj().T) / 2.0
    if validate:
        defect, tr = hermiticity_defect(m), complex(np.trace(m))
        if defect > ATOL_HERMITIAN:
            raise NumericalDomainError(f"{what} is not Hermitian (defect {defect:.3e})")
        if abs(tr - 1.0) > ATOL_TRACE:
            raise NumericalDomainError(f"{what} trace {tr} differs from 1")
        low = float(np.linalg.eigvalsh(hermitian).min())
        if low < -EIG_CLAMP:
            raise NumericalDomainError(f"{what} has eigenvalue {low:.3e} below -{EIG_CLAMP}")
    return hermitian


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
                raise DegenerateOutcomeError("cannot normalize a vanishing state")
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
        self.matrix = _hermitian_part(m, "matrix", validate)

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
        if not 0.0 <= success_scale < np.inf:
            raise InvalidArgumentError("success_scale must be finite and nonnegative")
        self.choi = _hermitian_part(m, "Choi matrix", validate)
        self.success_scale = float(success_scale)

    def unnormalized(self) -> np.ndarray:
        """Choi matrix scaled so that rho_out = Tr_in[(rho^T (x) 1) chi]."""
        return 4.0 * self.success_scale * self.choi

    def __repr__(self):
        return f"ChoiProcess(success_scale={self.success_scale:.6g})"


def clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues in [-EIG_CLAMP, 0) to zero; reject anything lower."""
    low = float(values.min())
    if low < -EIG_CLAMP:
        raise NumericalDomainError(f"eigenvalue {low:.3e} below the -{EIG_CLAMP} clamp window")
    return np.clip(values, 0.0, None)


def _targets_first(n: int, targets) -> list[int]:
    """Qubit order with ``targets`` first, as given, then every other qubit of
    an n-qubit register in ascending order."""
    targets = [int(t) for t in targets]
    if len(set(targets)) != len(targets):
        raise InvalidArgumentError(f"repeated target indices {targets}")
    if any(t < 0 or t >= n for t in targets):
        raise InvalidArgumentError(f"targets {targets} out of range for {n} qubits")
    return targets + [q for q in range(n) if q not in targets]


def _reorder(a: np.ndarray, order) -> np.ndarray:
    """A 2^n vector or 2^n x 2^n matrix with qubit ``order[i]`` moved to
    position i, on the row and the column axes alike."""
    n = len(order)
    axes = list(order) + [n + q for q in order] * (a.ndim - 1)
    return a.reshape((2,) * (a.ndim * n)).transpose(axes).reshape(a.shape)


def partial_trace(m: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix on the kept qubits (ascending index order)."""
    n = m.qubits
    kept = sorted(int(q) for q in keep)
    if not kept or len(kept) == n:
        raise InvalidArgumentError("keep must be a nonempty strict subset of the qubits")
    order = _targets_first(n, kept)
    k, r = 2 ** len(kept), 2 ** (n - len(kept))
    reduced = np.einsum("arbr->ab", _reorder(m.matrix, order).reshape(k, r, k, r))
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


def apply_operator(state: PureState, op: np.ndarray, targets=None) -> PureState:
    """Apply a (possibly trace-decreasing) k-qubit operator to the ordered
    ``targets`` of a pure state, all qubits in ascending order by default.

    The output keeps its post-selection norm; callers decide when to
    renormalize.
    """
    n = state.qubits
    targets = range(n) if targets is None else tuple(targets)
    order = _targets_first(n, targets)
    op = np.asarray(op, dtype=complex)
    k = len(targets)
    if op.shape != (2**k, 2**k):
        raise InvalidArgumentError(f"operator shape {op.shape} does not act on {k} qubits")
    out = op @ _reorder(state.amplitudes, order).reshape(2**k, -1)
    return PureState(_reorder(out.ravel(), np.argsort(order)))


def normalize_state(s: PureState) -> tuple[PureState, float]:
    """Unit-norm copy of the state plus the pre-normalization squared norm."""
    norm_sq = s.norm_squared
    if norm_sq < NORM_FLOOR:
        raise DegenerateOutcomeError("post-selection succeeds with probability 0")
    return PureState(s.amplitudes / np.sqrt(norm_sq)), norm_sq


def channel_output_unnormalized(rho_in: DensityMatrix, chi: ChoiProcess,
                                targets=(0, 1)) -> np.ndarray:
    """Tr_in[(rho^T (x) 1) chi_unnormalized] on the ``targets`` pair, identity on
    every other qubit; its trace is the success probability.

    With the targets moved to the front, rho is a (4, R, 4, R) stack of 4x4
    blocks X_rs over the R = 2^(n-2) basis states of the other qubits. The
    two-qubit action maps all R^2 blocks in one matrix product; the qubit
    order is then restored.
    """
    n = rho_in.qubits
    if len(targets) != 2:
        raise InvalidArgumentError(f"a channel acts on two target qubits, got {targets}")
    order = _targets_first(n, targets)
    r = 2 ** (n - 2)
    # (r, s) -> X_rs^T
    blocks_t = _reorder(rho_in.matrix, order).reshape(4, r, 4, r).transpose(1, 3, 2, 0)
    m = np.kron(blocks_t, np.eye(4, dtype=complex)).reshape(-1, 16) @ chi.unnormalized()
    out = np.einsum("...acad->...cd", m.reshape(r, r, 4, 4, 4, 4)).transpose(2, 0, 3, 1)
    return _reorder(out.reshape(2**n, 2**n), np.argsort(order))


def apply_choi_channel(rho_in: DensityMatrix, chi: ChoiProcess,
                       targets=(0, 1)) -> tuple[DensityMatrix, float]:
    """Normalized channel output on ``targets`` and the success probability of
    post-selection."""
    out = channel_output_unnormalized(rho_in, chi, targets)
    prob = float(np.trace(out).real)
    if prob < NORM_FLOOR:
        raise DegenerateOutcomeError("channel annihilates this input")
    return DensityMatrix(out / prob, validate=False), prob
