"""Figures of merit: purity, Uhlmann fidelities, phase-optimized process
fidelity, concurrence, logarithmic negativity and quantum discord.

Entropies are measured in bits (base-2 logarithms, 0 log 0 = 0). Discord
follows the projective-measurement definition: total mutual information
minus the classical correlation maximized over rank-1 projective
measurements on one chosen qubit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .core import (
    PAULI_Y,
    ChoiProcess,
    DensityMatrix,
    clamp_spectrum,
    matrix_sqrt,
    partial_trace,
    partial_transpose,
)
from .errors import InvalidArgumentError, NumericalDomainError

TWO_PI = 2.0 * np.pi
#: Points per phase axis of the coarse phase-optimization grid.
PHASE_GRID_POINTS = 16
#: Phase resolution (Nelder-Mead ``xatol``) of the phase-optimization refinement.
PHASE_TOL = 1e-8
#: (theta, phi) points of the Bloch-sphere grid the discord search screens.
DISCORD_GRID = (20, 40)


@dataclass(frozen=True)
class PhaseCorrection:
    """Four local phases, one per input/output mode of the two-qubit channel.

    Each phase phi acts as diag(1, e^{i phi}) on that mode's {H, V}
    amplitudes; phases are stored canonically in [0, 2 pi).
    """

    phases: tuple[float, float, float, float]

    def __post_init__(self):
        canon = tuple(float(p) % TWO_PI for p in self.phases)
        if len(canon) != 4:
            raise InvalidArgumentError("a phase correction needs exactly four phases")
        object.__setattr__(self, "phases", canon)

    @classmethod
    def zero(cls) -> "PhaseCorrection":
        return cls((0.0, 0.0, 0.0, 0.0))

    def scaled(self, factor: float) -> "PhaseCorrection":
        return PhaseCorrection(tuple(factor * p for p in self.phases))

    def phase_vector(self, n_modes: int = 4) -> np.ndarray:
        """e^{i theta_j} for every basis index of an n_modes-qubit space."""
        phases = self.phases[:n_modes] + (0.0,) * (n_modes - 4)
        return _phase_vectors(np.asarray(phases)[None, :])[0]


def _as_matrix(m) -> np.ndarray:
    if isinstance(m, DensityMatrix):
        return m.matrix
    if isinstance(m, ChoiProcess):
        return m.choi
    return np.asarray(m, dtype=complex)


def purity(m) -> float:
    """Tr[M^2] of a unit-trace matrix; 1 exactly for pure states/processes."""
    mat = _as_matrix(m)
    return float(np.einsum("ij,ji->", mat, mat).real)


def _uhlmann(a: np.ndarray, b: np.ndarray) -> float:
    # when either unit-trace argument is pure the fidelity reduces to the
    # exact overlap Tr[a b], which avoids the eigendecomposition noise floor
    for x, y in ((a, b), (b, a)):
        if abs(np.einsum("ij,ji->", x, x).real - 1.0) < 1e-12:
            return max(float(np.einsum("ij,ji->", x, y).real), 0.0)
    root = matrix_sqrt(a)
    inner = root @ b @ root
    vals = clamp_spectrum(np.linalg.eigvalsh((inner + inner.conj().T) / 2.0))
    return float(np.sqrt(vals).sum() ** 2)


def _cap_fidelity(value: float) -> float:
    if value > 1.0 + 1e-6:
        raise NumericalDomainError(
            f"fidelity {value} exceeds 1 beyond numerical noise; inputs are not "
            "valid unit-trace states")
    return min(value, 1.0)


def fidelity(a, b) -> float:
    """Uhlmann fidelity Tr[sqrt(sqrt(a) b sqrt(a))]^2 between unit-trace states."""
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise InvalidArgumentError(f"dimension mismatch {am.shape} vs {bm.shape}")
    return _cap_fidelity(_uhlmann(am, bm))


def process_fidelity(chi: ChoiProcess, chi_th: ChoiProcess) -> float:
    """Uhlmann fidelity between two unit-trace process matrices."""
    a, b = _as_matrix(chi), _as_matrix(chi_th)
    if a.shape != (16, 16) or b.shape != (16, 16):
        raise InvalidArgumentError("process fidelity expects 16x16 Choi matrices")
    return _cap_fidelity(_uhlmann(a, b))


def von_neumann_entropy(m) -> float:
    """Entropy in bits of a unit-trace PSD matrix."""
    vals = clamp_spectrum(np.linalg.eigvalsh(_as_matrix(m)))
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def concurrence(m: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    if not isinstance(m, DensityMatrix) or m.qubits != 2:
        raise InvalidArgumentError("concurrence is defined for two-qubit density matrices")
    yy = np.kron(PAULI_Y, PAULI_Y)
    tilde = yy @ m.matrix.conj() @ yy
    # eigenvalues of rho rho~ are real and nonnegative up to float noise
    vals = np.sort(np.abs(np.linalg.eigvals(m.matrix @ tilde).real))[::-1]
    lam = np.sqrt(vals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def log_negativity(m: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose; zero on PPT states."""
    if not isinstance(m, DensityMatrix) or m.qubits != 2:
        raise InvalidArgumentError("log-negativity is defined for two-qubit density matrices")
    vals = np.linalg.eigvalsh(partial_transpose(m, 1))
    return float(np.log2(np.abs(vals).sum()))


def _conditional_entropies(rho: np.ndarray, measured_qubit: int, theta: np.ndarray,
                           phi: np.ndarray) -> np.ndarray:
    """sum_b p_b S(rho_other|b) for the projective measurements along each
    Bloch direction (theta[g], phi[g]) on one qubit, one value per direction."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    e = np.exp(1j * phi)
    kets = np.empty((len(theta), 2, 2), dtype=complex)  # (direction, outcome, component)
    kets[:, 0, 0], kets[:, 0, 1] = c, s * e
    kets[:, 1, 0], kets[:, 1, 1] = -s, c * e
    spec = "gka,abcd,gkc->gkbd" if measured_qubit == 0 else "gkb,abcd,gkd->gkac"
    cond = np.einsum(spec, kets.conj(), rho.reshape(2, 2, 2, 2), kets)
    p = (cond[..., 0, 0] + cond[..., 1, 1]).real
    kept = p > 1e-12
    scale = np.where(kept, p, 1.0)[..., None]
    # an outcome below the cut gets the spectrum (0, 1): zero entropy
    vals = np.where(kept[..., None], np.linalg.eigvalsh(cond / scale[..., None]), [0.0, 1.0])
    # the clamp window applies to the spectrum of p_b rho_other|b, a compression
    # of rho: dividing by a small p_b scales its rounding up by 1/p_b
    clamp_spectrum(scale * vals)
    vals = np.clip(vals, 0.0, None)
    positive = vals > 1e-15
    logs = np.log2(np.where(positive, vals, 1.0))
    entropies = -np.where(positive, vals * logs, 0.0).sum(axis=-1)
    return np.where(kept, p * entropies, 0.0).sum(axis=-1)


def discord(m: DensityMatrix, measured_qubit: int) -> float:
    """Quantum discord with projective measurements on the chosen qubit.

    The minimization over measurement directions screens the Bloch-sphere grid
    ``DISCORD_GRID`` in one batched evaluation, then runs a deterministic
    Nelder-Mead refinement from the first best grid point with the same
    evaluator on one direction at a time.
    """
    if not isinstance(m, DensityMatrix) or m.qubits != 2:
        raise InvalidArgumentError("discord is defined for two-qubit density matrices")
    if measured_qubit not in (0, 1):
        raise InvalidArgumentError("measured_qubit must be 0 or 1")
    s_measured = von_neumann_entropy(partial_trace(m, {measured_qubit}))
    s_total = von_neumann_entropy(m)

    rho = m.matrix
    n_theta, n_phi = DISCORD_GRID
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, n_theta),
                             np.linspace(0.0, TWO_PI, n_phi, endpoint=False), indexing="ij")
    theta, phi = theta.ravel(), phi.ravel()
    values = _conditional_entropies(rho, measured_qubit, theta, phi)
    best = int(np.argmin(values))
    res = minimize(
        lambda x: _conditional_entropies(rho, measured_qubit, x[:1], x[1:])[0],
        x0=np.array([theta[best], phi[best]]),
        method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
    )
    value = s_measured - s_total + min(float(values[best]), float(res.fun))
    # the conditional-entropy minimum can undershoot by optimizer noise only
    return float(max(0.0, value)) if value > -1e-9 else float(value)


def phase_conjugate_choi(chi: ChoiProcess, correction: PhaseCorrection) -> ChoiProcess:
    """Conjugate a Choi matrix by the four local diagonal phase unitaries."""
    w = correction.phase_vector()
    conjugated = chi.choi * np.outer(w, w.conj())
    return ChoiProcess(conjugated, success_scale=chi.success_scale, validate=False)


def _dominant_vector(mat: np.ndarray, deficit: float) -> np.ndarray | None:
    vals, vecs = np.linalg.eigh(mat)
    if vals[-1] >= np.trace(mat).real - deficit:
        return vecs[:, -1]
    return None


def _phase_objective(chi: ChoiProcess, chi_th: ChoiProcess):
    """Return (screen, exact) evaluators of the fidelity for a stack of
    16-component phase vectors w, one per row.

    With a pure argument the fidelity is a quadratic form in w, and both
    evaluators are that form. A matrix whose residual spectrum carries less
    than 1e-4 of the trace still screens with the quadratic form (error
    bounded by the residual mass), while the exact evaluator runs the full
    Uhlmann formula, as both do for a mixed pair.
    """
    # F(w) = ||sqrt(D chi D^dag) sqrt(chi_th)||_tr^2 and sqrt(D chi D^dag) =
    # D sqrt(chi) D^dag, so F(w) is the squared trace norm of
    # (sqrt(chi) D^dag) sqrt(chi_th) up to a unitary factor
    root_chi = matrix_sqrt(chi.choi)

    def uhlmann(ws: np.ndarray) -> np.ndarray:
        p = root_chi[None, :, :] * ws.conj()[:, None, :]
        t = p @ chi_th.choi @ p.conj().transpose(0, 2, 1)
        vals = np.clip(np.linalg.eigvalsh(t), 0.0, None)
        return np.sqrt(vals).sum(axis=1) ** 2

    for deficit, quadratic_is_exact in ((1e-9, True), (1e-4, False)):
        # pure target |v>: F = <v| D chi D^dag |v>; pure estimate |v>:
        # F = <v| D^dag chi_th D |v> = <v*| D chi_th^T D^dag |v*>, so with
        # both transposed it is the same form sum_jk w_j B_jk conj(w_k)
        for pure, other in ((chi_th.choi, chi.choi), (chi.choi.T, chi_th.choi.T)):
            v = _dominant_vector(pure, deficit)
            if v is None:
                continue
            quad = np.outer(v.conj(), v) * other

            def quadratic(ws: np.ndarray) -> np.ndarray:
                return np.einsum("gj,gj->g", ws @ quad, ws.conj()).real

            return quadratic, (quadratic if quadratic_is_exact else uhlmann)
    return uhlmann, uhlmann


def _phase_vectors(phases_grid: np.ndarray) -> np.ndarray:
    """Stack of 2^n-component e^{i theta_j} vectors for an (N, n) phase array."""
    n = phases_grid.shape[1]
    idx = np.arange(2**n)
    bits = np.stack([(idx >> (n - 1 - m)) & 1 for m in range(n)], axis=1)  # (2^n, n)
    theta = phases_grid @ bits.T
    return np.exp(1j * theta)


def phase_optimized_fidelity(chi: ChoiProcess,
                             chi_th: ChoiProcess) -> tuple[float, PhaseCorrection]:
    """Maximum process fidelity over the four local mode phases applied to chi.

    A coarse ``PHASE_GRID_POINTS``^4 screen (always containing the zero-phase
    point), run in blocks of 2048 phase vectors, seeds one Nelder-Mead
    refinement of the exact fidelity down to ``PHASE_TOL`` phase resolution.
    The result is never below the raw fidelity.
    """
    raw = process_fidelity(chi, chi_th)
    screen, exact = _phase_objective(chi, chi_th)

    axis = np.linspace(0.0, TWO_PI, PHASE_GRID_POINTS, endpoint=False)
    place = PHASE_GRID_POINTS ** np.arange(3, -1, -1)  # the first phase varies slowest

    def grid_phases(index):
        return axis[index // place % PHASE_GRID_POINTS]

    points = np.arange(PHASE_GRID_POINTS**4)
    values = np.concatenate([screen(_phase_vectors(grid_phases(points[start:start + 2048, None])))
                             for start in range(0, len(points), 2048)])
    res = minimize(lambda x: -exact(_phase_vectors(x[None, :]))[0],
                   x0=grid_phases(np.argmax(values)),
                   method="Nelder-Mead", options={"xatol": PHASE_TOL})
    best = float(-res.fun)
    if best <= raw:
        return raw, PhaseCorrection.zero()
    return best, PhaseCorrection(tuple(res.x))


#: CLI / Monte Carlo metric names.
METRIC_NAMES = (
    "purity",
    "trace",
    "fidelity",
    "process-fidelity",
    "process-fidelity-optimized",
    "concurrence",
    "log-negativity",
    "discord-q1",
    "discord-q2",
)


def metric_function(name: str, target=None):
    """Resolve a metric name to a callable acting on an estimate.

    Fidelity-type metrics need a ``target`` (a DensityMatrix or a
    ChoiProcess); the discord variants encode the measured qubit.
    """
    if name == "purity":
        return purity
    if name == "trace":
        return lambda m: float(np.trace(_as_matrix(m)).real)
    if name == "fidelity":
        if target is None:
            raise InvalidArgumentError("metric 'fidelity' needs a target state")
        return lambda m: fidelity(m, target)
    if name == "process-fidelity":
        if target is None:
            raise InvalidArgumentError("metric 'process-fidelity' needs a target process")
        return lambda m: process_fidelity(m, target)
    if name == "process-fidelity-optimized":
        if target is None:
            raise InvalidArgumentError("metric 'process-fidelity-optimized' needs a target")
        return lambda m: phase_optimized_fidelity(m, target)[0]
    if name == "concurrence":
        return concurrence
    if name == "log-negativity":
        return log_negativity
    if name == "discord-q1":
        return lambda m: discord(m, 0)
    if name == "discord-q2":
        return lambda m: discord(m, 1)
    raise InvalidArgumentError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
