"""Figures of merit: purity, Uhlmann fidelities, phase-optimized process
fidelity, concurrence, logarithmic negativity and quantum discord.

Entropies are measured in bits (base-2 logarithms, 0 log 0 = 0). Discord
follows the projective-measurement definition: total mutual information
minus the classical correlation maximized over rank-1 projective
measurements on one chosen qubit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class MetricReport:
    name: str
    value: float
    std: float | None = None
    metadata: dict = field(default_factory=dict)


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


def _measurement_kets(theta: float, phi: float) -> tuple[np.ndarray, np.ndarray]:
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    m0 = np.array([c, s * np.exp(1j * phi)], dtype=complex)
    m1 = np.array([-s, c * np.exp(1j * phi)], dtype=complex)
    return m0, m1


def _conditional_entropy(rho: np.ndarray, measured_qubit: int, theta: float,
                         phi: float) -> float:
    """sum_b p_b S(rho_other|b) for a projective measurement on one qubit."""
    t = rho.reshape(2, 2, 2, 2)
    total = 0.0
    for ket in _measurement_kets(theta, phi):
        if measured_qubit == 0:
            cond = np.einsum("a,abcd,c->bd", ket.conj(), t, ket)
        else:
            cond = np.einsum("b,abcd,d->ac", ket.conj(), t, ket)
        p = float(np.trace(cond).real)
        if p > 1e-12:
            total += p * von_neumann_entropy(cond / p)
    return total


def discord(m: DensityMatrix, measured_qubit: int, *, grid: tuple[int, int] = (20, 40),
            refine: bool = True) -> float:
    """Quantum discord with projective measurements on the chosen qubit.

    The minimization over measurement directions runs a coarse Bloch-sphere
    grid (``grid`` points in (theta, phi)) followed by a deterministic
    Nelder-Mead refinement from the best grid point.
    """
    if not isinstance(m, DensityMatrix) or m.qubits != 2:
        raise InvalidArgumentError("discord is defined for two-qubit density matrices")
    if measured_qubit not in (0, 1):
        raise InvalidArgumentError("measured_qubit must be 0 or 1")
    other = 1 - measured_qubit
    s_measured = von_neumann_entropy(partial_trace(m, {measured_qubit}))
    s_total = von_neumann_entropy(m)

    rho = m.matrix
    n_theta, n_phi = grid
    best_val, best_angles = np.inf, (0.0, 0.0)
    for theta in np.linspace(0.0, np.pi, n_theta):
        for phi in np.linspace(0.0, TWO_PI, n_phi, endpoint=False):
            val = _conditional_entropy(rho, measured_qubit, theta, phi)
            if val < best_val:
                best_val, best_angles = val, (theta, phi)
    if refine:
        res = minimize(
            lambda x: _conditional_entropy(rho, measured_qubit, x[0], x[1]),
            x0=np.array(best_angles),
            method="Nelder-Mead",
            options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
        )
        if res.fun < best_val:
            best_val = float(res.fun)
    value = s_measured - s_total + best_val
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


def _quadratic_objective(quad: np.ndarray):
    def evaluate(w: np.ndarray) -> float:
        return float(np.einsum("j,jk,k->", w, quad, w.conj()).real)

    def evaluate_grid(ws: np.ndarray) -> np.ndarray:
        return np.einsum("gj,jk,gk->g", ws, quad, ws.conj()).real

    return evaluate, evaluate_grid


def _make_phase_objective(chi: ChoiProcess, chi_th: ChoiProcess):
    """Return (exact, grid) evaluators of the fidelity as a function of the
    16-component phase vector w.

    With a pure argument the fidelity is a quadratic form in w and both
    evaluators are exact and cheap. A matrix whose residual spectrum carries
    less than 1e-4 of the trace still uses the quadratic form for grid
    screening (error bounded by the residual mass) while the exact evaluator
    runs the full Uhlmann formula. Fully mixed pairs batch the grid
    eigendecompositions in chunks.
    """
    def evaluate_exact(w: np.ndarray) -> float:
        conj = chi.choi * np.outer(w, w.conj())
        return _uhlmann(conj, chi_th.choi)

    for deficit, exact in ((1e-9, True), (1e-4, False)):
        psi_th = _dominant_vector(chi_th.choi, deficit)
        psi = _dominant_vector(chi.choi, deficit) if psi_th is None else None
        if psi_th is not None:
            # F = <psi_th| D chi D^dag |psi_th> = sum_jk w_j B_jk conj(w_k)
            quad = np.outer(psi_th.conj(), psi_th) * chi.choi
        elif psi is not None:
            # F = <psi'| chi_th |psi'> with psi' = D psi
            quad = np.outer(psi.conj(), psi) * chi_th.choi
        else:
            continue
        ev, ev_grid = _quadratic_objective(quad)
        return (ev if exact else evaluate_exact), ev_grid

    # mixed-mixed case: F(w) = ||sqrt(D chi D^dag) sqrt(chi_th)||_tr^2 and
    # sqrt(D chi D^dag) = D sqrt(chi) D^dag, so F(w) is the squared trace
    # norm of (sqrt(chi) D^dag) sqrt(chi_th) up to a unitary factor
    root_chi = matrix_sqrt(chi.choi)
    th_mat = chi_th.choi

    def evaluate_grid(ws: np.ndarray) -> np.ndarray:
        out = np.empty(len(ws))
        for start in range(0, len(ws), 2048):
            block = ws[start:start + 2048]
            p = root_chi[None, :, :] * block.conj()[:, None, :]
            t = p @ th_mat @ p.conj().transpose(0, 2, 1)
            vals = np.clip(np.linalg.eigvalsh(t), 0.0, None)
            out[start:start + 2048] = np.sqrt(vals).sum(axis=1) ** 2
        return out

    return evaluate_exact, evaluate_grid


def _phase_vectors(phases_grid: np.ndarray) -> np.ndarray:
    """Stack of 2^n-component e^{i theta_j} vectors for an (N, n) phase array."""
    n = phases_grid.shape[1]
    idx = np.arange(2**n)
    bits = np.stack([(idx >> (n - 1 - m)) & 1 for m in range(n)], axis=1)  # (2^n, n)
    theta = phases_grid @ bits.T
    return np.exp(1j * theta)


def _golden_section_max(f, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal function on [lo, hi]."""
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
    x = (a + b) / 2.0
    return x, f(x)


def phase_optimized_fidelity(chi: ChoiProcess, chi_th: ChoiProcess, *,
                             grid_points: int = 16,
                             phase_tol: float = 1e-8) -> tuple[float, PhaseCorrection]:
    """Maximum process fidelity over the four local mode phases applied to chi.

    A coarse ``grid_points``^4 search (always containing the zero-phase
    point) seeds coordinate-wise golden-section refinement down to
    ``phase_tol`` phase resolution. The result is never below the raw
    fidelity.
    """
    raw = process_fidelity(chi, chi_th)
    evaluate, evaluate_grid = _make_phase_objective(chi, chi_th)

    axis = np.linspace(0.0, TWO_PI, grid_points, endpoint=False)
    mesh = np.stack(np.meshgrid(axis, axis, axis, axis, indexing="ij"), axis=-1)
    grid = mesh.reshape(-1, 4)
    values = evaluate_grid(_phase_vectors(grid))
    best_idx = int(np.argmax(values))
    phases = grid[best_idx].copy()
    best = float(values[best_idx])

    def along(coord, x):
        trial = phases.copy()
        trial[coord] = x
        return evaluate(_phase_vectors(trial[None, :])[0])

    # per-coordinate resample + local golden section; each axis restriction of
    # the objective is a single trigonometric harmonic, so this is exact
    spacing = TWO_PI / grid_points
    for _ in range(60):
        improved = best
        for coord in range(4):
            samples = [(along(coord, x), x) for x in axis]
            _, x0 = max(samples)
            x_opt, f_opt = _golden_section_max(lambda x: along(coord, x),
                                               x0 - spacing, x0 + spacing, phase_tol)
            if f_opt > best:
                best = f_opt
                phases[coord] = x_opt % TWO_PI
        if best - improved < 1e-14:
            break

    if best <= raw:
        return raw, PhaseCorrection.zero()
    return best, PhaseCorrection(tuple(phases))


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
