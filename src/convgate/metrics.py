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
#: A Newton step of the phase refinement shorter than this (radians) is its last.
PHASE_TOL = 1e-8
#: Cap on the Newton rounds of the phase refinement.
PHASE_ROUNDS = 16
#: (theta, phi) points of the Bloch-sphere grid the discord search screens.
DISCORD_GRID = (20, 40)
#: Cap on the stencil rounds of the discord refinement.
DISCORD_ROUNDS = 16
# finest stencil half-width of the discord refinement (radians in the tangent
# plane): its truncation error leaves a Newton step ~1e-9 from the minimum,
# ~1e-18 in value, and its rounding error in the gradient is ~1e-12
_STENCIL_FLOOR = 1e-4
# a Newton step this short from the finest stencil would gain ~1e-16
_STEP_FLOOR = 1e-8
# nine stencil values within this spread agree to rounding (flat stencils of
# pure and Bell states spread by at most ~1e-15): the entropy is flat there
_FLAT_SPREAD = 1e-14
# tangent-plane offsets (u, v) in {-1, 0, 1}^2 of the nine stencil points, u major
_STENCIL = np.stack(np.meshgrid([-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0], indexing="ij"),
                    axis=-1).reshape(9, 2)


@dataclass(frozen=True)
class PhaseCorrection:
    """Four local phases, one per input/output mode of the two-qubit channel.

    Each phase phi acts as diag(1, e^{i phi}) on that mode's {H, V}
    amplitudes; phases are stored canonically in [0, 2 pi).
    """

    phases: tuple[float, float, float, float]

    def __post_init__(self):
        phases = tuple(float(p) for p in self.phases)
        if len(phases) != 4:
            raise InvalidArgumentError("a phase correction needs exactly four phases")
        if not all(np.isfinite(phases)):
            raise InvalidArgumentError(f"phases must be finite, got {phases}")
        object.__setattr__(self, "phases", tuple(p % TWO_PI for p in phases))

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


def _is_pure(m: np.ndarray) -> bool:
    """The purity rule of every fidelity: Tr[M^2] within 1e-12 of 1."""
    return abs(purity(m) - 1.0) < 1e-12


def _uhlmann(a: np.ndarray, b: np.ndarray) -> float:
    # when either unit-trace argument is pure the fidelity is the exact
    # overlap Tr[a b]
    if _is_pure(a) or _is_pure(b):
        return max(float(np.einsum("ij,ji->", a, b).real), 0.0)
    # ||sqrt(a) sqrt(b)||_tr^2 by singular values, which keep the zero ones of
    # rank-deficient pairs at rounding level, where square roots of the
    # eigenvalues of sqrt(a) b sqrt(a) would lift each to ~sqrt(eps)
    return float(np.linalg.svd(matrix_sqrt(a) @ matrix_sqrt(b), compute_uv=False).sum() ** 2)


def _cap_fidelity(value: float) -> float:
    if value > 1.0 + 1e-6:
        raise NumericalDomainError(
            f"fidelity {value} exceeds 1 beyond numerical noise; inputs are not "
            "valid unit-trace states")
    return min(value, 1.0)


def fidelity(a, b) -> float:
    """Uhlmann fidelity ||sqrt(a) sqrt(b)||_tr^2 between unit-trace states.

    It is the overlap Tr[a b] when either state is pure (purity within 1e-12
    of 1), else the squared sum of the singular values of sqrt(a) sqrt(b).
    """
    if {type(a), type(b)} == {DensityMatrix, ChoiProcess}:
        raise InvalidArgumentError("fidelity compares two states or two processes")
    am, bm = _as_matrix(a), _as_matrix(b)
    if am.shape != bm.shape:
        raise InvalidArgumentError(f"dimension mismatch {am.shape} vs {bm.shape}")
    return _cap_fidelity(_uhlmann(am, bm))


def process_fidelity(chi: ChoiProcess, chi_th: ChoiProcess) -> float:
    """Uhlmann fidelity between two unit-trace process matrices, by the same
    purity rule and formula as ``fidelity``."""
    if not (isinstance(chi, ChoiProcess) and isinstance(chi_th, ChoiProcess)):
        raise InvalidArgumentError("process fidelity expects 16x16 Choi matrices")
    return _cap_fidelity(_uhlmann(chi.choi, chi_th.choi))


def von_neumann_entropy(m) -> float:
    """Entropy in bits of a unit-trace PSD matrix."""
    vals = clamp_spectrum(np.linalg.eigvalsh(_as_matrix(m)))
    vals = vals[vals > 1e-15]
    return float(-(vals * np.log2(vals)).sum())


def _require_two_qubits(m, name: str) -> None:
    if not isinstance(m, DensityMatrix) or m.qubits != 2:
        raise InvalidArgumentError(f"{name} is defined for two-qubit density matrices")


def concurrence(m: DensityMatrix) -> float:
    """Two-qubit concurrence from the spin-flipped spectrum."""
    _require_two_qubits(m, "concurrence")
    yy = np.kron(PAULI_Y, PAULI_Y)
    tilde = yy @ m.matrix.conj() @ yy
    # eigenvalues of rho rho~ are real and nonnegative up to float noise
    vals = np.sort(np.abs(np.linalg.eigvals(m.matrix @ tilde).real))[::-1]
    lam = np.sqrt(vals)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def log_negativity(m: DensityMatrix) -> float:
    """log2 of the trace norm of the partial transpose; zero on PPT states."""
    _require_two_qubits(m, "log-negativity")
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


def _bloch_angles(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi in [0, 2 pi)) of a stack of Bloch vectors of any length."""
    # arctan2 keeps theta accurate at the poles, where arccos(n_z) loses half
    # its digits
    return (np.arctan2(np.hypot(n[..., 0], n[..., 1]), n[..., 2]),
            np.arctan2(n[..., 1], n[..., 0]) % TWO_PI)


def _refined_conditional_entropy(rho: np.ndarray, measured_qubit: int, theta: float,
                                 phi: float, h: float) -> float:
    """Lowest conditional entropy seen by stencil-Newton rounds that start from
    the direction (theta, phi) with stencil half-width h.

    Each round evaluates a 3 x 3 stencil in the gnomonic chart of the tangent
    plane at the current direction in one batched call, and forms the
    central-difference gradient and Hessian. A Newton step that stays within the
    stencil half-width from a positive definite Hessian becomes the next
    centre, with the step length as the next half-width; otherwise the centre
    moves to a better stencil point and the half-width doubles, up to h, or the
    stencil shrinks fourfold. Without the doubling, a half-width cut to a short
    Newton step would advance only that far per round. A stencil
    whose nine values agree to rounding ends the rounds: the entropy is flat
    there, as on pure and Bell states. The chart is rebuilt at every centre, so
    the poles and the phi = 0 seam are ordinary points.
    """
    best, widest = np.inf, h
    for _ in range(DISCORD_ROUNDS):
        st, ct, sp, cp = np.sin(theta), np.cos(theta), np.sin(phi), np.cos(phi)
        # (e_theta, e_phi) is orthonormal and tangent at the poles too, where
        # phi still fixes it
        centre = np.array([st * cp, st * sp, ct])
        tangent = np.array([[ct * cp, ct * sp, -st], [-sp, cp, 0.0]])
        # the angles of a Bloch vector do not depend on its length
        thetas, phis = _bloch_angles(centre + h * _STENCIL @ tangent)
        values = _conditional_entropies(rho, measured_qubit, thetas, phis)
        best = min(best, float(values.min()))
        if np.ptp(values) <= _FLAT_SPREAD:
            break
        f = values.reshape(3, 3)
        grad = np.array([f[2, 1] - f[0, 1], f[1, 2] - f[1, 0]]) / (2.0 * h)
        huu = (f[2, 1] - 2.0 * f[1, 1] + f[0, 1]) / h**2
        hvv = (f[1, 2] - 2.0 * f[1, 1] + f[1, 0]) / h**2
        huv = (f[2, 2] - f[2, 0] - f[0, 2] + f[0, 0]) / (4.0 * h**2)
        if huu > 0.0 and huu * hvv > huv * huv:
            step = -np.linalg.solve([[huu, huv], [huv, hvv]], grad)
            size = float(np.hypot(*step))
            if size <= h:
                # a short step from a coarse stencil may be a truncation-error
                # coincidence, so it stops only from the finest one
                if size < _STEP_FLOOR and h <= _STENCIL_FLOOR:
                    break
                theta, phi = _bloch_angles(centre + step @ tangent)
                h = max(size, _STENCIL_FLOOR)
                continue
        k = int(np.argmin(values))
        if values[k] < values[4]:
            theta, phi = thetas[k], phis[k]
            h = min(2.0 * h, widest)
        else:
            h /= 4.0
            if h < _STENCIL_FLOOR:
                break
    return best


def _screen_directions() -> tuple[np.ndarray, np.ndarray]:
    """(theta, phi) of the distinct projective measurements of ``DISCORD_GRID``.

    The directions n and -n measure the same projector pair with the outcomes
    swapped, and the grid's rows theta_i and theta_{n_theta - 1 - i}, shifted by
    pi in phi, are antipodes; the pole row repeats one direction. So the screen
    keeps the pole once, at phi = 0, and the rows strictly between it and the
    equator at every phi: 1 + (n_theta / 2 - 1) n_phi directions, 361 of 800.
    """
    n_theta, n_phi = DISCORD_GRID
    theta, phi = np.meshgrid(np.linspace(0.0, np.pi, n_theta)[1:n_theta // 2],
                             np.linspace(0.0, TWO_PI, n_phi, endpoint=False), indexing="ij")
    return np.append(0.0, theta.ravel()), np.append(0.0, phi.ravel())


#: (theta, phi) of the screen, built once for every discord, read-only
_SCREEN = _screen_directions()
_SCREEN[0].flags.writeable = _SCREEN[1].flags.writeable = False


def discord(m: DensityMatrix, measured_qubit: int) -> float:
    """Quantum discord with projective measurements on the chosen qubit.

    The conditional entropy is minimized over measurement directions by
    screening each distinct measurement of the Bloch-sphere grid
    ``DISCORD_GRID`` once (``_SCREEN``, from ``_screen_directions``) in one
    batched evaluation, then refining from the first best screened point by at
    most ``DISCORD_ROUNDS`` stencil-Newton rounds, each one batched evaluation
    of nine directions (``_refined_conditional_entropy``). The conditional
    entropy is a smooth function of the direction wherever the conditional
    states keep their rank, so a few Newton steps reach its minimum; the result
    is never above the screened minimum.
    """
    _require_two_qubits(m, "discord")
    if measured_qubit not in (0, 1):
        raise InvalidArgumentError("measured_qubit must be 0 or 1")
    s_measured = von_neumann_entropy(partial_trace(m, {measured_qubit}))
    s_total = von_neumann_entropy(m)

    rho = m.matrix
    theta, phi = _SCREEN
    values = _conditional_entropies(rho, measured_qubit, theta, phi)
    best = int(np.argmin(values))
    refined = _refined_conditional_entropy(rho, measured_qubit, theta[best], phi[best],
                                           np.pi / (DISCORD_GRID[0] - 1))
    value = s_measured - s_total + min(float(values[best]), refined)
    # discord is nonnegative and the three entropies carry rounding of order
    # 1e-15, so a value above -1e-9 is clamped; only an invalid state goes lower
    return float(max(0.0, value)) if value > -1e-9 else float(value)


def _mode_bits(n: int) -> np.ndarray:
    """(2^n, n) array of the mode bits of every basis index, mode 1 first."""
    return (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1


def _phase_vectors(phases_grid: np.ndarray) -> np.ndarray:
    """Stack of 2^n-component e^{i theta_j} vectors for an (N, n) phase array."""
    return np.exp(1j * (phases_grid @ _mode_bits(phases_grid.shape[1]).T))


# The phase search. A form sum_jk w_j B_jk conj(w_k) of the phase vector, such
# as the overlap Tr[D chi D^dag chi_th] with B_jk = chi_jk chi_th_kj, is the
# trigonometric polynomial Re sum_f C_f e^{i theta.f} of the four phases, whose
# frequencies f = b_j - b_k lie in {-1, 0, 1}^4: 81 terms, the first phase
# varying slowest. With a pure argument the overlap is the fidelity.
_FREQUENCIES = np.stack(np.meshgrid(*[[-1, 0, 1]] * 4, indexing="ij"), axis=-1).reshape(81, 4)
# C = _GATHER @ B.ravel() sums the entries B_jk of each frequency b_j - b_k
_GATHER = (np.arange(81)[:, None] == ((_mode_bits(4)[:, None, :] - _mode_bits(4)[None, :, :] + 1)
                                      @ 3 ** np.arange(3, -1, -1)).ravel()).astype(float)
_GRID_AXIS = np.linspace(0.0, TWO_PI, PHASE_GRID_POINTS, endpoint=False)
# e^{i theta f} for every grid phase theta (rows) and frequency f (columns)
_GRID_WAVES = np.exp(1j * np.outer(_GRID_AXIS, [-1.0, 0.0, 1.0]))
# a Hessian eigenvalue is curved below minus this fraction of the largest
# magnitude: along a channel's phase symmetries the polynomial's curvatures are
# rounding, ~1e-16 of the largest, so the cut keeps every Newton step off the
# symmetries, along which the fidelity does not change
_FLAT_CURVATURE = 1e-9


def _grid_values(coeffs: np.ndarray) -> np.ndarray:
    """Re sum_f C_f e^{i theta.f} on the ``PHASE_GRID_POINTS``^4 grid, indexed
    by the four phases' grid indices: four contractions of one frequency axis
    with the (``PHASE_GRID_POINTS`` x 3) grid waves each."""
    values = coeffs.reshape(3, 3, 3, 3)
    for _ in range(4):
        # contract the leading frequency axis; its grid axis goes last
        values = np.tensordot(values, _GRID_WAVES, axes=(0, 1))
    return values.real


def _polynomial_derivatives(coeffs: np.ndarray):
    """theta -> (F, gradient, Hessian) of F(theta) = Re sum_f C_f e^{i theta.f},
    in closed form: -Im sum_f f C_f e^{i theta.f} and
    -Re sum_f f f^T C_f e^{i theta.f}."""
    def derivatives(theta: np.ndarray):
        terms = coeffs * np.exp(1j * (_FREQUENCIES @ theta))
        return (terms.sum().real, -(_FREQUENCIES.T @ terms).imag,
                -((_FREQUENCIES.T * terms) @ _FREQUENCIES).real)

    return derivatives


def phase_optimized_fidelity(chi: ChoiProcess,
                             chi_th: ChoiProcess) -> tuple[float, PhaseCorrection]:
    """Maximum process fidelity over the four local mode phases applied to chi,
    for a pair of which at least one argument is pure by the purity rule of
    ``fidelity``; two mixed arguments raise ``InvalidArgumentError``.

    With a pure argument the fidelity of the phase-corrected estimate is its
    overlap Tr[D chi D^dag chi_th], the trigonometric polynomial
    Re sum_f C_f e^{i theta.f} with frequencies f in {-1, 0, 1}^4. It is
    evaluated exactly on the ``PHASE_GRID_POINTS``^4 grid (which holds the
    zero-phase point) by four separable contractions, and the lowest grid
    index within 1e-12 of the grid maximum seeds at most ``PHASE_ROUNDS``
    Newton steps from the polynomial's closed-form gradient and Hessian.

    Each step is taken in the Hessian's eigenbasis: a Newton step along every
    direction of negative curvature, none along flat directions (a channel's
    phase symmetries, where the fidelity does not change) or along directions
    of positive curvature. A step that lowers the fidelity is refused and ends
    the rounds; so does an accepted step shorter than ``PHASE_TOL``. The
    lowest-index rule keeps the grid points tied by the phase symmetries from
    making the result depend on rounding: the returned phases are the seed's
    along them, one of many phase settings of the same value. The result is
    never below the raw fidelity.
    """
    raw = process_fidelity(chi, chi_th)
    if not (_is_pure(chi.choi) or _is_pure(chi_th.choi)):
        raise InvalidArgumentError(
            "phase-optimized fidelity needs a pure estimate or target (purity within "
            "1e-12 of 1); both are mixed")
    coeffs = _GATHER @ (chi.choi * chi_th.choi.T).ravel()
    values = _grid_values(coeffs).ravel()
    seed = np.argmax(values >= values.max() - 1e-12)
    theta = _GRID_AXIS[np.array(np.unravel_index(seed, (PHASE_GRID_POINTS,) * 4))]
    derivatives = _polynomial_derivatives(coeffs)
    value, grad, hess = derivatives(theta)
    for _ in range(PHASE_ROUNDS):
        curvatures, axes = np.linalg.eigh(hess)
        curved = curvatures < -_FLAT_CURVATURE * np.abs(curvatures).max()
        step = axes[:, curved] @ (axes[:, curved].T @ grad / -curvatures[curved])
        trial = derivatives(theta + step)
        if trial[0] < value:
            break
        theta, (value, grad, hess) = theta + step, trial
        if np.linalg.norm(step) < PHASE_TOL:
            break
    if value <= raw:
        return raw, PhaseCorrection.zero()
    return float(value), PhaseCorrection(tuple(theta))


# name -> (its value on an estimate m against a target t, the target it needs
# or None); each looks its function up when called, so a patched one runs
_METRICS = {
    "purity": (lambda m, t: purity(m), None),
    "trace": (lambda m, t: float(np.trace(_as_matrix(m)).real), None),
    "fidelity": (lambda m, t: fidelity(m, t), "a target state"),
    "process-fidelity": (lambda m, t: process_fidelity(m, t), "a target process"),
    "process-fidelity-optimized": (lambda m, t: phase_optimized_fidelity(m, t)[0], "a target"),
    "concurrence": (lambda m, t: concurrence(m), None),
    "log-negativity": (lambda m, t: log_negativity(m), None),
    "discord-q1": (lambda m, t: discord(m, 0), None),
    "discord-q2": (lambda m, t: discord(m, 1), None),
}
#: CLI / Monte Carlo metric names.
METRIC_NAMES = tuple(_METRICS)


def metric_function(name: str, target=None):
    """Resolve a metric name to a callable acting on an estimate.

    Fidelity-type metrics need a ``target`` (a DensityMatrix or a
    ChoiProcess); the discord variants encode the measured qubit.
    """
    if name not in _METRICS:
        raise InvalidArgumentError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    value, needs = _METRICS[name]
    if needs is not None and target is None:
        raise InvalidArgumentError(f"metric {name!r} needs {needs}")
    return lambda m: value(m, target)
