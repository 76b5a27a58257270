"""Coincidence-count tomography: forward simulation with Poisson statistics
and iterative maximum-likelihood reconstruction of states and processes.

The measurement model is a two-photon coincidence experiment: each input
qubit is prepared in one of six states {H, V, +, -, R, L} (36 preparation
pairs) and each output qubit is measured in one of three bases Z = {H, V},
X = {+, -}, Y = {R, L} (9 basis pairs x 4 outcomes). Physical acquisition
time is replaced by a configurable mean count per setting; the expected
count for a record is

    mean_counts * success_probability(preparation) * p(outcome | success).

Reconstruction maximizes the log-likelihood per count

    L(rho) = sum_j f_j log Tr[rho Pi_j],   R(rho) = sum_j f_j / Tr[rho Pi_j] Pi_j

over unit-trace PSD matrices, with relative frequencies f_j, by accelerated
projected-gradient ascent: each step moves along the gradient R(rho) - 1
from a Nesterov extrapolation and projects back with one eigendecomposition
and a simplex projection of its eigenvalues. A fit with every outcome
counted first takes one damped Newton step of its log-likelihood (Boyd &
Vandenberghe, Convex Optimization, section 9.5), solved as its Lagrangian
certificate's is and projected back the same way, which leaves the ascent
only a few steps to cover. Each fit bounds how far the
optimum lies above L(rho), in total nats, by one certificate chosen by its
data. With an outcome of no count it is ``gkg``: L is concave, so the gap is
at most (lambda_max(R(rho)) - 1) x N for the total count N (Glancy, Knill &
Girard), a bound that shrinks linearly with the distance to the optimum.
With every outcome counted it is ``lagrangian``: -sum_j n_j log Tr[rho Pi_j]
is self-concordant with the constant of its smallest count m, and weak
duality gives a bound through its Newton decrement, which shrinks
quadratically (``_lagrangian_gap``); such a fit tries it at every step once
its likelihood rose by at most ``MLEOptions.tol`` over its last min(5, k)
of k ascent steps. A fit stops ``certified`` once its bound is at most
``MLEOptions.tol`` nats (1 by default), and otherwise reports ``stalled``
(no ascent left at the numerical floor) or ``max_iter``. A fit given no
start begins at its
projected least-squares estimate: the linear inversion of the frequencies,
projected onto unit-trace PSD matrices (Guta, Kahn, Kueng & Tropp, J. Phys. A
53, 204001, 2020). A Monte Carlo resample starts instead at the estimate of
the dataset it was drawn from, and the resamples whose fit is not certified
are counted.

A dataset's counts are in frame order, and their shape picks its
reconstruction in ``reconstruct``: (9, 4) counts of one preparation
(output-state tomography) get the 4x4 density matrix, (36, 9, 4) counts of all
324 settings the process matrix. Records may come in any order, and those of
one preparation make a state, whose repeated bases add; files are written in
frame order, with null preparations for a state.
For process reconstruction the Choi matrix is treated as a 16x16
density-like object with effective operators E = rho_prep^T (x) Pi_out,
which sum to a multiple of the identity for this preparation/measurement
set. Nothing forms them: simulation and fit contract the two factor stacks
(``_Frame``; a state has a 1x1 preparation), and a simulated mean within
``PROBABILITY_WINDOW`` x ``mean_counts`` of 0 is exactly 0. Estimates are
unit trace; a process's success scale is estimated from its total counts.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    SINGLE_QUBIT_KETS,
    ChoiProcess,
    DensityMatrix,
    PureState,
)
from .errors import InvalidArgumentError, NumericalDomainError

PREP_LABELS = ("H", "V", "+", "-", "R", "L")
BASIS_LABELS = ("Z", "X", "Y")
BASIS_OUTCOME_STATES = {"Z": ("H", "V"), "X": ("+", "-"), "Y": ("R", "L")}
OUTCOME_KEYS = ("00", "01", "10", "11")

GENERATOR_NOTE = "numpy.random.Generator(PCG64).poisson"
#: Largest Poisson mean a simulation draws from; numpy's generator rejects
#: means above ~9.2e18.
MAX_POISSON_MEAN = 1e18


def derive_seed(seed: int, label: str) -> int:
    """Deterministic sub-seed: leading 8 bytes of sha256(f"{seed}|{label}")."""
    digest = hashlib.sha256(f"{seed}|{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def enumerate_preparations() -> list[tuple[str, str]]:
    return list(itertools.product(PREP_LABELS, PREP_LABELS))


def enumerate_bases() -> list[tuple[str, str]]:
    return list(itertools.product(BASIS_LABELS, BASIS_LABELS))


def enumerate_settings() -> list[tuple[tuple[str, str], tuple[str, str]]]:
    """All 324 (preparation, basis) pairs, preparation-major, in label order."""
    return [(p, b) for p in enumerate_preparations() for b in enumerate_bases()]


def prep_state(prep: tuple[str, str]) -> PureState:
    return PureState.from_labels(prep[0] + prep[1])


def outcome_projectors(basis: tuple[str, str]) -> np.ndarray:
    """(4, 4, 4) stack of projectors for outcomes 00, 01, 10, 11.

    Outcome bit 0 selects the first-listed basis state (H, + or R).
    """
    try:
        states1 = [SINGLE_QUBIT_KETS[s] for s in BASIS_OUTCOME_STATES[basis[0]]]
        states2 = [SINGLE_QUBIT_KETS[s] for s in BASIS_OUTCOME_STATES[basis[1]]]
    except KeyError as exc:
        raise InvalidArgumentError(f"unknown basis label {exc.args[0]!r}") from None
    projectors = np.empty((4, 4, 4), dtype=complex)
    for o1 in range(2):
        for o2 in range(2):
            ket = np.kron(states1[o1], states2[o2])
            projectors[2 * o1 + o2] = np.outer(ket, ket.conj())
    return projectors


#: (36, 4, 4) transposed preparation density matrices, in label order.
_PREP_TRANSPOSES = np.stack([prep_state(p).density().matrix.T
                             for p in enumerate_preparations()])
#: (36, 4, 4) outcome projectors of the 9 basis pairs, basis-major, in label order.
_PROJECTORS = np.concatenate([outcome_projectors(b) for b in enumerate_bases()])
_NO_PREPARATION = np.ones((1, 1, 1), complex)


def _pseudo_inverse(stack: np.ndarray) -> np.ndarray:
    """(A^dag A)^-1 A^dag, the pseudo-inverse of a ``stack`` A (n, k) of full
    column rank, by ``eigh`` of the Gram matrix: ``np.linalg.pinv`` would load
    a singular-value routine that no fit calls, 0.2-0.3 MiB of peak memory."""
    vals, vecs = np.linalg.eigh(stack.conj().T @ stack)
    return (vecs / vals) @ vecs.conj().T @ stack.conj().T


def _pauli_basis(dim: int) -> np.ndarray:
    """(dim^2, dim, dim) orthonormal Hermitian basis of dim x dim matrices:
    the products of identity and Pauli matrices, over sqrt(dim)."""
    single = np.stack([IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z]) / np.sqrt(2.0)
    basis = np.ones((1, 1, 1), complex)
    while basis.shape[-1] < dim:
        size = 2 * basis.shape[-1]
        basis = np.einsum("aij,bkl->abikjl", basis, single).reshape(-1, size, size)
    return basis


class _Frame:
    """The linear maps of the stacks ``left`` (P, a, a) and ``right`` (M, b, b),
    none of which forms a product left_p (x) right_m. ``probabilities`` is
    rho -> the (P, M) probabilities Tr[(left_p (x) right_m) rho], one
    contraction: with the realignment S[(j i), (l k)] = rho[(j l), (i k)],
    Tr[(left_p (x) right_m) rho] = vec(left_p^T) S vec(right_m^T).
    ``adjoint`` is weights -> sum_pm w_pm left_p (x) right_m, and
    ``least_squares`` inverts ``probabilities`` with the pseudo-inverses of
    the same two vectorized stacks, computed once here."""

    def __init__(self, left: np.ndarray, right: np.ndarray):
        (n_left, a, _), (n_right, b, _) = left.shape, right.shape
        self.dim = a * b
        self._left_t = left.transpose(0, 2, 1).reshape(n_left, a * a)
        self._right_t = right.transpose(0, 2, 1).reshape(n_right, b * b).T
        self._left, self._right = left.reshape(n_left, a * a), right.reshape(n_right, b * b)
        self._left_pinv = _pseudo_inverse(self._left_t)
        self._right_pinv = _pseudo_inverse(self._right_t.T).T
        cells = np.arange(self.dim ** 2)
        self._realign = cells.reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, -1)
        self._unalign = cells.reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(self.dim, -1)
        # the probabilities of a unit-trace matrix sum to Tr[sum(left) (x)
        # sum(right)] / dim when both sums are multiples of the identity, as
        # they are here: 81 for a process, 9 for a state
        self._probability_sum = (np.trace(left.sum(axis=0))
                                 * np.trace(right.sum(axis=0))).real / self.dim

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        return (self._left_t @ rho.ravel()[self._realign] @ self._right_t).real

    def adjoint(self, weights: np.ndarray) -> np.ndarray:
        return (self._left.T @ weights @ self._right).ravel()[self._unalign]

    def least_squares(self, freqs: np.ndarray) -> np.ndarray:
        """The Hermitian matrix whose probabilities lie nearest, in the
        Frobenius norm, to the frequencies ``freqs`` (P, M) scaled to the
        probability sum of a unit-trace matrix: linear inversion, exact on
        the probabilities of any matrix."""
        rho = self._left_pinv @ (self._probability_sum * freqs) @ self._right_pinv
        rho = rho.ravel()[self._unalign]
        return (rho + rho.conj().T) / 2.0

    @functools.cached_property
    def pauli(self) -> tuple:
        """The frame in product-Pauli coordinates, built on first use. With
        the orthonormal Pauli bases B_i of a x a and C_k of b x b Hermitian
        matrices, Tr[(left_p (x) right_m)(B_i (x) C_k)] = ell[p, i] r[m, k], so
        the design matrix of the coordinates X[i, k] = Tr[rho (B_i (x) C_k)]
        is ell (x) r: the probabilities are ell X r^T. Returns ell (P, a^2),
        r (M, b^2), the pseudo-inverses ell (ell^T ell)^-1 and
        (r^T r)^-1 r^T, the map from a Hermitian matrix to its X, the
        probabilities of the frame of the two bases, and its adjoint, the map
        from X back to sum_ik X[i, k] B_i (x) C_k. The tables are real but
        stored complex, as every other product of the fit: a real product
        or eigendecomposition would load BLAS and LAPACK kernels that no fit
        calls otherwise, ~0.8 MiB of peak memory."""
        a, b = (int(round(np.sqrt(n))) for n in (self._left.shape[1], self._right.shape[1]))
        bases = _Frame(_pauli_basis(a), _pauli_basis(b))
        ell = (self._left @ bases._left_t.T).real + 0j
        r = (self._right @ bases._right_t).real + 0j
        return (ell, r, _pseudo_inverse(ell).T, _pseudo_inverse(r), bases.probabilities,
                bases.adjoint)


_PROCESS_FRAME = _Frame(_PREP_TRANSPOSES, _PROJECTORS)
_STATE_FRAME = _Frame(_NO_PREPARATION, _PROJECTORS)

#: A simulated probability (Poisson mean over ``mean_counts``) within this
#: window of 0 is set to exactly 0, so a zero that rounds to 1e-33 draws
#: nothing from the generator either; one below it raises NumericalDomainError.
#: The contraction rounds zeros by at most ~3.4e-16. Validation accepts
#: eigenvalues down to -EIG_CLAMP = -1e-10, so probabilities down to -4e-10 x
#: success_scale (process) or -1e-10 x success probability (state), both at
#: most 1 for a post-selected gate: the window rejects none of them. A fit's
#: start that gives a counted outcome a probability within the window misses
#: it, and is mixed toward the maximally mixed state.
PROBABILITY_WINDOW = 1e-9


@dataclass
class CoincidenceDataset:
    """Coincidence counts in frame order: (36, 9, 4) by preparation pair,
    basis pair and two-photon outcome for a process, (9, 4) for the output
    state of one preparation. ``from_records`` reads records in any order.
    ``preps`` and ``bases`` label the records ``counts.reshape(-1, 4)`` in
    ``enumerate_settings`` order, the order files are written in, with
    preparation None for every record of a state: a one-preparation file
    loads as a state, and is written back with null preparations."""

    counts: np.ndarray
    mean_counts: float | None = None
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.shape not in ((36, 9, 4), (9, 4)) or (self.counts < 0).any():
            raise InvalidArgumentError("counts must be nonnegative, of shape (36, 9, 4) or (9, 4)")
        # the int64 total must not wrap: a float total screens, the exact one decides
        if self.counts.sum(dtype=float) > 2.0**62:
            total = sum(self.counts.ravel().tolist())
            if total > np.iinfo(np.int64).max:
                raise InvalidArgumentError(f"counts total {total} exceeds the int64 range")
        if self.mean_counts is not None:
            _check_mean_counts(self.mean_counts)

    @classmethod
    def from_records(cls, preps: list[tuple[str, str] | None], bases: list[tuple[str, str]],
                     counts, **fields) -> "CoincidenceDataset":
        """The dataset of the records (``preps[i]``, ``bases[i]``, ``counts[i]``)
        in any order, with the other ``fields``. Records of one known preparation
        (or None) make a state, which needs all 9 basis pairs and adds the counts of
        a repeated one; others make a process, which needs each setting once."""
        counts = np.asarray(counts, dtype=np.int64)
        if counts.shape != (len(preps), 4) or len(bases) != len(preps) or (counts < 0).any():
            raise InvalidArgumentError("each record needs two labels and four nonnegative counts")
        if len(set(preps)) <= 1:
            if preps and preps[0] is not None and preps[0] not in enumerate_preparations():
                raise InvalidArgumentError(f"unknown preparation {preps[0]}")
            index = {basis: i for i, basis in enumerate(enumerate_bases())}
            rows = [index.get(basis, -1) for basis in bases]
            if set(rows) != set(range(9)):
                raise InvalidArgumentError("state tomography needs counts for all 9 basis pairs")
            frame = np.zeros((9, 4), dtype=np.int64)
            np.add.at(frame, rows, counts)
            return cls(frame, **fields)
        index = {setting: i for i, setting in enumerate(enumerate_settings())}
        rows = [index.get(setting, -1) for setting in zip(preps, bases)]
        if sorted(rows) != list(range(324)):
            raise InvalidArgumentError(
                f"process tomography needs all 324 settings; dataset has {len(counts)} records")
        return cls(counts[np.argsort(rows)].reshape(36, 9, 4), **fields)

    @property
    def preps(self) -> list[tuple[str, str] | None]:
        return [None] * 9 if self.counts.ndim == 2 else [p for p, _ in enumerate_settings()]

    @property
    def bases(self) -> list[tuple[str, str]]:
        return enumerate_bases() * (len(self) // 9)

    def __len__(self):
        return self.counts.size // 4

    def total(self) -> int:
        return int(self.counts.sum())

    def restrict_to(self, prep: tuple[str, str]) -> "CoincidenceDataset":
        """The state dataset of one preparation of a process dataset."""
        preparations, prep = enumerate_preparations(), tuple(prep)
        if self.counts.ndim == 2 or prep not in preparations:
            raise InvalidArgumentError(f"dataset has no records for preparation {prep}")
        return replace(self, counts=self.counts[preparations.index(prep)].copy(),
                       metadata=dict(self.metadata))

    def resampled(self, rng: np.random.Generator) -> "CoincidenceDataset":
        """Poisson resample with the observed counts as means."""
        return replace(self, counts=_poisson(rng, self.counts), metadata=dict(self.metadata))


def _expected_counts(chi: ChoiProcess, mean_counts: float) -> np.ndarray:
    """(36, 9, 4) expected counts mean * 4 * scale * Tr[(prep^T (x) Pi) chi] by
    the fit's contraction of the two stacks, clamped by ``_clamped``."""
    lam = mean_counts * _PROCESS_FRAME.probabilities(chi.unnormalized())
    return _clamped(lam.reshape(36, 9, 4), mean_counts)


def _clamped(lam: np.ndarray, mean_counts: float) -> np.ndarray:
    """Poisson means ``lam`` with those within ``PROBABILITY_WINDOW`` x
    ``mean_counts`` of 0 set to exactly 0; a mean below the window raises."""
    window = PROBABILITY_WINDOW * mean_counts
    if lam.min() < -window:
        raise NumericalDomainError(f"setting probability {lam.min() / mean_counts:.3e} "
                                   f"below -PROBABILITY_WINDOW = -{PROBABILITY_WINDOW:g}")
    return np.where(np.abs(lam) <= window, 0.0, lam)


def _check_mean_counts(mean_counts: float):
    if not 0.0 < mean_counts < np.inf:
        raise InvalidArgumentError("mean_counts must be positive")


def _poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Poisson draws with means ``lam``, none above ``MAX_POISSON_MEAN``."""
    if (lam > MAX_POISSON_MEAN).any():
        raise InvalidArgumentError(
            f"Poisson mean {lam.max():.3g} exceeds MAX_POISSON_MEAN = {MAX_POISSON_MEAN:g}")
    return rng.poisson(lam)


def _poisson_dataset(lam: np.ndarray, mean_counts: float, seed: int) -> CoincidenceDataset:
    """Counts drawn from Poisson means ``lam`` in frame order with ``PCG64(seed)``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return CoincidenceDataset(_poisson(rng, lam), mean_counts=float(mean_counts),
                              seed=int(seed), metadata={"generator": GENERATOR_NOTE})


def simulate_counts(chi: ChoiProcess, mean_counts: float, seed: int) -> CoincidenceDataset:
    """Simulate the full 324-setting coincidence experiment.

    Each count is drawn independently from a Poisson distribution whose mean
    is ``mean_counts`` scaled by the preparation's success probability and
    the conditional outcome probability.
    """
    _check_mean_counts(mean_counts)
    return _poisson_dataset(_expected_counts(chi, mean_counts), mean_counts, seed)


def simulate_state_counts(rho: DensityMatrix, success_probability: float,
                          mean_counts: float, seed: int) -> CoincidenceDataset:
    """Simulate output-state tomography of a fixed two-qubit state.

    The nine basis settings are measured with expected counts
    ``mean_counts * success_probability * p(outcome)``.
    """
    if rho.qubits != 2:
        raise InvalidArgumentError("state tomography records are two-qubit")
    _check_mean_counts(mean_counts)
    probs = _STATE_FRAME.probabilities(rho.matrix).reshape(9, 4)
    lam = _clamped(mean_counts * success_probability * probs, mean_counts)
    return _poisson_dataset(lam, mean_counts, seed)


@dataclass(frozen=True)
class MLEOptions:
    """``tol``: certified gap target in total nats, met by the fit's one
    certificate: the Lagrangian bound of ``_lagrangian_gap`` when every
    outcome is counted, (lambda_max(R) - 1) x N otherwise; ``max_iter``: most
    accelerated steps before a fit ends ``max_iter``."""

    tol: float = 1.0
    max_iter: int = 5000

    def __post_init__(self):
        # a NaN tol would certify every fit, since ``gap > nan`` is false
        if not 0.0 < self.tol < np.inf:
            raise InvalidArgumentError(f"tol must be finite and positive, not {self.tol!r}")
        if (isinstance(self.max_iter, bool) or not isinstance(self.max_iter, (int, np.integer))
                or self.max_iter < 0):
            raise InvalidArgumentError(
                f"max_iter must be a nonnegative integer, not {self.max_iter!r}")


@dataclass
class ReconstructionReport:
    """A fit and how it ended. ``gap`` bounds, in total nats, how far the
    log-likelihood of ``estimate`` lies below the maximum, and
    ``metadata["certificate"]`` names the bound it comes from: ``lagrangian``,
    the bound of ``_lagrangian_gap``, or ``gkg``, (lambda_max(R) - 1) x N. A
    certified fit reports its certificate at ``estimate``: ``lagrangian``
    when every outcome is counted, ``gkg`` otherwise. A fit that ends
    uncertified with every outcome counted reports the smaller of
    (lambda_max(R) - 1) x N at ``estimate`` and the last Lagrangian bound it
    tried, which still holds since the likelihood only rose. At the rounding
    floor of a fit at its optimum the gap can read slightly below 0 (~-1e-9
    at 1e6 counts; the Lagrangian bound's N (1 - Tr rho) read -7e-9 at 1e5).
    ``status`` is ``certified`` (gap at most ``MLEOptions.tol``), ``stalled``
    or ``max_iter``."""

    estimate: DensityMatrix | ChoiProcess
    iterations: int
    final_log_likelihood: float
    gap: float
    status: str
    log_likelihoods: list[float] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)

    @property
    def converged(self) -> bool:
        return self.status == "certified"


#: Step-size factors of the projected-gradient ascent: growth after each
#: accepted step, shrink per backtracking trial.
_STEP_GROWTH, _STEP_SHRINK = 1.5, 0.5
#: The momentum restarts when the extrapolated point would lower a counted
#: probability below this fraction of its value at the current estimate.
_MOMENTUM_FLOOR = 0.5
#: A fit with every outcome counted tries its Lagrangian certificate at every
#: step once its likelihood rose by at most ``tol`` over the last
#: min(``_LAGRANGIAN_WINDOW``, k) of its k accepted steps.
_LAGRANGIAN_WINDOW = 5
#: Eigenvalues of the estimate at most this span the subspace on which the
#: certificate's multiplier cancels the negative part of the gradient.
_NULL_EIGENVALUE = 1e-3
#: Jacobi-preconditioned conjugate-gradient steps toward the Newton step.
_CG_STEPS = 10
#: Damping factors t that the first step of a fit with every outcome counted
#: tries, in order, on its Newton step: project(rho + t x step).
_NEWTON_DAMPING = (1.0, 0.5, 0.25, 0.125)


def _project_unit_trace_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest unit-trace PSD matrix to the Hermitian ``m``: its
    eigenvalues projected onto the probability simplex (Smolin, Gambetta &
    Smith, PRL 108, 070502, 2012)."""
    vals, vecs = np.linalg.eigh(m)
    desc = vals[::-1]
    shift = (np.cumsum(desc) - 1.0) / np.arange(1, len(desc) + 1)
    mu = np.maximum(vals - shift[np.count_nonzero(desc > shift) - 1], 0.0)
    return (vecs * mu) @ vecs.conj().T


def _newton_solve(frame: _Frame, counts: np.ndarray, probs: np.ndarray,
                  target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X, w): ``_CG_STEPS`` Jacobi-preconditioned conjugate-gradient steps
    toward the solution X of H X = ``target`` in the frame's Pauli
    coordinates, where H X = ell^T (w * ell X r^T) r with w = n / p^2 is the
    Hessian of -sum_j n_j log p_j at the probabilities ``probs`` (P, M), and
    the weights w themselves."""
    ell, r = frame.pauli[:2]
    weights = counts / probs**2

    def hessian(x):
        return ell.T @ (weights * (ell @ x @ r.T)) @ r

    diagonal = ((ell * ell).T @ weights @ (r * r)).real
    x, residual = np.zeros_like(target), target
    precond = residual / diagonal
    direction, rz = precond, np.vdot(residual, precond).real
    for _ in range(_CG_STEPS):
        if not rz > 0.0:  # the residual vanished: x is the Newton step
            break
        h_dir = hessian(direction)
        alpha = rz / np.vdot(direction, h_dir).real
        x, residual = x + alpha * direction, residual - alpha * h_dir
        precond = residual / diagonal
        rz, rz_prev = np.vdot(residual, precond).real, rz
        direction = precond + (rz / rz_prev) * direction
    return x, weights


def _lagrangian_gap(frame: _Frame, counts: np.ndarray, rho: np.ndarray) -> float:
    """A bound on N (L* - L(rho)) in total nats from counts (P, M), or inf
    when it proves nothing: always when an outcome has a count below 1, as
    one with no count has, for which the argument below fails.

    For any Z >= 0, weak duality bounds the maximum over unit-trace PSD
    matrices by the unconstrained supremum of the Lagrangian
    Phi(s) = sum_j n_j log p_j(s) + Tr[Z s] + N (1 - Tr s). Each -log p_j is
    self-concordant, and with every n_j at least the smallest count m, -Phi / m
    is too (Nesterov & Nemirovski 1994; Nesterov, Lectures on Convex
    Optimization, 2018, section 5.1): -Phi is (2 / sqrt(m))-self-concordant.
    For a Newton decrement lam < sqrt(m) of Phi at rho, the decrement of
    Phi / m is lam / sqrt(m), so sup Phi - Phi(rho) <= m omega*(lam / sqrt(m))
    with omega*(t) = -t - ln(1 - t) (Boyd & Vandenberghe section 9.6.3 at
    m = 1). That gives

        L* - L(rho) <= Tr[Z rho] + N (1 - Tr rho) + m omega*(lam / sqrt(m)).

    Z = N Q [-Q^dag G Q]_+ Q^dag, with Q the eigenvectors of rho of eigenvalue
    at most ``_NULL_EIGENVALUE`` and G = R(rho) - 1, cancels the part of the
    gradient N G + Z that the positivity constraint holds back; any Z >= 0
    keeps the bound valid. The Hessian sum_j n_j E_j E_j^T / p_j^2 is never
    formed: in the frame's Pauli coordinates the design matrix is ell (x) r,
    so it acts on X as ell^T (w * ell X r^T) r with w = n / p^2. A few
    preconditioned conjugate-gradient steps approximate the Newton step X
    (``_newton_solve``), v = w * ell X r^T is corrected by the pseudo-inverses
    of ell and r so that ell^T v r equals the gradient exactly, and then
    sum v^2 / w bounds lam^2 = min {sum v^2 / w : ell^T v r = gradient} from
    above, however inexact X was.
    """
    smallest = counts.min()
    if not smallest >= 1.0:
        return np.inf
    ell, r, ell_pinv, r_pinv, coordinates, _ = frame.pauli
    probs = frame.probabilities(rho)
    total = counts.sum()
    r_op = frame.adjoint(counts / probs)
    grad = (r_op + r_op.conj().T) / 2.0 - total * np.eye(frame.dim)
    vals, vecs = np.linalg.eigh(rho)
    q = vecs[:, vals <= _NULL_EIGENVALUE]
    held_vals, held_vecs = np.linalg.eigh(q.conj().T @ grad @ q)
    held = q @ held_vecs[:, held_vals < 0.0]
    z = -(held * held_vals[held_vals < 0.0]) @ held.conj().T
    target = coordinates(grad + z) + 0j
    x, weights = _newton_solve(frame, counts, probs, target)
    v = weights * (ell @ x @ r.T)
    v += ell_pinv @ (target - ell.T @ v @ r) @ r_pinv
    # an imaginary part of v, from rounding in the pseudo-inverses, only
    # raises the sum, which stays an upper bound
    scaled = float(np.sqrt(np.sum(np.abs(v)**2 / weights) / smallest))
    if not scaled < 1.0:
        return np.inf
    return float(np.vdot(z, rho).real + total * (1.0 - np.trace(rho).real)
                 - smallest * (scaled + np.log1p(-scaled)))


def _iterate_rho_r(frame: _Frame, counts: np.ndarray, options: MLEOptions | None,
                   start: np.ndarray | None) -> ReconstructionReport:
    """Accelerated projected-gradient maximum likelihood with a certified stop.

    The operators E_pm = left_p (x) right_m of the stacks of ``frame`` and
    ``counts`` (P, M) are never formed: the frame contracts the stacks into
    the probabilities Tr[E_pm rho], and R(rho) = sum_pm f_pm / p_pm E_pm is
    its adjoint of the weights f / p. A cold fit (``start`` None) begins at
    the projected least-squares estimate, the frame's inversion of the
    frequencies projected onto unit-trace PSD matrices (Guta, Kahn, Kueng &
    Tropp, J. Phys. A 53, 204001, 2020), which leaves the fit only the
    statistical distance to cover. A start that gives a counted outcome a
    probability within ``PROBABILITY_WINDOW`` of 0 is first mixed halfway to
    the maximally mixed state. A fit with every outcome counted then takes
    its first step as one damped Newton move: ``_newton_solve`` takes the
    Hessian of the total log-likelihood against its gradient N (R - 1) in the
    frame's Pauli coordinates, with no multiplier, and the adjoint of the
    Pauli frame maps that step back to a matrix. The move is to the first
    projection of rho + t x step, for t in ``_NEWTON_DAMPING`` (1, 1/2, 1/4,
    1/8), whose likelihood rises; if none rises the fit takes no move. A
    move that rose by at most ``options.tol`` nats tries the Lagrangian
    certificate at once, as a start already near its maximum. The ascent
    then starts there with step size 1, theta 1 and no momentum, and its
    Lagrangian window counts only its own steps. A step carries over the
    iterate rho, the step size, the Nesterov weight theta, the gap and the
    last accepted move with its momentum (Shang, Zhang & Ng, PRA 95, 062336,
    2017). It first derives the extrapolated point rho + momentum x move: a
    momentum of 0 restarts from rho, as does an extrapolation that would
    halve a counted probability, which also resets theta to 1. It then moves
    along the gradient R - 1 from that point and projects back onto
    unit-trace PSD matrices, with a backtracking step size. A step that does
    not raise the likelihood sets the momentum to 0 and theta to 1, and ends
    the fit ``stalled`` if it started from rho. Every likelihood change is
    computed from the probabilities of the step itself, not as a difference
    of two likelihoods, so ascent stays testable far below their ~1e-16
    rounding.
    Each accepted step tests one certificate, chosen by ``counts`` and named
    in ``metadata["certificate"]``. With a count below 1 it is ``gkg``: by
    concavity L* - L(rho) <= lambda_max(R(rho)) - 1 per count (Glancy, Knill
    & Girard, NJP 14, 095017, 2012), a bound that shrinks only linearly with
    the distance to the optimum, tested at the top of each step from the
    gradient at rho, which a restart then ascends along. With every outcome
    counted it is ``lagrangian``: the bound of ``_lagrangian_gap``, which
    shrinks quadratically, tried once the likelihood rose by at most
    ``options.tol`` nats over the last min(``_LAGRANGIAN_WINDOW``, k) of k
    accepted steps; such a fit forms no lambda_max(R). The fit ends
    ``certified`` once its bound is at most ``options.tol`` nats, and
    ``max_iter`` after ``options.max_iter`` steps; an uncertified fit reports
    the smaller of lambda_max(R) - 1 at its estimate, in total nats, and the
    last Lagrangian bound it tried, and names it. Log-likelihoods, per count,
    never decrease; callers wrap the fitted matrix in their estimate type and
    metadata.
    """
    options = options or MLEOptions()
    total = counts.sum()
    if total <= 0:
        raise InvalidArgumentError("dataset holds no counts")
    probs_of, dim = frame.probabilities, frame.dim
    counted = np.flatnonzero(counts)
    freqs = counts.take(counted) / total
    eye = np.eye(dim)

    def rise(shift_probs, p, shift, base):
        """L(base + shift) - L(base) of the trace-normalized matrices, from the
        probabilities p of ``base`` and those of ``shift`` itself."""
        ratio = shift_probs.take(counted) / p.take(counted)
        if ratio.min() <= -1.0:
            return -np.inf
        return float(freqs @ np.log1p(ratio)
                     - np.log1p(np.trace(shift).real / np.trace(base).real))

    def gradient(p):  # R(rho) - 1, the gradient on unit-trace matrices
        weights = np.zeros(p.size)
        weights[counted] = freqs / p.take(counted)
        r_op = frame.adjoint(weights.reshape(p.shape))
        return (r_op + r_op.conj().T) / 2.0 - eye

    def gap_of(grad):  # (lambda_max(R) - 1) x N, in total nats
        return float(np.linalg.eigvalsh(grad)[-1]) * total

    rho = (_project_unit_trace_psd(frame.least_squares(counts / total)) if start is None
           else start.copy())
    probs = probs_of(rho)
    # a rank-deficient start can round a counted outcome's zero to ~1e-33,
    # whose gradient f / p no step can follow
    if probs.take(counted).min() <= PROBABILITY_WINDOW:
        rho = (rho + eye / dim) / 2.0
        probs = probs_of(rho)
    current = float(freqs @ np.log(probs.take(counted)))
    trace_log = [current]
    step, theta, iterations, status = 1.0, 1.0, 0, "certified"
    # the last accepted move and its probabilities, and the momentum it carries
    move = move_probs = momentum = 0.0
    # with every outcome counted the gap is the last Lagrangian bound tried
    lagrangian, gap = counts.min() >= 1.0, np.inf
    if lagrangian and options.max_iter:
        # the first step: the damped Newton step of the log-likelihood, with no
        # multiplier Z, which would pin the support whose rotation holds most
        # of a resample's error
        *_, coordinates, matrix_of = frame.pauli
        newton = matrix_of(_newton_solve(frame, counts, probs,
                                         coordinates(total * gradient(probs)) + 0j)[0])
        newton = (newton + newton.conj().T) / 2.0
        for damping in _NEWTON_DAMPING:
            cand = _project_unit_trace_psd(rho + damping * newton)
            diff = cand - rho
            diff_probs = probs_of(diff)
            cand_rise = rise(diff_probs, probs, diff, rho)
            if cand_rise > 0.0:
                rho, probs, current, iterations = cand, probs + diff_probs, current + cand_rise, 1
                trace_log.append(current)
                if cand_rise * total <= options.tol:  # a start already near its maximum
                    gap = _lagrangian_gap(frame, counts, rho)
                break
    # the ascent's Lagrangian window starts after the first step's move
    ascent_start = len(trace_log) - 1
    while True:
        # the extrapolated point sigma = rho + momentum x move: its
        # probabilities, those of the shift, its gradient and L(sigma) - L(rho)
        shift_probs = momentum * move_probs
        sig_probs = probs + shift_probs
        if momentum and (sig_probs.take(counted) < _MOMENTUM_FLOOR * probs.take(counted)).any():
            momentum, theta = 0.0, 1.0
        # the gradient at the iterate gives the GKG gap and a restart's ascent
        grad = gradient(probs) if momentum == 0.0 or not lagrangian else None
        if not lagrangian:
            gap = gap_of(grad)
        if not gap > options.tol:
            break
        if iterations == options.max_iter:
            status = "max_iter"
            break
        iterations += 1
        if momentum == 0.0:  # restart from the iterate itself
            sigma, sig_probs, shift_probs, sig_rise, sig_grad = rho, probs, 0.0, 0.0, grad
        else:
            shift = momentum * move
            sigma = rho + shift
            sig_grad, sig_rise = gradient(sig_probs), rise(shift_probs, probs, shift, rho)
        while True:  # backtrack until the quadratic model bounds the step
            cand = _project_unit_trace_psd(sigma + step * sig_grad)
            diff = cand - sigma
            diff_probs = probs_of(diff)
            cand_rise = rise(diff_probs, sig_probs, diff, sigma)
            model = np.vdot(sig_grad, diff).real - np.vdot(diff, diff).real / (2 * step)
            if cand_rise >= model or step < 1e-30:
                break
            step *= _STEP_SHRINK
        cand_rise += sig_rise
        if not cand_rise > 0.0:
            if momentum == 0.0:
                status = "stalled"
                break
            momentum, theta = 0.0, 1.0
            continue
        theta_next = (1.0 + np.sqrt(1.0 + 4.0 * theta * theta)) / 2.0
        momentum, theta = (theta - 1.0) / theta_next, theta_next
        move, move_probs = cand - rho, shift_probs + diff_probs
        rho, probs, current = cand, sig_probs + diff_probs, current + cand_rise
        trace_log.append(current)
        step *= _STEP_GROWTH
        window = min(_LAGRANGIAN_WINDOW, len(trace_log) - 1 - ascent_start)
        if lagrangian and (current - trace_log[-1 - window]) * total <= options.tol:
            gap = _lagrangian_gap(frame, counts, rho)
    certificate = "lagrangian" if lagrangian else "gkg"
    if lagrangian and status != "certified":
        # the last bound tried still holds, since the likelihood only rose
        gkg_gap = gap_of(gradient(probs))
        if gkg_gap < gap:
            gap, certificate = gkg_gap, "gkg"

    return ReconstructionReport(
        estimate=rho,
        iterations=iterations,
        final_log_likelihood=current,
        gap=gap,
        status=status,
        log_likelihoods=trace_log,
        metadata={"total_counts": int(total), "certificate": certificate},
    )


def _state_operators(data: CoincidenceDataset) -> tuple[_Frame, np.ndarray]:
    """The state frame and the counts in its projector order, as one row."""
    return _STATE_FRAME, data.counts.reshape(1, 36)


def mle_density_matrix(data: CoincidenceDataset,
                       options: MLEOptions | None = None,
                       start: DensityMatrix | None = None) -> ReconstructionReport:
    """Maximum-likelihood two-qubit state from the counts of one preparation."""
    if data.counts.ndim != 2:
        raise InvalidArgumentError("dataset holds more than one preparation")
    fit = _iterate_rho_r(*_state_operators(data), options,
                         None if start is None else start.matrix)
    return replace(fit, estimate=DensityMatrix(fit.estimate),
                   metadata={"kind": "state", **fit.metadata})


def _process_operators(data: CoincidenceDataset) -> tuple[_Frame, np.ndarray]:
    """The process frame and the counts in its setting order, 36 x 36."""
    return _PROCESS_FRAME, data.counts.reshape(36, 36)


def mle_process_matrix(data: CoincidenceDataset,
                       options: MLEOptions | None = None,
                       start: ChoiProcess | None = None) -> ReconstructionReport:
    """Maximum-likelihood unit-trace Choi matrix from a full 324-setting dataset.

    Trace preservation is deliberately not enforced: the gate is
    post-selected and trace-decreasing. The success scale is estimated from
    the grand total counts relative to the dataset's nominal mean counts.
    """
    if data.counts.ndim != 3:
        raise InvalidArgumentError(
            f"process tomography needs all 324 settings; dataset has {len(data)} records")
    fit = _iterate_rho_r(*_process_operators(data), options,
                         None if start is None else start.choi)
    if data.mean_counts:
        # grand total = 324 * mean_counts * scale for this measurement set
        scale = data.total() / (324.0 * data.mean_counts)
        scale_note = "estimated from grand total counts relative to mean_counts"
    else:
        scale = 1.0
        scale_note = "mean_counts unavailable; success scale left at 1"
    return replace(fit, estimate=ChoiProcess(fit.estimate, success_scale=scale), metadata={
        "kind": "process",
        **fit.metadata,
        "success_scale_note": scale_note,
        "rate_normalization": "relative total counts per preparation",
    })


def reconstruct(data: CoincidenceDataset, options: MLEOptions | None = None,
                start=None) -> ReconstructionReport:
    """State MLE for a state dataset, process MLE for a process dataset."""
    fit = mle_density_matrix if data.counts.ndim == 2 else mle_process_matrix
    return fit(data, options, start)


def _resamples(data: CoincidenceDataset, n: int, seed: int):
    """Yield ``n`` Poisson resamples of ``data``; resample i draws from the
    sub-seed (seed, f"sample:{i}"), so samples may be computed in any order
    and every pass over the same ``seed`` yields the same datasets."""
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"sample:{i}")))
        yield data.resampled(rng)


class MetricTable(dict):
    """Metric name -> (Monte Carlo mean, std), in ``uncertified`` the number
    of resamples whose fit ended without a certified gap, and in ``totals``
    each resample's total count, in resample order."""

    def __init__(self, values: dict, uncertified: int = 0, totals: tuple = ()):
        super().__init__(values)
        self.uncertified = uncertified
        self.totals = totals


def monte_carlo_metric_table(data: CoincidenceDataset, n_samples: int,
                             metrics: dict, seed: int, *, start) -> MetricTable:
    """Monte Carlo means/stds of several metrics sharing the same resamples.

    ``metrics`` maps a name to a function of an estimate: a DensityMatrix
    when ``data`` is a state dataset, a ChoiProcess otherwise. Resamples come
    from ``_resamples(data, n_samples, seed)``, and every resample's
    reconstruction starts at ``start``, the estimate of ``data`` itself.
    Every resample counts, certified or not; the table says how many were not.
    """
    if n_samples < 2:
        raise InvalidArgumentError("Monte Carlo needs n_samples >= 2")
    values = {name: [] for name in metrics}
    uncertified, totals = 0, []
    for sample in _resamples(data, n_samples, seed):
        fit = reconstruct(sample, start=start)
        uncertified += fit.status != "certified"
        totals.append(fit.metadata["total_counts"])
        for name, fn in metrics.items():
            values[name].append(fn(fit.estimate))
    out = {}
    for name, vals in values.items():
        arr = np.asarray(vals)
        out[name] = (float(arr.mean()), float(arr.std(ddof=1)))
    return MetricTable(out, uncertified, tuple(totals))
