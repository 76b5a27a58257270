"""Coincidence-count tomography: forward simulation with Poisson statistics
and iterative maximum-likelihood reconstruction of states and processes.

The measurement model is a two-photon coincidence experiment: each input
qubit is prepared in one of six states {H, V, +, -, R, L} (36 preparation
pairs) and each output qubit is measured in one of three bases Z = {H, V},
X = {+, -}, Y = {R, L} (9 basis pairs x 4 outcomes). Physical acquisition
time is replaced by a configurable mean count per setting; the expected
count for a record is

    mean_counts * success_probability(preparation) * p(outcome | success).

Reconstruction runs the R-rho-R fixed point

    rho <- N[R(rho) rho R(rho)],   R(rho) = sum_j f_j / Tr[rho Pi_j] Pi_j

with relative frequencies f_j, starting at the maximally mixed state; a
Monte Carlo resample starts instead at the estimate of the dataset it was
drawn from. The dataset picks its reconstruction in ``reconstruct``: one
with a single preparation (output-state tomography, 9 basis records) gets
the 4x4 density matrix, any other gets the process matrix and must hold all
324 settings. For process reconstruction the Choi matrix is treated as a
16x16 density-like object with effective operators E = rho_prep^T (x)
Pi_out, which sum to a multiple of the identity for this
preparation/measurement set; only the simulation forms them, the fit
contracts the two factor stacks. Reconstructed matrices are unit trace; the
trace-decreasing success scale of a process is recovered separately from
the relative total counts per preparation.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .core import (
    SINGLE_QUBIT_KETS,
    ChoiProcess,
    DensityMatrix,
    PureState,
    channel_output_unnormalized,
)
from .errors import DegenerateOutcomeError, InvalidArgumentError

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


def outcome_probabilities(chi: ChoiProcess, prep: tuple[str, str],
                          basis: tuple[str, str]) -> np.ndarray:
    """The four outcome probabilities conditioned on coincidence success."""
    out = channel_output_unnormalized(prep_state(prep).density(), chi)
    weight = float(np.trace(out).real)
    if weight < 1e-14:
        raise DegenerateOutcomeError(f"channel annihilates preparation {prep}", 0.0)
    projectors = outcome_projectors(basis)
    probs = np.einsum("oij,ji->o", projectors, out).real / weight
    return np.clip(probs, 0.0, None)


#: (36, 4, 4) transposed preparation density matrices, in label order.
_PREP_TRANSPOSES = np.stack([prep_state(p).density().matrix.T
                             for p in enumerate_preparations()])
#: (9, 4, 4, 4) outcome projectors of every basis pair, in label order.
_BASIS_PROJECTORS = np.stack([outcome_projectors(b) for b in enumerate_bases()])
_BASIS_INDEX = {b: i for i, b in enumerate(enumerate_bases())}
_SETTING_INDEX = {s: i for i, s in enumerate(enumerate_settings())}


@dataclass
class CoincidenceDataset:
    """Counts indexed by (preparation pair, basis pair, two-photon outcome).

    ``preps[i]`` may be None for output-state tomography records where the
    preparation is fixed outside the six-state set.
    """

    preps: list[tuple[str, str] | None]
    bases: list[tuple[str, str]]
    counts: np.ndarray  # (n_records, 4) nonnegative integers
    mean_counts: float | None = None
    seed: int | None = None
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if self.counts.ndim != 2 or self.counts.shape[1] != 4:
            raise InvalidArgumentError("counts must have shape (n_records, 4)")
        if len(self.preps) != len(self.bases) or len(self.preps) != self.counts.shape[0]:
            raise InvalidArgumentError("record field lengths disagree")
        if (self.counts < 0).any():
            raise InvalidArgumentError("counts must be nonnegative")
        if self.mean_counts is not None:
            _check_mean_counts(self.mean_counts)

    def __len__(self):
        return self.counts.shape[0]

    def total(self) -> int:
        return int(self.counts.sum())

    def restrict_to(self, prep: tuple[str, str] | None) -> "CoincidenceDataset":
        idx = [i for i, p in enumerate(self.preps) if p == (tuple(prep) if prep else None)]
        if not idx:
            raise InvalidArgumentError(f"dataset has no records for preparation {prep}")
        return CoincidenceDataset(
            preps=[self.preps[i] for i in idx],
            bases=[self.bases[i] for i in idx],
            counts=self.counts[idx],
            mean_counts=self.mean_counts,
            seed=self.seed,
            metadata=dict(self.metadata),
        )

    def require_full(self):
        """Check all 36 x 9 settings are present exactly once."""
        seen = {(p, b) for p, b in zip(self.preps, self.bases) if p is not None}
        if seen != _SETTING_INDEX.keys() or len(self) != 324:
            raise InvalidArgumentError(
                f"process tomography needs all 324 settings; dataset has {len(self)} records"
            )

    def single_preparation(self) -> tuple[str, str] | None:
        values = set(self.preps)
        if len(values) != 1:
            raise InvalidArgumentError("dataset holds more than one preparation")
        return next(iter(values))

    def resampled(self, rng: np.random.Generator) -> "CoincidenceDataset":
        """Poisson resample with the observed counts as means."""
        return CoincidenceDataset(
            preps=list(self.preps),
            bases=list(self.bases),
            counts=_poisson(rng, self.counts),
            mean_counts=self.mean_counts,
            seed=self.seed,
            metadata=dict(self.metadata),
        )


def _expected_counts(chi: ChoiProcess, mean_counts: float) -> np.ndarray:
    """(324, 4) expected counts: mean * 4 * scale * Tr[(prep^T (x) Pi) chi],
    over the 1296 formed products: a Poisson draw uses the generator for any
    mean above 0, so a mean that rounds to 9e-34 rather than 0 must keep it."""
    table = np.einsum("pij,bokl->pboikjl", _PREP_TRANSPOSES, _BASIS_PROJECTORS)
    lam = mean_counts * np.einsum("nij,ji->n", table.reshape(1296, 16, 16),
                                  chi.unnormalized()).real
    return np.clip(lam.reshape(324, 4), 0.0, None)


def _check_mean_counts(mean_counts: float):
    if not 0.0 < mean_counts < np.inf:
        raise InvalidArgumentError("mean_counts must be positive")


def _poisson(rng: np.random.Generator, lam: np.ndarray) -> np.ndarray:
    """Poisson draws with means ``lam``, none above ``MAX_POISSON_MEAN``."""
    if (lam > MAX_POISSON_MEAN).any():
        raise InvalidArgumentError(
            f"Poisson mean {lam.max():.3g} exceeds MAX_POISSON_MEAN = {MAX_POISSON_MEAN:g}")
    return rng.poisson(lam)


def _poisson_dataset(preps, bases, lam: np.ndarray, mean_counts: float,
                     seed: int) -> CoincidenceDataset:
    """Counts drawn from Poisson means ``lam`` with ``PCG64(seed)``."""
    rng = np.random.Generator(np.random.PCG64(seed))
    return CoincidenceDataset(
        preps=preps,
        bases=bases,
        counts=_poisson(rng, lam),
        mean_counts=float(mean_counts),
        seed=int(seed),
        metadata={"generator": GENERATOR_NOTE},
    )


def simulate_counts(chi: ChoiProcess, mean_counts: float, seed: int) -> CoincidenceDataset:
    """Simulate the full 324-setting coincidence experiment.

    Each count is drawn independently from a Poisson distribution whose mean
    is ``mean_counts`` scaled by the preparation's success probability and
    the conditional outcome probability.
    """
    _check_mean_counts(mean_counts)
    settings = enumerate_settings()
    return _poisson_dataset([p for p, _ in settings], [b for _, b in settings],
                            _expected_counts(chi, mean_counts), mean_counts, seed)


def simulate_state_counts(rho: DensityMatrix, success_probability: float,
                          mean_counts: float, seed: int) -> CoincidenceDataset:
    """Simulate output-state tomography of a fixed two-qubit state.

    The nine basis settings are measured with expected counts
    ``mean_counts * success_probability * p(outcome)``.
    """
    if rho.qubits != 2:
        raise InvalidArgumentError("state tomography records are two-qubit")
    _check_mean_counts(mean_counts)
    probs = np.einsum("boij,ji->bo", _BASIS_PROJECTORS, rho.matrix).real
    lam = mean_counts * success_probability * np.clip(probs, 0.0, None)
    return _poisson_dataset([None] * 9, enumerate_bases(), lam, mean_counts, seed)


@dataclass
class MLEOptions:
    tol: float = 1e-10
    max_iter: int = 5000


@dataclass
class ReconstructionReport:
    estimate: DensityMatrix | ChoiProcess
    iterations: int
    final_log_likelihood: float
    converged: bool
    log_likelihoods: list[float] = field(default_factory=list)
    metadata: dict = field(default_factory=dict)


def _iterate_rho_r(left: np.ndarray, right: np.ndarray, counts: np.ndarray,
                   options: MLEOptions | None, start: np.ndarray | None) -> ReconstructionReport:
    """Shared R-rho-R fixed point with a monotonicity safeguard.

    The operators E_pm = left_p (x) right_m of ``left`` (P, a, a), ``right``
    (M, b, b) and ``counts`` (P, M) are never formed: with the realignment
    S[(j i), (l k)] = rho[(j l), (i k)], Tr[E_pm rho] = vec(left_p^T) S
    vec(right_m^T), and sum_pm w_pm E_pm realigns vec(left)^T W vec(right).
    Log-likelihoods are mean natural-log likelihood per count; the recorded
    sequence is non-decreasing by construction (steps that would lower it are
    diluted toward the identity, and the iteration stops at the numerical
    floor if no ascent direction remains). The report's estimate is the fitted
    matrix; callers wrap it in their estimate type and add their own metadata.
    """
    options = options or MLEOptions()
    total = counts.sum()
    if total <= 0:
        raise InvalidArgumentError("dataset holds no counts")
    freqs = counts / total
    (n_left, a, _), (n_right, b, _) = left.shape, right.shape
    dim = a * b
    left_vec, right_vec = left.reshape(n_left, a * a), right.reshape(n_right, b * b)
    left_t_vec = left.transpose(0, 2, 1).reshape(n_left, a * a)
    right_t_vec = right.transpose(0, 2, 1).reshape(n_right, b * b).T
    realign = np.arange(dim * dim).reshape(a, b, a, b).transpose(0, 2, 1, 3).reshape(a * a, b * b)
    unalign = np.arange(dim * dim).reshape(a, a, b, b).transpose(0, 2, 1, 3).reshape(dim, dim)
    active = freqs > 0.0

    def probs_of(rho):
        return np.maximum((left_t_vec @ rho.ravel()[realign] @ right_t_vec).real, 1e-300)

    def likelihood(p):
        return float(freqs[active] @ np.log(p[active]))

    rho = np.eye(dim, dtype=complex) / dim if start is None else start.copy()
    probs = probs_of(rho)
    current = likelihood(probs)
    trace_log = [current]
    converged, iterations = False, 0

    def step(before, after):
        candidate = before @ rho @ after
        candidate = (candidate + candidate.conj().T) / 2.0
        candidate /= np.trace(candidate).real
        cand_probs = probs_of(candidate)
        return candidate, cand_probs, likelihood(cand_probs)

    for iterations in range(1, options.max_iter + 1):
        weights = np.where(active, freqs / probs, 0.0)
        r_op = (left_vec.T @ weights @ right_vec).ravel()[unalign]
        r_op = (r_op + r_op.conj().T) / 2.0

        candidate, cand_probs, cand_like = step(r_op, r_op)
        # dilute toward the identity until the step ascends again
        for eps in (0.5, 0.1, 0.01):
            if cand_like >= current:
                break
            damped = (np.eye(dim) + eps * r_op) / (1.0 + eps)
            candidate, cand_probs, cand_like = step(damped, damped.conj().T)
        if cand_like < current:
            converged = True  # numerical floor reached
            break

        gain = cand_like - current
        rho, probs, current = candidate, cand_probs, cand_like
        trace_log.append(current)
        if gain < options.tol:
            converged = True
            break

    return ReconstructionReport(
        estimate=rho,
        iterations=iterations,
        final_log_likelihood=current,
        converged=converged,
        log_likelihoods=trace_log,
        metadata={"total_counts": int(total)},
    )


def _state_operators(data: CoincidenceDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A trivial 1x1 preparation, the records' projectors and counts as one row."""
    if set(data.bases) != set(_BASIS_INDEX):
        raise InvalidArgumentError("state tomography needs counts for all 9 basis pairs")
    projectors = _BASIS_PROJECTORS[[_BASIS_INDEX[b] for b in data.bases]].reshape(-1, 4, 4)
    return np.ones((1, 1, 1), complex), projectors, data.counts.reshape(1, -1).astype(float)


def mle_density_matrix(data: CoincidenceDataset,
                       options: MLEOptions | None = None,
                       start: DensityMatrix | None = None) -> ReconstructionReport:
    """Maximum-likelihood two-qubit state from single-preparation counts."""
    data.single_preparation()
    fit = _iterate_rho_r(*_state_operators(data), options,
                         None if start is None else start.matrix)
    return replace(fit, estimate=DensityMatrix(fit.estimate),
                   metadata={"kind": "state", **fit.metadata})


def _process_operators(data: CoincidenceDataset) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Preparation and projector stacks and the counts as a 36 x 36 array."""
    order = [_SETTING_INDEX[setting] for setting in zip(data.preps, data.bases)]
    counts = np.empty((324, 4))
    counts[order] = data.counts
    return _PREP_TRANSPOSES, _BASIS_PROJECTORS.reshape(36, 4, 4), counts.reshape(36, 36)


def mle_process_matrix(data: CoincidenceDataset,
                       options: MLEOptions | None = None,
                       start: ChoiProcess | None = None) -> ReconstructionReport:
    """Maximum-likelihood unit-trace Choi matrix from a full 324-setting dataset.

    Trace preservation is deliberately not enforced: the gate is
    post-selected and trace-decreasing. The success scale is estimated from
    the grand total counts relative to the dataset's nominal mean counts.
    """
    data.require_full()
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
    """State MLE for a single-preparation dataset, process MLE otherwise."""
    fit = mle_density_matrix if len(set(data.preps)) == 1 else mle_process_matrix
    return fit(data, options, start)


def _resamples(data: CoincidenceDataset, n: int, seed: int, label: str):
    """Yield ``n`` Poisson resamples of ``data``; resample i draws from the
    sub-seed (seed, f"{label}:{i}"), so samples may be computed in any order."""
    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(derive_seed(seed, f"{label}:{i}")))
        yield data.resampled(rng)


def monte_carlo_metric_table(data: CoincidenceDataset, n_samples: int,
                             metrics: dict, seed: int, *, label: str = "sample",
                             start=None) -> dict[str, tuple[float, float]]:
    """Monte Carlo means/stds of several metrics sharing the same resamples.

    ``metrics`` maps a name to a function of an estimate: a DensityMatrix
    when ``data`` holds a single preparation, a ChoiProcess otherwise.
    Resamples come from ``_resamples(data, n_samples, seed, label)``, and
    every resample's reconstruction starts at ``start``, the estimate of
    ``data`` itself; when it is None, ``data`` is reconstructed once here.
    """
    if n_samples < 2:
        raise InvalidArgumentError("Monte Carlo needs n_samples >= 2")
    if start is None:
        start = reconstruct(data).estimate
    values = {name: [] for name in metrics}
    for sample in _resamples(data, n_samples, seed, label):
        estimate = reconstruct(sample, start=start).estimate
        for name, fn in metrics.items():
            values[name].append(fn(estimate))
    out = {}
    for name, vals in values.items():
        arr = np.asarray(vals)
        out[name] = (float(arr.mean()), float(arr.std(ddof=1)))
    return out
