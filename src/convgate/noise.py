"""Phenomenological imperfection models for channels and states.

The template family (depolarizing + output dephasing + systematic mode
phases) is the minimal one able to reproduce both an overall purity loss and
a gap between raw and phase-optimized process fidelity. Channel mixing acts
at the unnormalized-Choi level so that success probabilities combine
linearly; the white-noise component is the completely depolarizing (trace
preserving) two-qubit channel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import PAULI_Z, ChoiProcess, DensityMatrix, expand_operator
from .errors import InvalidArgumentError, NumericalDomainError
from .metrics import PhaseCorrection, fidelity, phase_conjugate_choi, process_fidelity

#: Unit-trace Choi matrix of the completely depolarizing two-qubit channel.
CHI_WHITE = ChoiProcess(np.eye(16, dtype=complex) / 16.0, success_scale=1.0, validate=False)

#: Tolerance on the raw process fidelity reached by channel calibration.
CHANNEL_CALIBRATION_TOL = 1e-4
#: Tolerance on the state fidelity reached by state calibration.
STATE_CALIBRATION_TOL = 1e-9


@dataclass(frozen=True)
class NoiseSpec:
    """Imperfection magnitudes applied per two-qubit channel or per qubit of
    a state; ``mode_phases`` model systematic phase errors in the four modes."""

    depolarizing_p: float = 0.0
    dephasing_p: float = 0.0
    mode_phases: PhaseCorrection | None = None

    def __post_init__(self):
        for name in ("depolarizing_p", "dephasing_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise InvalidArgumentError(f"{name} must lie in [0, 1], got {p}")

    def scaled(self, magnitude: float) -> "NoiseSpec":
        phases = None
        if self.mode_phases is not None:
            phases = self.mode_phases.scaled(magnitude)
        return NoiseSpec(
            depolarizing_p=magnitude * self.depolarizing_p,
            dephasing_p=magnitude * self.dephasing_p,
            mode_phases=phases,
        )

    def is_zero(self) -> bool:
        return (self.depolarizing_p == 0.0 and self.dephasing_p == 0.0
                and (self.mode_phases is None
                     or all(p == 0.0 for p in self.mode_phases.phases)))


def depolarize_choi(chi: ChoiProcess, p: float) -> ChoiProcess:
    """Mix the channel with the completely depolarizing channel.

    The mixture is taken between the physical (unnormalized) channels, so
    the returned success scale is (1-p) * scale + p and success
    probabilities combine linearly with the white component's probability 1.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"depolarizing probability must lie in [0, 1], got {p}")
    if p == 0.0:
        return chi
    scale = chi.success_scale
    new_scale = (1.0 - p) * scale + p
    stored = ((1.0 - p) * scale * chi.choi + p * CHI_WHITE.choi) / new_scale
    return ChoiProcess(stored, success_scale=new_scale, validate=False)


def dephase_state(rho: DensityMatrix, p: float, qubit: int) -> DensityMatrix:
    """rho <- (1-p) rho + p Z rho Z on the chosen qubit."""
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"dephasing probability must lie in [0, 1], got {p}")
    z = expand_operator(PAULI_Z, rho.qubits, (qubit,))
    return DensityMatrix((1.0 - p) * rho.matrix + p * (z @ rho.matrix @ z), validate=False)


def dephase_choi_outputs(chi: ChoiProcess, p: float) -> ChoiProcess:
    """Compose the channel with single-qubit dephasing on both output modes.

    Dephasing is trace preserving, so the success scale is untouched.
    """
    if not 0.0 <= p <= 1.0:
        raise InvalidArgumentError(f"dephasing probability must lie in [0, 1], got {p}")
    mat = chi.choi
    for out_qubit in (2, 3):  # Choi-space qubits: in1, in2, out1, out2
        z = expand_operator(PAULI_Z, 4, (out_qubit,))
        mat = (1.0 - p) * mat + p * (z @ mat @ z)
    return ChoiProcess(mat, success_scale=chi.success_scale, validate=False)


def apply_mode_phases(chi: ChoiProcess, phases: PhaseCorrection) -> ChoiProcess:
    """Systematic phase errors: conjugation by the four local diagonal
    unitaries. Spectrum and purity are untouched."""
    return phase_conjugate_choi(chi, phases)


def apply_channel_noise(chi: ChoiProcess, spec: NoiseSpec) -> ChoiProcess:
    """Depolarize, dephase the outputs, then apply systematic mode phases."""
    noisy = depolarize_choi(chi, spec.depolarizing_p)
    noisy = dephase_choi_outputs(noisy, spec.dephasing_p)
    if spec.mode_phases is not None:
        noisy = apply_mode_phases(noisy, spec.mode_phases)
    return noisy


def apply_state_noise(rho: DensityMatrix, spec: NoiseSpec) -> DensityMatrix:
    """Per-qubit version of the template for n-qubit states.

    Depolarizing mixes with the maximally mixed state, dephasing acts on
    every qubit, and the first n mode phases act as local diag(1, e^{i phi})
    unitaries.
    """
    d = 2**rho.qubits
    mat = (1.0 - spec.depolarizing_p) * rho.matrix + spec.depolarizing_p * np.eye(d) / d
    out = DensityMatrix(mat, validate=False)
    for qubit in range(rho.qubits):
        out = dephase_state(out, spec.dephasing_p, qubit)
    if spec.mode_phases is not None:
        w = spec.mode_phases.phase_vector(rho.qubits)
        out = DensityMatrix(out.matrix * np.outer(w, w.conj()), validate=False)
    return out


def _bisect_magnitude(achieved, target: float, tol: float, what: str) -> float:
    """Find m in [0, 1] with achieved(m) = target for a continuous map with
    achieved(0) = 1 >= target."""
    f_full = achieved(1.0)
    if f_full > target:
        raise NumericalDomainError(
            f"{what}: target {target} unreachable; full-magnitude template only "
            f"reaches {f_full:.6f}")
    lo, hi = 0.0, 1.0
    f_mid, mid = f_full, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        f_mid = achieved(mid)
        if abs(f_mid - target) <= tol:
            return mid
        if f_mid > target:
            lo = mid
        else:
            hi = mid
    if abs(f_mid - target) > tol:
        raise NumericalDomainError(f"{what}: bisection stalled at {f_mid} for target {target}")
    return mid


def calibrate_noise_to_fidelity(target_raw_fidelity: float, chi_th: ChoiProcess,
                                template: NoiseSpec) -> NoiseSpec:
    """Scale the template so the noisy channel's raw process fidelity hits
    the target within ``CHANNEL_CALIBRATION_TOL``."""
    if not 0.5 < target_raw_fidelity <= 1.0:
        raise InvalidArgumentError("target fidelity must lie in (0.5, 1]")
    if target_raw_fidelity == 1.0:
        return template.scaled(0.0)

    def achieved(m: float) -> float:
        return process_fidelity(apply_channel_noise(chi_th, template.scaled(m)), chi_th)

    magnitude = _bisect_magnitude(achieved, target_raw_fidelity, CHANNEL_CALIBRATION_TOL,
                                  "channel calibration")
    return template.scaled(magnitude)


def calibrate_state_noise(target_fidelity: float, rho_ideal: DensityMatrix,
                          template: NoiseSpec) -> NoiseSpec:
    """Scale the template so the degraded state hits the target fidelity
    within ``STATE_CALIBRATION_TOL``."""
    if not 0.5 < target_fidelity <= 1.0:
        raise InvalidArgumentError("target fidelity must lie in (0.5, 1]")
    if target_fidelity == 1.0:
        return template.scaled(0.0)

    def achieved(m: float) -> float:
        return fidelity(apply_state_noise(rho_ideal, template.scaled(m)), rho_ideal)

    magnitude = _bisect_magnitude(achieved, target_fidelity, STATE_CALIBRATION_TOL,
                                  "state calibration")
    return template.scaled(magnitude)


#: Default channel imperfection shape used by the analysis pipelines.
DEFAULT_CHANNEL_TEMPLATE = NoiseSpec(
    depolarizing_p=0.5,
    dephasing_p=0.2,
    mode_phases=PhaseCorrection((0.35, 0.55, 0.45, 0.65)),
)

#: Default state imperfection shape used for the realistic-cluster fixture.
#: Depolarizing-dominant so that converted-output fidelities stay inside the
#: documented [0.80, 0.95] consistency band.
DEFAULT_STATE_TEMPLATE = NoiseSpec(
    depolarizing_p=0.9,
    dephasing_p=0.02,
    mode_phases=PhaseCorrection((0.06, 0.08, 0.07, 0.1)),
)
