"""Phenomenological imperfection model shared by channels and states.

The template family (depolarizing + dephasing + systematic mode phases) is
the minimal one able to reproduce both an overall purity loss and a gap
between raw and phase-optimized process fidelity. One body, ``apply_noise``,
applies it to both kinds of input:

* a ``ChoiProcess`` is a four-qubit operator on (in1, in2, out1, out2) with
  its success scale, and only the two output qubits dephase. Depolarizing
  mixes the unnormalized channels, so success probabilities combine linearly
  with the probability 1 of the completely depolarizing channel;
* an n-qubit ``DensityMatrix`` has scale 1, and every qubit dephases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChoiProcess, DensityMatrix
from .errors import InvalidArgumentError, NumericalDomainError
from .metrics import PhaseCorrection, _mode_bits, fidelity

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


def _kind(x):
    """(matrix, success scale, dephased qubits, rebuild, calibration
    tolerance) of a Choi process or a state: the one place the kinds differ."""
    if isinstance(x, ChoiProcess):
        # Choi-space qubits: in1, in2, out1, out2
        return (x.choi, x.success_scale, (2, 3),
                lambda mat, scale: ChoiProcess(mat, success_scale=scale, validate=False),
                CHANNEL_CALIBRATION_TOL)
    if isinstance(x, DensityMatrix):
        return (x.matrix, 1.0, range(x.qubits),
                lambda mat, _: DensityMatrix(mat, validate=False), STATE_CALIBRATION_TOL)
    raise InvalidArgumentError(
        f"noise applies to a ChoiProcess or a DensityMatrix, got {type(x).__name__}")


def apply_noise(x: ChoiProcess | DensityMatrix, spec: NoiseSpec) -> ChoiProcess | DensityMatrix:
    """Depolarize, dephase by Z conjugation, then apply the mode phases.

    Depolarizing mixes with the white operator 1/d (d x d identity over d) at
    the unnormalized level, so the success scale becomes (1-p) * scale + p. Dephasing maps
    M <- (1-q) M + q Z M Z on each dephased qubit and keeps the scale. The
    mode phases multiply M entrywise by w w^dag, w the phase vector of the
    first n phases, which leaves spectrum and purity untouched.
    """
    mat, scale, dephased, rebuild, _ = _kind(x)
    d = mat.shape[0]
    n = d.bit_length() - 1
    p = spec.depolarizing_p
    if p != 0.0:
        new_scale = (1.0 - p) * scale + p
        mat = ((1.0 - p) * scale * mat + p * np.eye(d) / d) / new_scale
        scale = new_scale
    q = spec.dephasing_p
    bits = _mode_bits(n)
    for qubit in dephased:
        z = 1.0 - 2.0 * bits[:, qubit]  # the diagonal of Z on this qubit
        mat = (1.0 - q) * mat + q * (mat * np.outer(z, z))
    if spec.mode_phases is not None:
        w = spec.mode_phases.phase_vector(n)
        mat = mat * np.outer(w, w.conj())
    return rebuild(mat, scale)


def calibrate_noise_to_fidelity(target_fidelity: float, ideal: ChoiProcess | DensityMatrix,
                                template: NoiseSpec) -> NoiseSpec:
    """Scale the template by the magnitude m in [0, 1] at which
    ``fidelity(apply_noise(ideal, template.scaled(m)), ideal)`` hits the
    target, within ``CHANNEL_CALIBRATION_TOL`` for a ``ChoiProcess`` and
    ``STATE_CALIBRATION_TOL`` for a ``DensityMatrix``; bisection assumes the
    fidelity falls continuously from 1 at m = 0."""
    tol = _kind(ideal)[4]
    if not 0.5 < target_fidelity <= 1.0:
        raise InvalidArgumentError("target fidelity must lie in (0.5, 1]")
    if target_fidelity == 1.0:
        return template.scaled(0.0)

    def achieved(m: float) -> float:
        return fidelity(apply_noise(ideal, template.scaled(m)), ideal)

    f_mid = achieved(1.0)
    if f_mid > target_fidelity:
        raise NumericalDomainError(
            f"calibration: target {target_fidelity} unreachable; full-magnitude template "
            f"only reaches {f_mid:.6f}")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        f_mid = achieved(mid)
        if abs(f_mid - target_fidelity) <= tol:
            return template.scaled(mid)
        if f_mid > target_fidelity:
            lo = mid
        else:
            hi = mid
    raise NumericalDomainError(
        f"calibration: bisection stalled at {f_mid} for target {target_fidelity}")


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
