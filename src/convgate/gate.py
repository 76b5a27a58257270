"""The probabilistic two-qubit conversion gate and its preset operating points.

The gate is parametrized by two half-wave-plate angles and acts, after
post-selection on one photon per output port, as

    G|HH> = (a1 - b1)|HH>          G|HV> = m1|HV> - m2|VH>
    G|VV> = (a2 - b2)|VV>          G|VH> = m1|VH> - m2|HV>

with a_k = cos^2(2 theta_k), b_k = sin^2(2 theta_k),
m1 = cos(2 theta_1) cos(2 theta_2) and m2 = sin(2 theta_1) sin(2 theta_2).
Applied to the second and third qubits of the four-qubit linear cluster
state this interpolates between the cluster state itself, the GHZ state, a
Dicke-class state and a product of two Bell pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    KET_PLUS,
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_operator,
    normalize_state,
)
from .errors import DegenerateOutcomeError, InvalidArgumentError

#: Qubit pair (0-indexed) the gate acts on when converting the cluster state.
CLUSTER_TARGETS = (1, 2)


@dataclass(frozen=True)
class GateSettings:
    """Half-wave-plate rotation angles in radians, canonical in [0, pi)."""

    theta1: float
    theta2: float

    def __post_init__(self):
        for name in ("theta1", "theta2"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise InvalidArgumentError(f"{name} must be finite, got {value}")
            object.__setattr__(self, name, float(value) % np.pi)


@dataclass(frozen=True)
class GateCoefficients:
    alpha1: float
    beta1: float
    alpha2: float
    beta2: float
    mu1: float
    mu2: float


@dataclass(frozen=True)
class ConversionPreset:
    name: str
    settings: GateSettings
    expected_success: Fraction | None


def gate_coefficients(settings: GateSettings) -> GateCoefficients:
    c1, s1 = np.cos(2 * settings.theta1), np.sin(2 * settings.theta1)
    c2, s2 = np.cos(2 * settings.theta2), np.sin(2 * settings.theta2)
    return GateCoefficients(
        alpha1=c1 * c1, beta1=s1 * s1,
        alpha2=c2 * c2, beta2=s2 * s2,
        mu1=c1 * c2, mu2=s1 * s2,
    )


def build_gate(settings: GateSettings) -> np.ndarray:
    """4x4 post-selected gate operator in the (HH, HV, VH, VV) basis."""
    c = gate_coefficients(settings)
    g = np.zeros((4, 4), dtype=complex)
    g[0, 0] = c.alpha1 - c.beta1
    g[3, 3] = c.alpha2 - c.beta2
    g[1, 1] = c.mu1
    g[2, 2] = c.mu1
    g[2, 1] = -c.mu2
    g[1, 2] = -c.mu2
    return g


def apply_gate(settings: GateSettings, psi: PureState) -> tuple[PureState, float]:
    """Post-selected gate action on a two-qubit pure state.

    Returns the normalized output and the success probability |G psi|^2.
    """
    if psi.qubits != 2:
        raise InvalidArgumentError("the conversion gate acts on two-qubit states")
    return normalize_state(apply_operator(psi, build_gate(settings)))


def cluster_state_c4() -> PureState:
    """Four-qubit linear cluster state (|HHHH>+|HHVV>+|VVHH>-|VVVV>)/2."""
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = 0.5
    amps[0b0011] = 0.5
    amps[0b1100] = 0.5
    amps[0b1111] = -0.5
    return PureState(amps)


def converted_cluster_amplitudes(settings: GateSettings) -> np.ndarray:
    """Closed-form (unnormalized) amplitudes of the converted cluster state.

    Independent of :func:`build_gate`; used to cross-check that the operator
    form and the converted-state form stay consistent.
    """
    c = gate_coefficients(settings)
    amps = np.zeros(16, dtype=complex)
    amps[0b0000] = 0.5 * (c.alpha1 - c.beta1)
    amps[0b1111] = -0.5 * (c.alpha2 - c.beta2)
    amps[0b0011] = 0.5 * c.mu1
    amps[0b1100] = 0.5 * c.mu1
    amps[0b0101] = -0.5 * c.mu2
    amps[0b1010] = -0.5 * c.mu2
    return amps


def convert_cluster(settings: GateSettings) -> tuple[PureState, float]:
    """Gate applied to qubits 1, 2 (0-indexed) of the linear cluster state."""
    raw = apply_operator(cluster_state_c4(), build_gate(settings), CLUSTER_TARGETS)
    return normalize_state(raw)


def dicke_angles() -> tuple[float, float]:
    """Angles solving sin(2 theta_pm) = sqrt((5 pm sqrt 5)/10), 2 theta in Q1."""
    theta_plus = 0.5 * np.arcsin(np.sqrt((5 + np.sqrt(5)) / 10))
    theta_minus = 0.5 * np.arcsin(np.sqrt((5 - np.sqrt(5)) / 10))
    return float(theta_plus), float(theta_minus)


def _preset_table() -> dict[str, ConversionPreset]:
    tp, tm = dicke_angles()
    rows = [
        ("cluster-identity", GateSettings(0.0, 0.0), Fraction(1)),
        ("ghz", GateSettings(0.0, np.pi / 4), Fraction(1, 2)),
        ("dicke", GateSettings(tp, tm), Fraction(3, 10)),
        ("bell-pair", GateSettings(3 * np.pi / 8, np.pi / 8), Fraction(1, 4)),
        ("entangler", GateSettings(3 * np.pi / 8, np.pi / 8), None),
        ("discord-demo", GateSettings(np.pi / 3, 0.0), None),
    ]
    return {name: ConversionPreset(name, settings, p) for name, settings, p in rows}


_PRESETS = _preset_table()
PRESET_NAMES = tuple(_PRESETS)
#: The four presets that convert the cluster state (the two demos act on
#: two-qubit inputs instead).
CONVERSION_PRESET_NAMES = ("cluster-identity", "ghz", "dicke", "bell-pair")


def preset(name: str) -> ConversionPreset:
    if name not in _PRESETS:
        raise InvalidArgumentError(
            f"unknown preset {name!r}; expected one of {', '.join(PRESET_NAMES)}"
        )
    return _PRESETS[name]


def table1_rows() -> list[tuple[str, GateSettings, Fraction]]:
    """Every documented conversion setting, alternate angle rows included."""
    tp, tm = dicke_angles()
    pi = np.pi
    return [
        ("cluster-identity", GateSettings(0.0, 0.0), Fraction(1)),
        ("cluster-identity", GateSettings(pi / 2, pi / 2), Fraction(1)),
        ("ghz", GateSettings(0.0, pi / 4), Fraction(1, 2)),
        ("ghz", GateSettings(pi / 2, pi / 4), Fraction(1, 2)),
        ("ghz", GateSettings(pi / 4, 0.0), Fraction(1, 2)),
        ("ghz", GateSettings(pi / 4, pi / 2), Fraction(1, 2)),
        ("dicke", GateSettings(tp, tm), Fraction(3, 10)),
        ("dicke", GateSettings(tm, tp), Fraction(3, 10)),
        ("bell-pair", GateSettings(3 * pi / 8, pi / 8), Fraction(1, 4)),
        ("bell-pair", GateSettings(pi / 8, 3 * pi / 8), Fraction(1, 4)),
    ]


def ideal_choi(settings: GateSettings) -> ChoiProcess:
    """Rank-one Choi matrix of the ideal gate, stored unit trace.

    The success scale is Tr[G^dag G]/4, i.e. the channel trace relative to
    the identity gate's value.
    """
    g = build_gate(settings)
    # (1 (x) G) acting on the normalized maximally entangled input-output pair
    psi_pair = np.zeros(16, dtype=complex)
    psi_pair[[0, 5, 10, 15]] = 0.5  # sum_ab |ab>_in |ab>_out / 2
    vec = np.kron(np.eye(4, dtype=complex), g) @ psi_pair
    weight = float(np.vdot(vec, vec).real)  # = Tr[G^dag G] / 4
    if weight < 1e-14:
        raise DegenerateOutcomeError("gate operator is numerically zero", 0.0)
    chi = np.outer(vec, vec.conj()) / weight
    return ChoiProcess(chi, success_scale=weight, validate=False)


_TARGET_KINDS = ("cluster", "ghz4", "dicke4_2", "bell_pair_product", "psi_plus", "phi_plus")


def target_state(kind: str) -> PureState:
    """Canonical normalized target states used by the conversion benchmarks."""
    if kind == "cluster":
        return cluster_state_c4()
    if kind == "ghz4":
        amps = np.zeros(16, dtype=complex)
        amps[0b0000] = amps[0b1111] = 1 / np.sqrt(2)
        return PureState(amps)
    if kind == "dicke4_2":
        amps = np.zeros(16, dtype=complex)
        for idx in (0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100):
            amps[idx] = 1 / np.sqrt(6)
        return PureState(amps)
    if kind == "bell_pair_product":
        # (|HV>+|VH>) on qubits 1&4 times (|HV>+|VH>) on qubits 2&3
        amps = np.zeros(16, dtype=complex)
        for idx in (0b0011, 0b0101, 0b1010, 0b1100):
            amps[idx] = 0.5
        return PureState(amps)
    if kind == "psi_plus":
        return PureState(np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2))
    if kind == "phi_plus":
        return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    raise InvalidArgumentError(f"unknown target kind {kind!r}; expected one of {_TARGET_KINDS}")


def discord_demo_input() -> DensityMatrix:
    """Mixed separable input 1/2 (x) |+><+| used by the discord demonstration."""
    plus = np.outer(KET_PLUS, KET_PLUS.conj())
    return DensityMatrix(np.kron(np.eye(2, dtype=complex) / 2.0, plus), validate=False)
