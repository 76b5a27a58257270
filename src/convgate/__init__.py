"""Simulation and analysis toolkit for a probabilistic two-qubit conversion
gate on polarization-encoded photonic qubits: gate construction, entangled
state conversion, coincidence-count tomography with maximum-likelihood
reconstruction, and the full metric suite."""

from ._version import __version__
from .core import (
    ChoiProcess,
    DensityMatrix,
    PureState,
    apply_choi_channel,
    matrix_sqrt,
    normalize_state,
    partial_trace,
    partial_transpose,
)
from .errors import (
    DegenerateOutcomeError,
    InvalidArgumentError,
    NumericalDomainError,
    ToolkitError,
)
from .gate import (
    ConversionPreset,
    GateCoefficients,
    GateSettings,
    apply_gate,
    build_gate,
    cluster_state_c4,
    convert_cluster,
    dicke_angles,
    gate_coefficients,
    ideal_choi,
    preset,
    target_state,
)
from .metrics import (
    PhaseCorrection,
    concurrence,
    discord,
    fidelity,
    log_negativity,
    phase_optimized_fidelity,
    process_fidelity,
    purity,
)
from .noise import (
    NoiseSpec,
    apply_noise,
    calibrate_noise_to_fidelity,
)
from .pipeline import (
    ExperimentConfig,
    TableReport,
    run_discord_demo,
    run_entangler_demo,
    run_table1,
    run_table3,
    run_tomography_suite,
)
from .tomography import (
    CoincidenceDataset,
    MLEOptions,
    ReconstructionReport,
    enumerate_settings,
    mle_density_matrix,
    mle_process_matrix,
    simulate_counts,
    simulate_state_counts,
)

__all__ = [name for name in dir() if not name.startswith("_")]
