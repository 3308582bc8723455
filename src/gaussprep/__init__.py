"""Gaussian state preparation on a simulated quantum register.

The pipeline: a layer of Ry rotations with exponentially decaying angles,
a quantum Fourier transform whose small controlled-phase angles can be
pruned against a threshold, and a final X on the highest qubit that centers
the distribution. The package simulates the circuit exactly, scores it
against the ideal discrete Gaussian, and compares its gate cost with an
exact amplitude-encoding baseline.
"""

from .circuits import (
    MAX_SYNTH_QUBITS,
    Circuit,
    GateInventory,
    GateKind,
    GateOp,
    PruningPolicy,
    build_gaussian_prep,
    build_qft,
    count_gates,
    heuristic_beta,
    cphase,
    full_cphase_count,
    h,
    kept_cphase_count,
    pruned_cphase_count,
    rotation_angle,
    ry,
    swap,
    x,
)
from .encoder import encode_exact
from .harness import (
    BetaDiagnostic,
    CalibrationResult,
    PrepareResult,
    SweepConfig,
    SweepRow,
    calibrate_beta,
    resolve_beta,
    run_prepare,
    run_sweep,
)
from .metrics import (
    StateScore,
    distribution_fidelity,
    fidelity,
    kl_divergence,
    kl_divergence_from,
    laplace_smooth,
    magnitude_fidelity,
    pruning_fidelity_bound,
    score_state,
)
from .qasm import export_qasm
from .reference import (
    GaussianSpec,
    TargetDistribution,
    closed_form_probabilities,
    cosine_table,
    dft_oracle,
    grid_points,
    product_amplitudes_oracle,
    target_distribution,
)
from .sampler import ShotHistogram, sample_counts, tv_distance
from .statevector import (
    MAX_SIM_QUBITS,
    StateVector,
    apply_circuit,
    inner_product,
    new_zero_state,
    probabilities,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_SIM_QUBITS",
    "MAX_SYNTH_QUBITS",
    "BetaDiagnostic",
    "CalibrationResult",
    "Circuit",
    "GateInventory",
    "GateKind",
    "GateOp",
    "GaussianSpec",
    "PrepareResult",
    "PruningPolicy",
    "ShotHistogram",
    "StateScore",
    "StateVector",
    "SweepConfig",
    "SweepRow",
    "TargetDistribution",
    "apply_circuit",
    "build_gaussian_prep",
    "build_qft",
    "calibrate_beta",
    "closed_form_probabilities",
    "cosine_table",
    "count_gates",
    "cphase",
    "dft_oracle",
    "distribution_fidelity",
    "encode_exact",
    "export_qasm",
    "fidelity",
    "full_cphase_count",
    "grid_points",
    "h",
    "heuristic_beta",
    "inner_product",
    "kept_cphase_count",
    "kl_divergence",
    "kl_divergence_from",
    "laplace_smooth",
    "magnitude_fidelity",
    "new_zero_state",
    "probabilities",
    "product_amplitudes_oracle",
    "pruned_cphase_count",
    "pruning_fidelity_bound",
    "resolve_beta",
    "rotation_angle",
    "run_prepare",
    "run_sweep",
    "ry",
    "sample_counts",
    "score_state",
    "swap",
    "target_distribution",
    "tv_distance",
    "x",
]
