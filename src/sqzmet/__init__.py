"""Heisenberg-limited estimation of a weighted phase average with one squeezed probe.

A single squeezed-vacuum source feeds an M-channel linear network whose
first column encodes the probability weights; after the unknown per-channel
phase shifts and the inverse network, undoing the squeezer and checking for
vacuum on every channel yields a survival probability whose small-phase
response carries the weighted phase average.  The package evaluates that
probability with two independent engines (covariance matrices and a
truncated occupation-basis oracle), synthesises the weight-encoding mesh,
and runs shot-level Monte-Carlo sweeps of the estimation variance.
"""

from .gaussian import (
    GaussianState,
    PhotonMoments,
    SqueezeParameter,
    apply_network,
    photon_moments,
    purity_defect,
    squeezed_probe,
    vacuum_overlap_probability,
)
from .network import (
    RotationMesh,
    block_unitarity_defect,
    embed_weights_unitary,
    first_column,
    mach_zehnder_unitary,
    mesh_gap,
    mesh_to_netlist,
    parse_netlist,
    reck_decompose,
    recompose,
    unitarity_defect,
    validate_weights,
    weight_chain,
)
from .fock import (
    FockAmplitudes,
    SurvivalSeries,
    TruncationError,
    generator_moments_sectors,
    mach_zehnder_factorization_residual,
    propagate_through_network,
    recommend_cutoff,
    series_partial_sum,
    squeezed_vacuum_amplitudes,
    survival_probability,
    survival_probability_sectors,
)
from .metrology import (
    EstimationResult,
    ExperimentConfig,
    PhaseMoments,
    ProtocolRun,
    RegimeCheck,
    RegimeError,
    SweepResult,
    check_regime,
    estimate_phase,
    exact_survival_probability,
    generator_variance,
    heisenberg_sensitivity,
    phase_moments,
    run_protocol,
    scaling_sweep,
    simulate_shots,
    sweep_point_probability,
)

__version__ = "0.1.0"

__all__ = [
    "GaussianState",
    "PhotonMoments",
    "SqueezeParameter",
    "apply_network",
    "photon_moments",
    "purity_defect",
    "squeezed_probe",
    "vacuum_overlap_probability",
    "RotationMesh",
    "block_unitarity_defect",
    "embed_weights_unitary",
    "first_column",
    "mach_zehnder_unitary",
    "mesh_gap",
    "mesh_to_netlist",
    "parse_netlist",
    "reck_decompose",
    "recompose",
    "unitarity_defect",
    "validate_weights",
    "weight_chain",
    "FockAmplitudes",
    "SurvivalSeries",
    "TruncationError",
    "generator_moments_sectors",
    "mach_zehnder_factorization_residual",
    "propagate_through_network",
    "recommend_cutoff",
    "series_partial_sum",
    "squeezed_vacuum_amplitudes",
    "survival_probability",
    "survival_probability_sectors",
    "EstimationResult",
    "ExperimentConfig",
    "PhaseMoments",
    "ProtocolRun",
    "RegimeCheck",
    "RegimeError",
    "SweepResult",
    "check_regime",
    "estimate_phase",
    "exact_survival_probability",
    "generator_variance",
    "heisenberg_sensitivity",
    "phase_moments",
    "run_protocol",
    "scaling_sweep",
    "simulate_shots",
    "sweep_point_probability",
    "__version__",
]
