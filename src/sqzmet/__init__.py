"""Heisenberg-limited estimation of a weighted phase average with one squeezed probe.

A single squeezed-vacuum source feeds an M-channel linear network whose
first column encodes the probability weights; after the unknown per-channel
phase shifts and the inverse network, undoing the squeezer and checking for
vacuum on every channel yields a survival probability whose small-phase
response carries the weighted phase average.  The package evaluates that
probability with two independent engines (covariance matrices and a
truncated occupation-basis oracle), synthesises the weight-encoding mesh,
and runs shot-level Monte-Carlo sweeps of the estimation variance.

Importing the package loads no submodule: each public name loads the
submodule that defines it on first access, so a command that needs no
verifier never loads one.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it.  Each access resolves the name
# afresh and nothing is cached here, so a function replaced in its module is
# what the package hands out
_EXPORTS = {
    **dict.fromkeys(
        ["GaussianState", "apply_network", "photon_moments", "purity_defect",
         "squeezed_probe", "vacuum_overlap_probability"],
        "gaussian",
    ),
    **dict.fromkeys(
        ["RotationMesh", "block_unitarity_defect", "embed_weights_unitary", "first_column",
         "mach_zehnder_unitary", "mesh_gap", "mesh_to_netlist", "parse_netlist",
         "reck_decompose", "recompose", "unitarity_defect", "validate_weights",
         "weight_chain"],
        "network",
    ),
    **dict.fromkeys(
        ["SurvivalSeries", "TruncationError", "generator_moments_sectors",
         "mach_zehnder_factorization_residual", "recommend_cutoff", "series_partial_sum",
         "squeezed_vacuum_probabilities", "survival_probability", "survival_probability_sectors"],
        "fock",
    ),
    **dict.fromkeys(
        ["EstimationResult", "ExperimentConfig", "PhaseMoments", "PhotonMoments",
         "ProtocolRun", "RegimeCheck", "RegimeError", "SqueezeParameter", "SweepResult",
         "check_regime", "estimate_phase", "exact_survival_probability",
         "generator_variance", "heisenberg_sensitivity", "phase_moments", "run_protocol",
         "scaling_sweep", "simulate_shots", "sweep_point_probability"],
        "metrology",
    ),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    # PEP 562: called only for names this module does not bind itself
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
