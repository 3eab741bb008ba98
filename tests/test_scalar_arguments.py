"""Every scalar argument of the package's public functions under fuzz.

Each example draws one argument from ints (10**400 among them), floats
(NaN, +-inf, -0.0, 1e+-308, 1e-160), bools, numpy integers and the string
``"1"``, with the other arguments valid.  The call must return a finite
answer or raise a ValueError whose message names the argument: never a
TypeError, an OverflowError, a warning or a NaN.
"""

import functools
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sqzmet import fock, metrology, network
from sqzmet.gaussian import SqueezeParameter, squeezed_probe

EDGE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 1e308, -1e308, 1e-308, 5e-324, 1e-160, "1"]
# past the float range; the positive one is drawn only where no cap applies
HUGE_INTS = [10 ** 400, -10 ** 400]
NUMPY_INTS = [np.int8, np.int32, np.int64, np.uint64]
# An integer argument whose allocation or power grows with its value is
# capped, so that a huge value the rules let through would fail the test
# instead of stalling the host: scaling_sweep holds `repetitions` counts
# per point (the MemoryError a huge one meets is covered by the cli.main
# test that exits 2 on it), `cutoff` sizes the probability ladder and the
# residual's per-sector matrices, `modes` the 2M x 2M covariance, and
# `moment_power` is the power of the photon count in the certified tail
MAX_INT = {
    "scaling_sweep.repetitions": 64,
    "squeezed_probe.modes": 64,
    "squeezed_vacuum_probabilities.cutoff": 400,
    "recommend_cutoff.moment_power": 64,
    "mach_zehnder_factorization_residual.cutoff": 16,
}


@functools.lru_cache(maxsize=None)
def numbers(max_int=None):
    def numpy_ints(dtype):
        info = np.iinfo(dtype)
        high = info.max if max_int is None else min(info.max, max_int)
        return st.integers(int(info.min), high).map(dtype)

    return st.one_of(
        st.integers(max_value=max_int),
        st.floats(),
        st.sampled_from(EDGE_VALUES + (HUGE_INTS if max_int is None else HUGE_INTS[1:])),
        st.booleans(),
        st.sampled_from(NUMPY_INTS).flatmap(numpy_ints),
    )


def _run(shots=1000, seed=1):
    config = metrology.ExperimentConfig(
        np.array([0.5, 0.5]), np.array([0.01, 0.02]), SqueezeParameter(0.5), shots, seed
    )
    return tuple(metrology.run_protocol(config))


def _sweep(nbar=2.0, shots=10 ** 5, repetitions=10, seed=1, bias_product=0.05):
    result = metrology.scaling_sweep([1.0, nbar], shots, repetitions, seed, bias_product)
    points = [value for point in result.results for value in point]
    return (result.slope, *points)


SQUEEZE = SqueezeParameter(0.5)


def _series(max_order=6):
    return fock.generator_moments_sectors([0.25, 0.75], [0.1, -0.05], SQUEEZE, 10, max_order)


# argument -> (word its refusal must contain, call with the drawn value)
ARGUMENTS = {
    "validate_count.value": ("count", lambda v: network.validate_count("count", v, 0, 10)),
    "validate_real.value": ("value", lambda v: network.validate_real("value", v, -1.0, 1.0)),
    "heisenberg_sensitivity.nbar": ("nbar", metrology.heisenberg_sensitivity),
    "check_regime.nbar": ("nbar", lambda v: metrology.check_regime([0.1], v).ratio),
    "simulate_shots.p": ("probability", lambda v: metrology.simulate_shots(v, 100, 1)),
    "simulate_shots.shots": ("shots", lambda v: metrology.simulate_shots(0.5, v, 1)),
    "simulate_shots.seed": ("seed", lambda v: metrology.simulate_shots(0.5, 100, v)),
    "estimate_phase.count": ("count", lambda v: metrology.estimate_phase(v, 10, 1.0)),
    "estimate_phase.shots": ("shots", lambda v: metrology.estimate_phase(5, v, 1.0)),
    "estimate_phase.nbar": ("nbar", lambda v: metrology.estimate_phase(5, 10, v)),
    **{
        f"sweep_point_probability.{arg}.{baseline}": (
            arg,
            lambda v, arg=arg, baseline=baseline: metrology.sweep_point_probability(
                **{"nbar": 1.0, "phi_bar": 0.05, arg: v}, baseline=baseline
            ),
        )
        for arg in ("nbar", "phi_bar")
        for baseline in ("squeezed", "coherent")
    },
    "scaling_sweep.nbars": ("nbar", lambda v: _sweep(nbar=v)),
    "scaling_sweep.shots": ("shots", lambda v: _sweep(shots=v)),
    "scaling_sweep.repetitions": ("repetitions", lambda v: _sweep(repetitions=v)),
    "scaling_sweep.seed": ("seed", lambda v: _sweep(seed=v)),
    # the regime refusal says "bias product", the others "bias_product"
    "scaling_sweep.bias_product": ("bias", lambda v: _sweep(bias_product=v)),
    "ExperimentConfig.shots": ("shots", lambda v: _run(shots=v)),
    "ExperimentConfig.seed": ("seed", lambda v: _run(seed=v)),
    "SqueezeParameter.r": ("r", lambda v: SqueezeParameter(v).mean_photon_number),
    "SqueezeParameter.theta": ("phase", lambda v: SqueezeParameter(0.5, v).theta),
    "squeezed_probe.modes": (
        "modes", lambda v: float(squeezed_probe(v, SQUEEZE).covariance.sum())
    ),
    "squeezed_vacuum_probabilities.cutoff": (
        "cutoff", lambda v: float(fock.squeezed_vacuum_probabilities(SQUEEZE, v).sum())
    ),
    "recommend_cutoff.tail_bound": ("tail_bound", lambda v: fock.recommend_cutoff(SQUEEZE, v)),
    "recommend_cutoff.moment_power": (
        "moment_power", lambda v: fock.recommend_cutoff(SQUEEZE, 1e-10, v)
    ),
    "generator_moments_sectors.max_order": ("max_order", lambda v: tuple(_series(v).moments)),
    "series_partial_sum.max_term": (
        "max_term", lambda v: fock.series_partial_sum(_series().terms, v)
    ),
    **{
        f"mach_zehnder_factorization_residual.{arg}": (
            arg,
            lambda v, arg=arg: fock.mach_zehnder_factorization_residual(
                **{"phi1": 0.3, "phi2": -0.2, "cutoff": 4, arg: v}
            ),
        )
        for arg in ("phi1", "phi2", "cutoff")
    },
    "mach_zehnder_unitary.w1": (
        "w1", lambda v: float(np.abs(network.mach_zehnder_unitary(v)).sum())
    ),
}


def _finite(result) -> bool:
    values = result if isinstance(result, tuple) else (result,)
    return all(math.isfinite(value) for value in values)


@pytest.mark.parametrize("argument", ARGUMENTS)
@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
@hypothesis.given(data=st.data())
def test_scalar_argument_gives_a_finite_answer_or_names_itself(argument, data):
    word, call = ARGUMENTS[argument]
    value = data.draw(numbers(MAX_INT.get(argument)), label=argument)
    try:
        result = call(value)
    except ValueError as exc:
        assert word in str(exc), f"{argument}={value!r}: {exc}"
    else:
        assert _finite(result), f"{argument}={value!r} gave {result}"
