"""Every scalar argument of ``metrology``'s public functions under fuzz.

Each example draws one argument from ints, floats (NaN, +-inf, -0.0,
1e+-308), bools and numpy integers, with the other arguments valid.  The
call must return a finite answer or raise a ValueError whose message names
the argument: never a TypeError, an OverflowError, a warning or a NaN.
"""

import dataclasses
import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sqzmet import metrology
from sqzmet.gaussian import SqueezeParameter

EDGE_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 1e308, -1e308, 1e-308, 5e-324]
NUMPY_INTS = [np.int8, np.int32, np.int64, np.uint64]
# scaling_sweep draws and holds `repetitions` counts per point, so an
# integer repetitions is capped here; the MemoryError a huge one meets is
# covered by the cli.main test that exits 2 on it
MAX_REPETITIONS = 64


def numbers(max_int=None):
    def numpy_ints(dtype):
        info = np.iinfo(dtype)
        high = info.max if max_int is None else min(info.max, max_int)
        return st.integers(int(info.min), high).map(dtype)

    return st.one_of(
        st.integers(max_value=max_int),
        st.floats(),
        st.sampled_from(EDGE_FLOATS),
        st.booleans(),
        st.sampled_from(NUMPY_INTS).flatmap(numpy_ints),
    )


def _run(shots=1000, seed=1):
    config = metrology.ExperimentConfig(
        np.array([0.5, 0.5]), np.array([0.01, 0.02]), SqueezeParameter(0.5), shots, seed
    )
    return dataclasses.astuple(metrology.run_protocol(config))


def _sweep(nbar=2.0, shots=10 ** 5, repetitions=10, seed=1, bias_product=0.05):
    result = metrology.scaling_sweep([1.0, nbar], shots, repetitions, seed, bias_product)
    points = [value for point in result.results for value in dataclasses.astuple(point)]
    return (result.slope, *points)


# argument -> (word its refusal must contain, call with the drawn value)
ARGUMENTS = {
    "validate_count.value": ("count", lambda v: metrology.validate_count("count", v, 0, 10)),
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
}


def _finite(result) -> bool:
    values = result if isinstance(result, tuple) else (result,)
    return all(math.isfinite(value) for value in values)


@pytest.mark.parametrize("argument", ARGUMENTS)
@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=40)
@hypothesis.given(data=st.data())
def test_scalar_argument_gives_a_finite_answer_or_names_itself(argument, data):
    word, call = ARGUMENTS[argument]
    max_int = MAX_REPETITIONS if argument == "scaling_sweep.repetitions" else None
    value = data.draw(numbers(max_int), label=argument)
    try:
        result = call(value)
    except ValueError as exc:
        assert word in str(exc), f"{argument}={value!r}: {exc}"
    else:
        assert _finite(result), f"{argument}={value!r} gave {result}"
