"""Both engines against the closed form P = 1 / |1 + nbar (1 - m^2)| across the envelope."""

import math

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from sqzmet import SqueezeParameter, exact_survival_probability


@st.composite
def configurations(draw):
    modes = draw(st.integers(1, 16))
    concentration = draw(st.floats(0.05, 5.0))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    weights = np.random.default_rng(seed).dirichlet(np.full(modes, concentration))
    weights = weights / weights.sum()
    phases = draw(
        st.lists(st.floats(-math.pi, math.pi), min_size=modes, max_size=modes)
    )
    squeeze = SqueezeParameter(draw(st.floats(0.0, 2.5)), draw(st.floats(0.0, 2 * math.pi)))
    return weights, np.array(phases), squeeze


@pytest.mark.parametrize("engine", ["gaussian", "fock"])
@hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
@hypothesis.given(case=configurations())
def test_engine_matches_closed_form(engine, case):
    weights, phases, squeeze = case
    m = np.sum(weights * np.exp(-1j * phases))
    closed = 1.0 / abs(1.0 + squeeze.mean_photon_number * (1.0 - m * m))
    p, _ = exact_survival_probability(weights, phases, squeeze, engine=engine)
    assert abs(p - closed) <= 1e-9
