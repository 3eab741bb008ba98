"""Every tolerance and certified tail in the package has a module-level name."""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

from sqzmet import fock, metrology, validate
from sqzmet.metrology import NBAR_MAX, NBAR_MIN, PHASE_MAX, SQUEEZE_R_MAX

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqzmet"
README = PACKAGE.parents[1] / "README.md"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_no_bare_tolerance_literal(path):
    # a float literal below 1e-5 is a tolerance or a tail; it may appear only
    # on the right-hand side of a module-level assignment, which names it
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {
        id(node)
        for statement in tree.body
        if isinstance(statement, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(statement)
    }
    bare = [
        (node.lineno, node.value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, float)
        and 0 < abs(node.value) < 1e-5
        and id(node) not in named
    ]
    assert bare == []


def test_certified_tails_keep_their_values():
    # naming the tails moved no cutoff: validate's output stays byte-identical
    assert (
        validate.TABLE_ROUTE_TAIL,
        validate.ODD_TERM_TAIL,
        validate.VARIANCE_IDENTITY_TAIL,
        validate.SERIES_CONVERGENCE_TAIL,
    ) == (1e-10, 1e-13, 1e-14, 1e-16)
    # each tail sits below the pass bound of the check that certifies with it
    assert validate.ODD_TERM_TAIL < validate.ODD_TERM_TOL
    assert validate.VARIANCE_IDENTITY_TAIL < validate.VARIANCE_IDENTITY_TOL
    assert validate.TABLE_ROUTE_TAIL < fock.MAX_TABLE_TAIL


# a limit, the interval its refusal names, the side it bounds and a call at a value
NAMED_LIMITS = {
    "SqueezeParameter.r": (
        SQUEEZE_R_MAX, "[0, SQUEEZE_R_MAX]", math.inf,
        lambda v: metrology.SqueezeParameter(v).mean_photon_number,
    ),
    "sweep_point_probability.phi_bar.high": (
        PHASE_MAX, "[-PHASE_MAX, PHASE_MAX]", math.inf,
        lambda v: metrology.sweep_point_probability(1.0, v),
    ),
    "sweep_point_probability.phi_bar.low": (
        -PHASE_MAX, "[-PHASE_MAX, PHASE_MAX]", -math.inf,
        lambda v: metrology.sweep_point_probability(1.0, v),
    ),
    "sweep_point_probability.nbar": (
        NBAR_MAX, "[0, NBAR_MAX]", math.inf, lambda v: metrology.sweep_point_probability(v, 0.0),
    ),
    "check_regime.nbar": (
        NBAR_MAX, "[0, NBAR_MAX]", math.inf, lambda v: metrology.check_regime([0.0], v).ratio,
    ),
    "heisenberg_sensitivity.nbar.low": (
        NBAR_MIN, "[NBAR_MIN, NBAR_MAX]", 0.0, metrology.heisenberg_sensitivity,
    ),
    "heisenberg_sensitivity.nbar.high": (
        NBAR_MAX, "[NBAR_MIN, NBAR_MAX]", math.inf, metrology.heisenberg_sensitivity,
    ),
    "estimate_phase.nbar.low": (
        NBAR_MIN, "[NBAR_MIN, NBAR_MAX]", 0.0, lambda v: metrology.estimate_phase(5, 10, v),
    ),
    "estimate_phase.nbar.high": (
        NBAR_MAX, "[NBAR_MIN, NBAR_MAX]", math.inf, lambda v: metrology.estimate_phase(5, 10, v),
    ),
    "scaling_sweep.nbars.low": (
        NBAR_MIN, "[NBAR_MIN, NBAR_MAX]", 0.0,
        lambda v: metrology.scaling_sweep([v], 10, 2, 0),
    ),
    "scaling_sweep.nbars.high": (
        NBAR_MAX, "[NBAR_MIN, NBAR_MAX]", math.inf,
        lambda v: metrology.scaling_sweep([v], 10, 2, 0),
    ),
}


@pytest.mark.parametrize("limit", NAMED_LIMITS)
def test_a_refusal_one_ulp_past_a_limit_names_its_constant(limit):
    bound, interval, outward, call = NAMED_LIMITS[limit]
    outside = math.nextafter(bound, outward)
    with pytest.raises(ValueError, match=re.escape(f" = {outside} outside [") + r".*\] = " + re.escape(interval) + "$"):
        call(outside)
    try:
        call(bound)
    except ValueError as error:
        # the limit itself passes the bound; a sweep may still find nothing to fit
        assert "outside" not in str(error), error


def test_the_readme_states_the_code_constants():
    # every `module.NAME = value` in the README, at its printed precision; a
    # chain `module.NAME = expression = figure` is checked at its last figure
    text = README.read_text()
    stated = re.findall(r"`(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", text)
    # a tuple `module.NAME, NAME = figure, figure`, name by name
    for module, names, figures in re.findall(
        r"`(\w+)\.([A-Z][A-Z0-9_]*(?:, [A-Z][A-Z0-9_]*)+) = ([^`]+)`", text
    ):
        names, figures = names.split(", "), figures.split(", ")
        assert len(names) == len(figures), (module, names, figures)
        stated += [(module, name, figure) for name, figure in zip(names, figures)]
    # a span ending in `module.NAME`, followed by its figure as (`figure`)
    stated += re.findall(r"`(?:[^`]*[^\w`.])?(\w+)\.([A-Z][A-Z0-9_]*)`\s+\(`([^`]+)`\)", text)
    assert {f"{module}.{name}" for module, name, _ in stated} >= {
        "gaussian.SYMMETRY_TOL",
        "metrology.ORACLE_TAIL_BOUND",
        "metrology.SQUEEZE_R_MAX",
        "fock.MAX_CUTOFF",
        "fock.MAX_TABLE_ROWS",
        "fock.MAX_TABLE_TAIL",
        "network.NBAR_MIN",
        "network.NBAR_MAX",
        "network.PHASE_MAX",
    }
    for module, name, text in stated:
        printed = text.split(" = ")[-1]
        value = getattr(importlib.import_module(f"sqzmet.{module}"), name)
        digits = len(printed.split("e")[0].replace(".", "").lstrip("-0"))
        assert float(printed) == float(f"{value:.{digits}g}"), (module, name, printed)
