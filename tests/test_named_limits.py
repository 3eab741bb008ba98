"""Every tolerance and certified tail in the package has a module-level name."""

import ast
import importlib
import math
import re
from pathlib import Path

import pytest

from sqzmet import fock, metrology, network, validate
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


ENVELOPE_SQUEEZE = metrology.SqueezeParameter(0.5)
# the vacuum's table has no tail at any cutoff, 0 included
VACUUM = metrology.SqueezeParameter(0.0)
# each interval row of README's envelope table, by the start of its argument
# cell, and calls at a value of the argument the row bounds
ENVELOPE_ROWS = {
    "`nbar` of `heisenberg_sensitivity`": [
        metrology.heisenberg_sensitivity, lambda v: metrology.estimate_phase(5, 10, v),
    ],
    "`nbar` of `check_regime`": [
        lambda v: metrology.check_regime([0.0], v), lambda v: metrology.sweep_point_probability(v, 0.0),
    ],
    "`phi_bar` of `sweep_point_probability`": [lambda v: metrology.sweep_point_probability(1.0, v)],
    "each entry of a phase vector": [
        lambda v: metrology.exact_survival_probability([1.0], [v], ENVELOPE_SQUEEZE),
        lambda v: fock.survival_probability_sectors([1.0], [v], ENVELOPE_SQUEEZE, 10),
        lambda v: fock.mach_zehnder_factorization_residual(v, 0.0, 2),
    ],
    "`p` of `simulate_shots`": [
        lambda v: metrology.simulate_shots(v, 10, 0), network.mach_zehnder_unitary,
    ],
    "`r` of `SqueezeParameter`": [metrology.SqueezeParameter],
    "`tail_bound` of `recommend_cutoff`": [lambda v: fock.recommend_cutoff(ENVELOPE_SQUEEZE, v)],
    "`cutoff` of `squeezed_vacuum_probabilities`": [
        lambda v: fock.squeezed_vacuum_probabilities(VACUUM, v),
        lambda v: fock.survival_probability([1.0], [0.1], VACUUM, v),
        lambda v: fock.survival_probability_sectors([1.0], [0.1], VACUUM, v),
        lambda v: fock.generator_moments_sectors([1.0], [0.1], VACUUM, v),
    ],
}
# the first interval of a range cell: `[low, high]`, either end open
INTERVAL = re.compile(r"`([\[(])([^,`]+), ([^`\])]+)([\])])`")


def _envelope_table():
    """README's envelope table, as {argument cell: range cell}."""
    text = README.read_text().split("| argument | range |\n| --- | --- |\n", 1)[1]
    return dict(line.strip("| ").split(" | ", 1) for line in text.split("\n\n", 1)[0].splitlines())


def _endpoint(text):
    """An interval end as a number: a figure, `inf` or a constant of the package, maybe negated."""
    sign, name = (-1, text[1:]) if text.startswith("-") else (1, text)
    for module in (metrology, network, fock):
        if hasattr(module, name):
            return sign * getattr(module, name)
    return float(text)


def test_every_interval_of_the_envelope_table_is_checked():
    rows = [argument for argument, cell in _envelope_table().items() if INTERVAL.search(cell)]
    keys = [[key for key in ENVELOPE_ROWS if row.startswith(key)] for row in rows]
    assert sorted(keys) == sorted([key] for key in ENVELOPE_ROWS), rows


@pytest.mark.parametrize("row", ENVELOPE_ROWS)
def test_the_envelope_table_states_each_range(row):
    # a closed end is accepted and one step past it refused; an open end is
    # refused at its figure.  A cutoff is even, so its step is 2
    cell = next(cell for argument, cell in _envelope_table().items() if argument.startswith(row))
    low_bracket, low, high, high_bracket = INTERVAL.search(cell).groups()
    even = cell.startswith("even")
    for call in ENVELOPE_ROWS[row]:
        for bracket, text, outward in ((low_bracket, low, -1), (high_bracket, high, 1)):
            bound = int(_endpoint(text)) if even else _endpoint(text)
            if bracket in "[]":
                call(bound)
                bound = bound + 2 * outward if even else math.nextafter(bound, outward * math.inf)
            with pytest.raises(ValueError):
                call(bound)
