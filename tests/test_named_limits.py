"""Every tolerance and certified tail in the package has a module-level name."""

import ast
from pathlib import Path

import pytest

from sqzmet import fock, validate

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqzmet"


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
        fock.DEFAULT_TAIL_BOUND,
    ) == (1e-10, 1e-13, 1e-14, 1e-16, 1e-10)
    # each tail sits below the pass bound of the check that certifies with it
    assert validate.ODD_TERM_TAIL < validate.ODD_TERM_TOL
    assert validate.VARIANCE_IDENTITY_TAIL < validate.VARIANCE_IDENTITY_TOL
    assert validate.TABLE_ROUTE_TAIL < fock.MAX_TABLE_TAIL
