"""A class is a dataclass only where its ``__post_init__`` enforces a rule; plain records are NamedTuples."""

import ast
from pathlib import Path

import pytest

from sqzmet import EstimationResult, PhotonMoments, ProtocolRun, SweepResult

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "sqzmet"


def _is_dataclass_decorator(node: ast.expr) -> bool:
    # @dataclass, @dataclasses.dataclass, or either called with options
    target = node.func if isinstance(node, ast.Call) else node
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_every_dataclass_enforces_a_rule(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    plain = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(_is_dataclass_decorator(decorator) for decorator in node.decorator_list)
        and not any(
            isinstance(item, ast.FunctionDef) and item.name == "__post_init__" for item in node.body
        )
    ]
    assert plain == [], f"plain records belong in a NamedTuple: {plain}"


@pytest.mark.parametrize(
    "record, fields",
    [
        (PhotonMoments, ("mean_n", "var_n")),
        (ProtocolRun, ("phi_bar_true", "p_exact", "p_hat", "phi_hat", "regime_ratio", "regime_ok")),
        (EstimationResult, ("p_hat", "phi_hat", "delta_phi_sq", "heisenberg_bound")),
        (SweepResult, ("nbars", "shots", "repetitions", "results", "slope")),
    ],
)
def test_result_records_keep_their_field_names(record, fields):
    assert issubclass(record, tuple)
    assert record._fields == fields
