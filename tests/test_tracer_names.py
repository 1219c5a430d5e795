"""The benchmark tracer wraps library functions by name: every name it lists
must resolve, or only the traced benchmark runs would notice."""

import ast
import importlib
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _listed(name):
    """The literal tuple assigned to ``name`` in the tracer's source, read
    with ast: the tracer is neither imported nor run."""
    tree = ast.parse(_TRACER.read_text(), filename=str(_TRACER))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == name for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not assigned in {_TRACER}")


@pytest.mark.parametrize("table", ["ENTRY_POINTS", "COUNTED"])
def test_every_traced_name_resolves(table):
    entries = _listed(table)
    assert entries
    for module_name, attr, _ in entries:
        module = importlib.import_module(f"hyperscatter.{module_name}")
        if "." in attr:  # Class.method: the tracer reads the class's own __dict__
            cls_name, method = attr.split(".")
            assert method in vars(getattr(module, cls_name)), (module_name, attr)
        else:
            assert callable(getattr(module, attr, None)), (module_name, attr)
