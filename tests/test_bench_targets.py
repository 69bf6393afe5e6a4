"""The benchmark tracer wraps package functions by name; each must exist."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


def _targets():
    """`TARGETS` of benchmarks/spans.py, read from its source without running it."""
    tree = ast.parse(SPANS.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS in {SPANS}")


def test_every_traced_name_resolves_to_a_callable():
    # Tracer.install reads owner.__dict__[attr]: a deleted or renamed name
    # there fails every traced benchmark run with a KeyError.
    targets = _targets()
    assert targets
    for mod_name, qualname in targets:
        owner = importlib.import_module(f"chargesched.{mod_name}")
        *cls_path, attr = qualname.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(owner.__dict__.get(attr)), f"{mod_name}.{qualname}"
