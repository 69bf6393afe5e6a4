"""Each module of the package uses only the public names of its siblings."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import chargesched

PACKAGE = Path(chargesched.__file__).parent


def test_no_module_imports_a_private_name_of_a_sibling():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}:{node.lineno}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert not found


def _private(name) -> bool:
    return isinstance(name, str) and name.startswith("_") and not name.startswith("__")


def _private_definitions(tree: ast.Module) -> set[str]:
    """Private names a module gives a meaning: its functions, classes and
    methods, the names its module and class bodies assign, and every
    attribute it sets, by assignment or by (object.__)setattr."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, (ast.Module, ast.ClassDef)):
            for stmt in node.body:
                targets = (stmt.targets if isinstance(stmt, ast.Assign) else
                           [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
                names.update(t.id for t in targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif (isinstance(node, ast.Call) and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)
              and getattr(node.func, "attr", getattr(node.func, "id", None))
              in ("setattr", "__setattr__")):
            names.add(node.args[1].value)
    return set(filter(_private, names))


def private_reads_across_modules(package: Path) -> list[str]:
    """Every `x._name` a module reads where only a sibling defines `_name`."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(package.glob("*.py"))}
    defined = {name: _private_definitions(tree) for name, tree in trees.items()}
    found = []
    for name, tree in trees.items():
        elsewhere = set().union(*(d for other, d in defined.items() if other != name))
        found += [f"{name}:{node.lineno}: .{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and _private(node.attr) and node.attr not in defined[name]
                  and node.attr in elsewhere]
    return found


def test_no_module_reads_a_private_attribute_only_a_sibling_defines():
    assert private_reads_across_modules(PACKAGE) == []


def test_monte_carlo_and_certificates_load_no_factorisation():
    # `capacity_scenario`'s demand chain has one state, so its initial
    # distribution needs no solve: a Monte Carlo run or a certificate never
    # loads SuperLU or LAPACK wrappers, which would raise its peak memory.
    code = "\n".join([
        "import sys",
        "from chargesched.interchange import certify_dominance",
        "from chargesched.models import capacity_scenario",
        "from chargesched.montecarlo import monte_carlo",
        "from chargesched.policies import make_policy",
        "scenario = capacity_scenario(20, 'quadratic')",
        "monte_carlo(scenario, make_policy('lllp', scenario), 30, 4, 0)",
        "certify_dominance(scenario, make_policy('edf', scenario), 2, 0)",
        "print([m for m in ('scipy.sparse.linalg', 'scipy.linalg') if m in sys.modules])"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + os.environ.get("PYTHONPATH", "").split(os.pathsep)))
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert run.stdout.split() == ["[]"]


def test_pytest_finds_the_package_in_a_bare_checkout():
    # pyproject.toml puts src/ on the path, so no PYTHONPATH is needed.
    root = PACKAGE.parent.parent
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run([sys.executable, "-m", "pytest", "--collect-only", "-q",
                          "-p", "no:cacheprovider", "tests/test_core.py"],
                         cwd=root, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stdout + run.stderr
