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
