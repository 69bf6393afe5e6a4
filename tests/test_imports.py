"""Each module of the package uses only the public names of its siblings."""
import ast
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
