"""Module layout rules for the package sources."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "cptables"


def test_no_module_imports_another_modules_private_name():
    # a name another module needs belongs to its public surface
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from {'.' * node.level}"
                          f"{node.module or ''} import {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
