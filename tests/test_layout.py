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


def _defined_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name))
    return names


def test_every_relative_import_names_the_defining_module():
    # a name is imported from its home, not through a module that imports it
    defined = {path.stem: _defined_names(ast.parse(path.read_text(), str(path)))
               for path in SRC.glob("*.py")}
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level > 0:
                found += [f"{path.name}: from .{node.module} import {alias.name}"
                          for alias in node.names
                          if alias.name not in defined[node.module]]
    assert found == []


def _calls_outside_layers(names: set[str]) -> list[str]:
    """Calls to any of names in a module other than layers.py."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "layers.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
                if name in names:
                    found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_only_layers_runs_the_layer_end_pass_and_the_layer_order():
    # the walk's layer order and layer-end rule have one home, Walk.advance
    assert _calls_outside_layers({"close_saturated", "next_layer"}) == []


def test_only_layers_sets_up_a_line():
    # a line's weights, draw size and early rejections have one home,
    # layers.open_line, for the sampler and the expander alike
    assert _calls_outside_layers({"line_weights"}) == []
