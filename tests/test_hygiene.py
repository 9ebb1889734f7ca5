"""Source hygiene of the library, by an AST scan of src/motivelab: every
import is used, and every module-level private function and private
constant is referenced somewhere in the library, so helpers and guards left
behind by a rewrite show up."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "motivelab"
MODULES = sorted(SRC.glob("*.py"))


def _used_names(tree):
    """Every bare name read in the tree and every attribute name."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _unused_imports(tree):
    used = _used_names(tree)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    return [name for name in imported if name not in used]


def _referenced(trees):
    referenced = set()
    for tree in trees.values():
        referenced |= _used_names(tree)
        referenced.update(a.name for node in ast.walk(tree)
                          if isinstance(node, ast.ImportFrom) for a in node.names)
    return referenced


def _unreferenced_private_functions(trees):
    """module:function for each module-level def _name that no module names."""
    referenced = _referenced(trees)
    return [f"{module}:{node.name}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
            and node.name not in referenced]


def _unreferenced_private_constants(trees):
    """module:name for each module-level _NAME = ... that no module reads."""
    referenced = _referenced(trees)
    return [f"{module}:{target.id}" for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name) and target.id.startswith("_")
            and not target.id.startswith("__") and target.id not in referenced]


# __init__.py only re-exports, so its imports are its interface
@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text())) == []


def test_every_private_function_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    assert _unreferenced_private_functions(trees) == []


def test_every_private_constant_is_referenced():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    assert _unreferenced_private_constants(trees) == []


def test_scan_finds_leftovers():
    tree = ast.parse("import os\nfrom math import gcd\n\n"
                     "_RECONSTRUCTION_GUARD = 1 << 27\n_FIRST_BATCH = 4\n\n"
                     "def _poly_axpy(a, b):\n    return a\n\n"
                     "def _used():\n    return gcd(2, 4) + _FIRST_BATCH\n\n"
                     "def f():\n    return _used()\n")
    assert _unused_imports(tree) == ["os"]
    assert _unreferenced_private_functions({"m.py": tree}) == ["m.py:_poly_axpy"]
    assert _unreferenced_private_constants({"m.py": tree}) == ["m.py:_RECONSTRUCTION_GUARD"]
