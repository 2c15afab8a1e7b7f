"""The package ships only what some program path uses.

Every public top-level function and class of ``src/fedval`` must be
referenced by a module of the package. A re-export from ``__init__``
is not a use, and neither is a test: builders only tests need live in
``tests/conftest.py``.
"""

import ast
from pathlib import Path

import fedval

PACKAGE = Path(fedval.__file__).resolve().parent

# Public names no module uses, each with the reason it stays.
ALLOWED_UNREFERENCED = {
    "aggregate_subset": "perfbench/tracing.py patches it for a span",
    "participant_update": "perfbench/tracing.py patches it for a span",
    "config_to_dict": "snapshot headers are to record config sections through it",
}


def test_every_public_definition_has_a_package_caller():
    modules = {
        path.name: ast.parse(path.read_text(), filename=str(path))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "__init__.py"
    }
    defined = {
        node.name: name
        for name, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    referenced = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in modules.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unreferenced = {
        symbol: module for symbol, module in defined.items() if symbol not in referenced
    }
    assert set(unreferenced) == set(ALLOWED_UNREFERENCED), unreferenced
