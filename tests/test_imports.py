"""Every name a package module imports is used in that module."""

import ast
from pathlib import Path

import froxelpvs

PACKAGE = Path(froxelpvs.__file__).parent


def unused_imports(source: str) -> list:
    """Names bound by import statements in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_unused_imports_found():
    assert unused_imports("import os\nfrom a import b, c as d\nd(b)\n") == ["os"]


def test_package_imports_all_used():
    found = {path.name: unused_imports(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in found.items() if names} == {}
