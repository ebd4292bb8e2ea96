"""No package module reaches into another object's private attributes."""

import ast
from pathlib import Path

import froxelpvs

PACKAGE = Path(froxelpvs.__file__).parent


def private_reads(source: str) -> list:
    """``name.attr`` of every underscore attribute in ``source`` read off
    anything other than ``self`` or ``cls``; dunders are public."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{ast.unparse(node.value)}.{node.attr}")
    return found


def test_private_reads_found():
    source = "self._a\ncls._b\nother._c\nf()._d\nx.__class__\nx.public\n"
    assert private_reads(source) == ["other._c", "f()._d"]


def test_package_reads_no_private_attributes():
    found = {path.name: private_reads(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: reads for name, reads in found.items() if reads} == {}
