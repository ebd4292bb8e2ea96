"""Only ``froxel.py`` knows how a FroxelGrid packs its bits: no other
package module reads or writes a grid's ``.bits`` or calls numpy's bit
packing and counting."""

import ast
from pathlib import Path

import froxelpvs

PACKAGE = Path(froxelpvs.__file__).parent
OWNER = "froxel.py"
PACKED_NAMES = {"packbits", "unpackbits", "bitwise_count"}


def packed_bit_uses(source: str) -> list:
    """Every ``.bits`` attribute and every name or attribute in
    ``PACKED_NAMES`` in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in PACKED_NAMES | {"bits"}:
            found.append(ast.unparse(node))
        elif isinstance(node, ast.Name) and node.id in PACKED_NAMES:
            found.append(node.id)
        elif isinstance(node, ast.alias) and node.name in PACKED_NAMES:
            found.append(node.name)
    return found


def test_packed_bit_uses_found():
    source = ("grid.bits[0]\ng.bits = b\nnp.packbits(a)\nnumpy.unpackbits(a)\n"
              "from numpy import bitwise_count\nbitwise_count(a)\n"
              "grid.at(c)\nbits = 1\nx.bitsize\n")
    assert sorted(packed_bit_uses(source)) == ["bitwise_count", "bitwise_count", "g.bits",
                                               "grid.bits", "np.packbits", "numpy.unpackbits"]


def test_only_the_owner_touches_packed_bits():
    found = {path.name: packed_bit_uses(path.read_text())
             for path in sorted(PACKAGE.glob("*.py")) if path.name != OWNER}
    assert {name: uses for name, uses in found.items() if uses} == {}
