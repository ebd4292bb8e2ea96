"""Every public function and method of the package has a caller in the
package: code that only the tests call belongs in the tests.

A module-level function counts as called when some package module other
than ``__init__.py`` reads its name, as a name, an attribute or an import.
A method counts as called when some package module reads its name as an
attribute. Dunder methods are exempt, because operators and the runtime
call them.

The scanner matches names, not types. A read of ``x.values`` counts for
every method called ``values``, so ``ChannelTensor.values``, an array
attribute, hides ``FroxelIdMap.values``. A def's reads of its own name
count too, so a recursive function calls itself.
"""

import ast
from pathlib import Path

import froxelpvs

PACKAGE = Path(froxelpvs.__file__).parent

# Public defs with no package caller, each with its reason. An entry that
# names a missing def, or a def that now has a caller, fails the lint.
ALLOWED = {
    "froxel.FroxelGrid.set_many":
        "perfbench's viewcell check builds its key grid with it (ROADMAP item 3(a))",
    "froxel.FroxelGrid.subset_of":
        "perfbench's datagen check and ROADMAP item 2's subset check use it",
    "core.save_scene":
        "writes the scene format that --scene reads; the round-trip pair of load_scene",
    "cli._Parser.error":
        "argparse calls it on a usage error",
    "evalrt.MetricsRecord.gtp_zero":
        "a record's empty-ground-truth flag, derived from gtp so the two cannot disagree; "
        "the CSV does not carry it, and only readers of records ask it",
}


def public_defs(sources: dict) -> dict:
    """Every public module-level function (``module.name``) and every
    public method (``module.Class.name``) in ``sources``, a map from module
    name to source, mapped to whether it is a method. Methods of private
    classes count too; names with a leading underscore, dunders among
    them, do not."""
    defs = {}
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not node.name.startswith("_"):
                    defs[f"{module}.{node.name}"] = False
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                            and not item.name.startswith("_")):
                        defs[f"{module}.{node.name}.{item.name}"] = True
    return defs


def package_reads(sources: dict) -> tuple:
    """``(names, attributes)`` read in ``sources`` outside ``__init__``:
    names and imported names, and attribute names."""
    names, attrs = set(), set()
    for module, source in sources.items():
        if module == "__init__":
            continue
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
    return names, attrs


def uncalled_defs(sources: dict) -> list:
    """Sorted public defs in ``sources`` that no module reads."""
    names, attrs = package_reads(sources)
    return sorted(qual for qual, is_method in public_defs(sources).items()
                  if qual.rsplit(".", 1)[1] not in (attrs if is_method else names | attrs))


def caller_problems(sources: dict, allowed) -> list:
    """Each uncalled def that ``allowed`` does not name, and each entry of
    ``allowed`` that names no def or a def that has a caller."""
    defs, uncalled = public_defs(sources), uncalled_defs(sources)
    problems = [f"{name}: no package caller" for name in uncalled if name not in allowed]
    for name in sorted(allowed):
        if name not in defs:
            problems.append(f"{name}: allowed, but no such def")
        elif name not in uncalled:
            problems.append(f"{name}: allowed, but it has a package caller")
    return problems


SOURCES = {
    "a": ("def used():\n    pass\n"
          "def unused():\n    pass\n"
          "def by_attribute():\n    pass\n"
          "def _private():\n    pass\n"
          "class K:\n"
          "    def read(self):\n        pass\n"
          "    def unread(self):\n        pass\n"
          "    def __len__(self):\n        return 0\n"
          "    def _hidden(self):\n        pass\n"
          "    def called_by_name(self):\n        pass\n"),
    "b": ("from .a import used\nfrom . import a\n"
          "used()\nK().read()\na.by_attribute()\ncalled_by_name = 1\n"),
    # reads in __init__ do not count
    "__init__": "from .a import unused\nunused()\nK().unread()\n",
}


def test_uncalled_defs_found():
    assert uncalled_defs(SOURCES) == ["a.K.called_by_name", "a.K.unread", "a.unused"]


def test_stale_allow_list_entries_found():
    allowed = {"a.unused": "", "a.K.unread": "", "a.K.read": "", "a.gone": ""}
    assert caller_problems(SOURCES, allowed) == [
        "a.K.called_by_name: no package caller",
        "a.K.read: allowed, but it has a package caller",
        "a.gone: allowed, but no such def",
    ]


def test_every_public_def_has_a_package_caller():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert all(reason for reason in ALLOWED.values())
    assert caller_problems(sources, ALLOWED) == []
