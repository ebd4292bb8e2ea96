"""Every defaulted parameter of a package def is passed by some package
call site: a default that no package caller overrides is a constant
spelled as a knob.

The scan covers module-level functions and the methods of module-level
classes, private ones and dunders included. A call site passes a
parameter by keyword, by position, or through ``*args`` / ``**kwargs``.
Calls match defs by name, as in ``test_package_callers.py``: ``f(...)``
and ``x.f(...)`` both call every def named ``f``, a class's name and
``cls(...)`` in its methods call its ``__init__``, and a method's first
call position is the parameter after ``self`` or ``cls``. Calls in
``__init__.py`` count, though it holds none.
"""

import ast
from pathlib import Path

import froxelpvs

PACKAGE = Path(froxelpvs.__file__).parent

# Defaulted parameters that no package call site passes, each with its
# reason. An entry that names a missing parameter, or one that now has a
# passing call site, fails the lint.
ALLOWED = {
    "cli.main(argv)": "the console entry point passes nothing and reads sys.argv; "
                      "the tests pass argument lists",
    "core.TriScene.__init__(primitive_ids)":
        "the tests' subset reference keeps primitive ids; ROADMAP item 9",
    "evalrt.pixel_error_rate(resolution)": "the tests render small",
    "oracle.compute_gt_pvs(cameras)": "the tests pick camera subsets",
    "neural.ModelConfig.default(hidden)": "perfbench builds its nets with it (ROADMAP item 3(a))",
    "neural.ModelConfig.default(init)": "perfbench builds its nets with it (ROADMAP item 3(a))",
    "interleave.deinterleave(d)": "perfbench's viewcell check passes it (ROADMAP items 3(a), 13)",
    "interleave.deinterleave(threshold)":
        "perfbench's viewcell check passes it (ROADMAP items 3(a), 13)",
}


def _is_static(node) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)


def defaulted_params(sources: dict) -> dict:
    """``module.[Class.]def(param)`` -> ``(call name, position)`` for every
    defaulted parameter in ``sources``, a map from module name to source.
    The call name is the def's name, or its class's for ``__init__``;
    the position is the parameter's index among a call's positional
    arguments, or None for a keyword-only one."""
    params = {}

    def add(qual, call_name, fn, skip):
        args = fn.args
        positional = args.posonlyargs + args.args
        for i in range(len(positional) - len(args.defaults), len(positional)):
            params[f"{qual}({positional[i].arg})"] = (call_name, i - skip)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                params[f"{qual}({arg.arg})"] = (call_name, None)

    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                add(f"{module}.{node.name}", node.name, node, 0)
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        call = node.name if item.name == "__init__" else item.name
                        add(f"{module}.{node.name}.{item.name}", call, item,
                            0 if _is_static(item) else 1)
    return params


def call_sites(sources: dict) -> dict:
    """Call name -> list of ``(positional count, keyword names)``, one per
    call in ``sources``. A ``*args`` makes the count unbounded and a
    ``**kwargs`` adds the keyword None, which passes every parameter."""
    sites = {}

    def visit(tree, cls_name):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = cls_name if func.id == "cls" and cls_name else func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = float("inf") if starred else len(node.args)
            sites.setdefault(name, []).append((count, {k.arg for k in node.keywords}))

    for source in sources.values():
        tree = ast.parse(source)
        for node in tree.body:
            visit(node, node.name if isinstance(node, ast.ClassDef) else None)
    return sites


def unpassed_params(sources: dict) -> list:
    """Sorted defaulted parameters in ``sources`` that no call site passes."""
    sites = call_sites(sources)
    unpassed = []
    for qual, (call_name, position) in defaulted_params(sources).items():
        name = qual[qual.index("(") + 1:-1]
        if not any(name in keywords or None in keywords
                   or (position is not None and position < count)
                   for count, keywords in sites.get(call_name, ())):
            unpassed.append(qual)
    return sorted(unpassed)


def param_problems(sources: dict, allowed) -> list:
    """Each unpassed parameter that ``allowed`` does not name, and each
    entry of ``allowed`` that names no defaulted parameter or one that
    some call site passes."""
    params, unpassed = defaulted_params(sources), unpassed_params(sources)
    problems = [f"{name}: no package call site passes it"
                for name in unpassed if name not in allowed]
    for name in sorted(allowed):
        if name not in params:
            problems.append(f"{name}: allowed, but no such defaulted parameter")
        elif name not in unpassed:
            problems.append(f"{name}: allowed, but a package call site passes it")
    return problems


SOURCES = {
    "a": ("def by_keyword(x, k=1):\n    pass\n"
          "def by_position(x, k=1, j=2):\n    pass\n"
          "def never(x, k=1, *, only=2):\n    pass\n"
          "def splat(k=1, *, only=2):\n    pass\n"
          "class K:\n"
          "    def __init__(self, a, b=0):\n        pass\n"
          "    def method(self, k=1):\n        pass\n"
          "    @classmethod\n"
          "    def make(cls, k=1):\n        return cls(1, 2)\n"
          "    @staticmethod\n"
          "    def static(k=1):\n        pass\n"),
    "b": ("from .a import K, by_keyword, by_position, never, splat\n"
          "by_keyword(0, k=2)\nby_position(0, 1)\nnever(0)\nsplat(*[1], **{})\n"
          "K(1).method()\nK.make(3)\nK.static(1)\n"),
}


def test_unpassed_params_found():
    """``by_position`` passes ``k`` alone; ``method`` gets no argument,
    so its ``self`` offset must not count the call's nothing as ``k``;
    ``cls(1, 2)`` passes ``K.__init__``'s ``b``."""
    assert unpassed_params(SOURCES) == [
        "a.K.method(k)", "a.by_position(j)", "a.never(k)", "a.never(only)"]


def test_stale_allow_list_entries_found():
    allowed = {"a.never(k)": "", "a.never(only)": "", "a.by_keyword(k)": "",
               "a.gone(k)": ""}
    assert param_problems(SOURCES, allowed) == [
        "a.K.method(k): no package call site passes it",
        "a.by_position(j): no package call site passes it",
        "a.by_keyword(k): allowed, but a package call site passes it",
        "a.gone(k): allowed, but no such defaulted parameter",
    ]


def test_every_defaulted_parameter_is_passed_by_the_package():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert all(reason for reason in ALLOWED.values())
    assert param_problems(sources, ALLOWED) == []
