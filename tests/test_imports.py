"""Source hygiene: every module of the package and of its tests uses what
it imports and binds every global name it reads, the package imports at
module level only, every function of the package is read by the package
itself, and every optional parameter of the package is passed by some
call."""

import ast
import builtins
import symtable
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "tautrels"
TESTS = Path(__file__).resolve().parent


def unused_imports(path: Path) -> list:
    """Names the module at ``path`` imports but neither uses nor lists in
    its ``__all__``."""
    imported, used, exported = set(), set(), set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported |= set(ast.literal_eval(node.value))
    return sorted(imported - used - exported)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path) == []


def test_check_sees_an_unused_import(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from __future__ import annotations\n"
                      "import os, json\nfrom math import comb as c\n"
                      "__all__ = ['json']\nprint(os.sep)\n")
    assert unused_imports(module) == ["c"]


def function_imports(path: Path) -> list:
    """Lines of the ``import`` statements inside function bodies of the
    module at ``path``.  Such an import hides a dependency from the top of
    the module and runs again on every call."""
    return sorted({
        node.lineno
        for fn in ast.walk(ast.parse(path.read_text()))
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    })


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_package_imports_at_module_level(path):
    assert function_imports(path) == []


def test_check_sees_a_function_import(tmp_path):
    # imports in a function, a nested function and a coroutine; the ones in
    # a class body and under a module-level ``if`` run once and pass
    module = tmp_path / "m.py"
    module.write_text(
        "import os\n"
        "def f():\n    import json\n    return json\n"
        "class K:\n    from math import comb\n"
        "    def m(self):\n"
        "        def inner():\n            from random import Random\n"
        "        return inner\n"
        "async def g():\n    import sys\n"
        "if os:\n    import re\n"
    )
    assert function_imports(module) == [3, 9, 12]


# names a module's namespace holds without binding them; the others, such
# as ``__name__``, are builtins too
MODULE_DUNDERS = {"__builtins__", "__cached__", "__file__"}


def undefined_names(path: Path) -> list:
    """Global names that some scope of the module at ``path`` reads but that
    the module never binds at module level and that are no builtins or
    module dunders: a dropped import, for one, which would raise
    ``NameError`` only when the code that reads it runs."""
    top = symtable.symtable(path.read_text(), str(path), "exec")
    known = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported() or s.is_namespace()}
    known |= set(dir(builtins)) | MODULE_DUNDERS
    found, tables = set(), [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        found |= {s.get_name() for s in table.get_symbols()
                  if s.is_referenced() and s.is_global()
                  and s.get_name() not in known}
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"tests/{p.name}")
def test_no_undefined_names(path):
    assert undefined_names(path) == []


def test_check_sees_an_undefined_name(tmp_path):
    # sys, json and Path are read and never imported; __fle__ is a typo
    module = tmp_path / "m.py"
    module.write_text(
        "import os\nfrom math import comb\n"
        "print(sys.argv, __file__, __name__, __fle__)\n"
        "def f(a):\n    return [json.dumps(x) for x in a] + [os.sep]\n"
        "class K:\n    y = Path\n"
        "    def m(self):\n        return lambda: comb(1, 1) + self.y\n"
        "try:\n    pass\nexcept OSError as err:\n    pass\n"
        "for i in range(2):\n    pass\nprint(i, err, f, K)\n"
    )
    assert undefined_names(module) == ["Path", "__fle__", "json", "sys"]


def unreferenced_functions(paths: list) -> list:
    """``"module:function"`` for each function defined in the modules at
    ``paths`` whose name no module at ``paths`` reads, as a name or as an
    attribute.  Dunder methods are called by the language, not by name, and
    are left out."""
    defined, read = [], set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                if not (node.name.startswith("__")
                        and node.name.endswith("__")):
                    defined.append((path.stem, node.name))
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                read.add(node.attr)
    return sorted(f"{module}:{name}" for module, name in defined
                  if name not in read)


def test_every_package_function_is_read_by_the_package():
    assert unreferenced_functions(sorted(SRC.glob("*.py"))) == [
        # the public product of smooth classes, which the benchmark's tracer
        # binds and the test oracles read
        "classes:multiply_smooth",
        # the public word API, which the benchmark's tracer binds
        "classes:normal_form",
    ]


def test_check_sees_an_unreferenced_function(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def used():\n    return 1\n"
        "def unused():\n    return used()\n"
        "def read_as_attribute():\n    pass\n"
        "def only_stored():\n    pass\n"
        "class K:\n"
        "    def __init__(self):\n        self.only_stored = 1\n"
        "    def method(self):\n        return self.read_as_attribute\n"
        "    def orphan(self):\n        pass\n"
        "K().method()\n"
    )
    assert unreferenced_functions([module]) == [
        "m:only_stored", "m:orphan", "m:unused"]


def _is_method(fn: ast.FunctionDef, cls: ast.ClassDef | None) -> bool:
    return cls is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list
    )


def unpassed_optionals(defining: list, calling: list) -> list:
    """``"module:function(parameter)"`` for each optional parameter of a
    function in the ``defining`` modules that no call in the ``calling``
    modules passes, by position or by keyword.

    Calls are matched by the called name (``f(...)`` and ``obj.f(...)``
    alike), and a call of a class defined in ``defining`` is a call of its
    ``__init__``.  ``*args`` in a call passes every position; ``**kwargs``
    passes nothing that can be read off the call.
    """
    functions, classes = [], set()
    for path in defining:
        tree = ast.parse(path.read_text())
        scopes = [(tree, None)]
        while scopes:
            node, cls = scopes.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ClassDef):
                    classes.add(child.name)
                    scopes.append((child, child))
                elif isinstance(child, ast.FunctionDef):
                    functions.append((path, child, _is_method(child, cls)))
                    scopes.append((child, None))
                else:
                    scopes.append((child, cls))
    calls: dict = {}
    for path in calling:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in classes:
                name = "__init__"
            positions = (float("inf")
                         if any(isinstance(a, ast.Starred) for a in node.args)
                         else len(node.args))
            calls.setdefault(name, []).append(
                (positions, {k.arg for k in node.keywords}))
    found = []
    for path, fn, method in functions:
        args = fn.args
        positional = (args.posonlyargs + args.args)[int(method):]
        optional = [(i, a.arg) for i, a in enumerate(positional)
                    if i >= len(positional) - len(args.defaults)]
        optional += [(None, a.arg) for a, default
                     in zip(args.kwonlyargs, args.kw_defaults) if default]
        for i, arg in optional:
            if not any(arg in keywords or (i is not None and positions > i)
                       for positions, keywords in calls.get(fn.name, ())):
                found.append(f"{path.stem}:{fn.name}({arg})")
    return found


def test_every_optional_parameter_is_passed():
    sources = sorted(SRC.glob("*.py"))
    assert unpassed_optionals(sources,
                              sources + sorted(TESTS.glob("*.py"))) == []


def test_check_sees_an_unpassed_optional(tmp_path):
    module = tmp_path / "m.py"
    module.write_text(
        "def f(a, b=1, *, c=2, d=3):\n    return a\n"
        "class K:\n"
        "    def __init__(self, x=0, y=0):\n        pass\n"
        "    def m(self, z=0):\n        return z\n"
        "    @staticmethod\n"
        "    def s(w=0):\n        return w\n"
        "f(0, c=1, **{'d': 4})\nK(1)\nK.s(1)\nK().m()\n"
    )
    assert sorted(unpassed_optionals([module], [module])) == [
        "m:__init__(y)", "m:f(b)", "m:f(d)", "m:m(z)"]
