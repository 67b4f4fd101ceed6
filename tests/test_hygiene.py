"""Static checks over the package source: nothing imported or defined in vain.

The checks read the syntax trees of ``src/stieltjes/*.py`` with the standard
library's ``ast``: an import must be used in its module (a name listed in
``__all__`` counts as used), a module-level private function or constant
and a private method or property of a class must be referenced from some
module of the package, a local name assigned
in a function must be read there (``_`` marks a value thrown away), and
``specio`` turns errors into document errors in one place.
"""

import ast
from pathlib import Path

import stieltjes

PACKAGE = Path(stieltjes.__file__).resolve().parent
TREES = {path.name: ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree) -> set[str]:
    """Names read anywhere in a tree, attribute names included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {elt.value for elt in node.value.elts}
    return set()


def _is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def unused_imports() -> list[str]:
    found = []
    for module, tree in TREES.items():
        used = _loaded_names(tree) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = (alias.asname or alias.name).split(".")[0]
                    if bound not in used:
                        found.append(f"{module}: {bound}")
    return found


def unreferenced_privates() -> list[str]:
    used = set().union(*(_loaded_names(tree) for tree in TREES.values()))
    found = []
    for module, tree in TREES.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            found += [f"{module}: {name}" for name in defined
                      if _is_private(name) and name not in used]
    return found


def unreferenced_private_methods() -> list[str]:
    """``module: Class.name`` for each private method or property of a
    module-level class that no module of the package reads."""
    used = set().union(*(_loaded_names(tree) for tree in TREES.values()))
    return [f"{module}: {node.name}.{f.name}" for module, tree in TREES.items()
            for node in tree.body if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, ast.FunctionDef)
            and _is_private(f.name) and f.name not in used]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _own_nodes(scope):
    """Nodes of a function's body outside the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))


def unread_locals() -> list[str]:
    """``module: function.name`` for each local assigned and never read in its
    function or the functions nested in it."""
    found = []
    for module, tree in TREES.items():
        for scope in ast.walk(tree):
            if not isinstance(scope, _SCOPES):
                continue
            own = list(_own_nodes(scope))
            stored = {n.id for n in own
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            shared = {name for n in own if isinstance(n, (ast.Global, ast.Nonlocal))
                      for name in n.names}
            read = {n.id for n in ast.walk(scope)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            name = getattr(scope, "name", "<lambda>")
            found += [f"{module}: {name}.{local}"
                      for local in sorted(stored - read - shared - {"_"})]
    return found


def except_owners(tree) -> set[str]:
    """Module-level definitions holding an ``except`` handler, at any depth;
    ``<module>`` for a handler outside every definition."""
    owners = set()
    for node in tree.body:
        if any(isinstance(n, ast.ExceptHandler) for n in ast.walk(node)):
            owners.add(getattr(node, "name", "<module>"))
    return owners


def test_every_import_is_used():
    assert unused_imports() == []


def test_every_module_level_private_is_referenced():
    assert unreferenced_privates() == []


def test_every_private_method_is_referenced():
    assert unreferenced_private_methods() == []


def test_every_local_is_read():
    assert unread_locals() == []


def test_specio_catches_errors_in_two_functions_only():
    # _built re-raises constructor errors at a path; load_json reads the file
    assert except_owners(TREES["specio.py"]) <= {"_built", "load_json"}


def test_the_checks_see_a_planted_fault():
    tree = ast.parse("import os\nfrom math import pi\n_SPARE = 1\n\ndef _idle():\n    return pi\n")
    assert _loaded_names(tree) == {"pi"}
    TREES["planted.py"] = tree
    try:
        assert unused_imports() == ["planted.py: os"]
        assert unreferenced_privates() == ["planted.py: _SPARE", "planted.py: _idle"]
    finally:
        del TREES["planted.py"]
    tree = ast.parse("class K:\n    def _used(self):\n        return 1\n\n    @property\n"
                     "    def _spare(self):\n        return self._used()\n\n"
                     "    def __len__(self):\n        return 0\n")
    TREES["planted.py"] = tree
    try:
        assert unreferenced_private_methods() == ["planted.py: K._spare"]
    finally:
        del TREES["planted.py"]
    tree = ast.parse("def f(x):\n    a, b = x\n    _, c = x\n    def g():\n        return b\n"
                     "    return g\n\nclass K:\n    def h(self):\n        global n\n"
                     "        n = [k for k in self]\n        m = n\n")
    TREES["planted.py"] = tree
    try:
        assert unread_locals() == ["planted.py: f.a", "planted.py: f.c", "planted.py: h.m"]
    finally:
        del TREES["planted.py"]
    tree = ast.parse("def f():\n    def g():\n        try:\n            pass\n"
                     "        except ValueError:\n            pass\n\n"
                     "try:\n    pass\nexcept ImportError:\n    pass\n")
    assert except_owners(tree) == {"f", "<module>"}
