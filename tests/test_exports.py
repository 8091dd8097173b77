"""Every name a module exports in ``__all__`` exists and has a caller in ``src/``."""
import ast
import importlib
import pathlib
import pkgutil

import pytest

import yqchar

MODULES = ["yqchar"] + [f"yqchar.{m.name}" for m in pkgutil.iter_modules(yqchar.__path__)]
SRC = pathlib.Path(yqchar.__file__).parent

# Exports that no engine path calls, each kept for a reason of its own.
ORACLES = {
    # the closed-form rank-one KR character that the acceptance gate compares
    # the engine with
    ("characters", "sl2_kr_char"),
    # the weight projection R -> h^* that the acceptance gate checks on
    # every generator
    ("monomials", "weight_projection"),
}


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []


def _uses(node, mod, names, modules) -> set:
    """(module, name) of each definition that ``node`` reads: a bare name is
    the one its module imports from the package or defines itself, and
    ``M.name`` reads a module imported as ``from . import m as M``."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add((names.get(n.id, mod), n.id))
        elif (isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
              and n.value.id in modules):
            out.add((modules[n.value.id], n.attr))
    return out


def _dead_exports() -> list:
    """(module, name) of each export that only its own definition, or the
    definitions of other dead exports, refer to.  Imports and ``__all__``
    are not references; an export of ``__init__`` is the definition it
    imports.  Dunder metadata such as ``__version__`` is read by the build,
    not by code, and is not checked."""
    exports, defs, free = set(), {}, set()
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        names, modules = {}, {}
        for n in tree.body:
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    if n.module is None:
                        modules[a.asname or a.name] = a.name
                    else:
                        names[a.asname or a.name] = n.module
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            targets = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            if targets == ["__all__"]:
                exports |= {(names.get(n, mod), n) for n in ast.literal_eval(node.value)
                            if not n.startswith("__")}
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[(mod, node.name)] = _uses(node, mod, names, modules)
            elif len(targets) == 1:
                defs[(mod, targets[0])] = _uses(node, mod, names, modules)
            else:
                free |= _uses(node, mod, names, modules)
    dead = set()
    while True:
        # a definition's reads of its own name (recursion, return types)
        # do not keep it alive
        now = {e for e in exports - ORACLES if e not in free and not any(
            e in u for d, u in defs.items() if d != e and d not in dead)}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_export_has_a_caller_in_src():
    assert _dead_exports() == []
