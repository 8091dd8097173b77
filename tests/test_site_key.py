"""``monomials`` is the one owner of the int site key ``off2 << 32 | lane``: no
other module reads the lane table or a site's bits, and ``monomials`` prints
its sites without reading back the grammar in ``textio``."""
import ast
import pathlib

import pytest

import yqchar
import yqchar.monomials as monomials
import yqchar.textio as textio

SRC = pathlib.Path(yqchar.__file__).parent
MODULES = sorted(path.stem for path in SRC.glob("*.py"))

# The names of the lane table and of the lane bits of a site.
LANE_NAMES = {"_LANES", "_LANE_IDS", "_LANE", "_lane"}


def _tree(module: str) -> ast.Module:
    return ast.parse((SRC / f"{module}.py").read_text())


def _key_reads(tree) -> list:
    """The source of each name in ``LANE_NAMES`` that ``tree`` reads, imports or
    defines, and of each right shift by 32 (a site's off2)."""
    out = []
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and n.id in LANE_NAMES \
                or isinstance(n, ast.Attribute) and n.attr in LANE_NAMES:
            out.append(ast.unparse(n))
        elif isinstance(n, (ast.ImportFrom, ast.Import)):
            out += [f"import {a.name}" for a in n.names if a.name in LANE_NAMES]
        elif isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name in LANE_NAMES:
            out.append(f"def {n.name}")
        elif isinstance(n, (ast.BinOp, ast.AugAssign)) and isinstance(n.op, ast.RShift) \
                and isinstance(v := n.right if isinstance(n, ast.BinOp) else n.value,
                               ast.Constant) and v.value == 32:
            out.append(ast.unparse(n))
    return out


@pytest.mark.parametrize("module", [m for m in MODULES if m != "monomials"])
def test_no_module_but_monomials_reads_a_lane_or_a_sites_bits(module):
    assert _key_reads(_tree(module)) == []


def test_the_key_scan_sees_each_form():
    code = ("from .monomials import _LANES, _HALF\n"
            "a = M._LANE_IDS[s & M._LANE]\nb = s >> 32\nb >>= 32\nc = s >> 31\n"
            "def f(): return _LANES\nclass _lane: pass\nd = (s - t) // _HALF\n")
    assert sorted(_key_reads(ast.parse(code))) == sorted([
        "import _LANES", "M._LANE_IDS", "M._LANE", "s >> 32", "b >>= 32", "_LANES",
        "def _lane"])
    assert _key_reads(_tree("monomials"))       # the owner reads its own key


def _imports(tree) -> set:
    """The modules that ``tree`` imports at any depth, as dotted names relative to
    the package: ``from .textio import f``, ``from . import textio`` and
    ``import yqchar.textio`` all give "textio"."""
    out = set()
    for n in ast.walk(tree):
        if isinstance(n, ast.ImportFrom):
            module = (n.module or "").removeprefix("yqchar").lstrip(".")
            out |= {module} if module else {a.name for a in n.names}
        elif isinstance(n, ast.Import):
            out |= {a.name.removeprefix("yqchar.") for a in n.names}
    return out


def test_monomials_imports_nothing_from_textio():
    assert "textio" not in _imports(_tree("monomials"))
    assert _imports(ast.parse("def f():\n    from .textio import g\n")) == {"textio"}
    assert _imports(ast.parse("from . import textio as T\nimport yqchar.textio\n"
                              "from yqchar.textio import g\n")) == {"textio"}


def test_textio_prints_with_the_printer_of_monomials():
    assert textio.format_monomial is monomials.format_monomial
