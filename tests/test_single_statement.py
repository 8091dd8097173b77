"""Each rule on the Demazure weight's path is stated once.

The self-check of ``demazure_weight`` compares its telescoped product with the
closed form Psi_{i,x+t d_i}/Psi_{i,x+d_i} * m * n, which holds for every k >= 1,
so it never fires on working code.  The neighbour data has closed forms in
c_ij: no module but ``cartan`` (whose ``validate`` checks the table itself)
compares a Cartan entry with an int literal.  ``psi_to_y`` and ``_i_chain_psi``
sum along lane classes through the one routine ``monomials._lane_sums``.
"""
import ast
import pathlib

import pytest

import yqchar
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import demazure_weight
from yqchar.coords import coord

SRC = pathlib.Path(yqchar.__file__).parent
TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5",
         "E6", "E7", "E8", "F4", "G2"]
XS = [coord(0), coord("1/3"), coord("x"), coord("x-5/2")]


@pytest.mark.parametrize("name", TYPES)
def test_the_demazure_self_check_holds_on_every_node(name):
    cartan = build_cartan(LieType.parse(name))
    for i in cartan.nodes:
        for k in range(1, 7):
            for x in XS:
                for t in range(3):      # past the memo, so that every self-check runs
                    demazure_weight.__wrapped__(cartan, i, t, k, x)


def _is_cartan_entry(node) -> bool:
    """``cij``, ``c[i][j]`` (on any owner) or a call of ``cij(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
        return getattr(node, "attr", getattr(node, "id", None)) == "cij"
    if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Subscript):
        owner = node.value.value
        return getattr(owner, "attr", getattr(owner, "id", None)) == "c"
    return isinstance(node, ast.Name) and node.id == "cij"


def _is_int_literal(node) -> bool:
    """An int, signed or not, or a tuple, list or set of them."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return bool(node.elts) and all(map(_is_int_literal, node.elts))
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) is int


def _entry_tables(code: str) -> list:
    """The line of each comparison of a Cartan entry with an int literal."""
    return [n.lineno for n in ast.walk(ast.parse(code)) if isinstance(n, ast.Compare)
            and any(map(_is_cartan_entry, [n.left, *n.comparators]))
            and any(map(_is_int_literal, [n.left, *n.comparators]))]


@pytest.mark.parametrize("module", sorted(p.stem for p in SRC.glob("*.py") if p.stem != "cartan"))
def test_no_module_tables_a_cartan_entry(module):
    assert _entry_tables((SRC / f"{module}.py").read_text()) == []


def test_the_table_scan_reads_every_form():
    code = ("if cij == -2: pass\n"
            "if -3 == cartan.cij(i, j): pass\n"
            "if self.c[i][j] < 0: pass\n"
            "if c[i][j] in (-1, -2): pass\n"
            "if cij: pass\n"
            "if cartan.cij(i, j) == d: pass\n"
            "if r[0][0] == 1: pass\n"
            "y = range(-cij - 1)\n")
    assert _entry_tables(code) == [1, 2, 3, 4]


def _calls(fn: ast.FunctionDef) -> set:
    return {n.func.id for n in ast.walk(fn) if isinstance(n, ast.Call)
            and isinstance(n.func, ast.Name)}


def test_psi_to_y_and_the_i_chain_share_one_lane_sum():
    tree = ast.parse((SRC / "monomials.py").read_text())
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    assert "_lane_sums" in fns
    assert "_lane_sums" in _calls(fns["psi_to_y"]) & _calls(fns["_i_chain_psi"])
