"""Each rule on the Demazure weight's path is stated once.

The self-check of ``demazure_weight`` compares its telescoped product with the
closed form Psi_{i,x+t d_i}/Psi_{i,x+d_i} * m * n, which holds for every k >= 1,
so it never fires on working code.  The neighbour data has closed forms in
c_ij: no module but ``cartan`` (whose ``validate`` checks the table itself)
compares a Cartan entry with an int literal.  ``psi_to_y`` and ``_i_chain_psi``
sum along lane classes through the one routine ``monomials._lane_sums``.
The KR string of ``kr_top_y`` is expanded through the one admitted KR
expansion ``characters.kr_char``, and ``verify factorization`` is read off
the self-check, so a broken n-weight is an engine fault, never a "fail".
"""
import ast
import io
import pathlib

import pytest

import yqchar
import yqchar.characters as characters
import yqchar.cli as cli
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


def _callers(name: str) -> set:
    """(module, top-level definition) of each call of ``name`` in src/, the
    definition None for a call at module level (a CLI handler's lambda)."""
    out = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and name in (getattr(n.func, "id", None),
                                                        getattr(n.func, "attr", None)):
                    out.add((path.stem, getattr(node, "name", None)))
    return out


def test_a_kr_string_is_expanded_through_one_admitted_route():
    # kr_char admits and expands one string; the SES route admits its four
    # strings together and expands them against the kernel's base
    assert _callers("kr_top_y") == {("characters", "kr_char"),
                                    ("characters", "_demazure_char_via_ses")}


def test_a_broken_n_weight_is_an_engine_fault_in_factorization(monkeypatch):
    # n's bases moved by one: the Demazure self-check, which verify
    # factorization reports, raises, so the verdict is never a "fail"
    bases = characters._n_bases
    monkeypatch.setattr(characters, "_n_bases", lambda *a: [(j, b + 1) for j, b in bases(*a)])
    demazure_weight.cache_clear()       # so that every self-check runs
    for name in ("B2", "C3", "G2", "F4"):
        cartan = build_cartan(LieType.parse(name))
        for i in cartan.nodes:
            for k in range(1, 4):
                out, err = io.StringIO(), io.StringIO()
                argv = ["verify", "factorization", "--type", name, "--node", str(i),
                        "--k", str(k)]
                code = cli.dispatch(argv, out, err)
                assert code == (3 if bases(cartan, i, k, coord(0)) else 0), (argv, err)
                if code == 3:
                    assert (out.getvalue(), err.getvalue()) == ("", (
                        "engine error: Demazure weight display disagrees with the "
                        "telescoped product\n")), argv
