"""The process-wide memos of ``src/``: each is bounded, a hit returns the
stored value, no exception is stored, and a float coordinate is refused
whatever a memo holds."""
import ast
import pathlib
from fractions import Fraction

import pytest

import yqchar
import yqchar.characters as characters
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import (
    EngineConfig, EngineError, demazure_weight, kr_top_y, kr_weight, m_weight, n_weight,
)
from yqchar.coords import coord, parse_coord
from yqchar.monomials import AVector, PsiMonomial, _site

SRC = pathlib.Path(yqchar.__file__).parent
B2 = build_cartan(LieType.parse("B2"))
G2 = build_cartan(LieType.parse("G2"))

# Every module-level memo in src/, each with the workload or check that reuses
# it: hits/misses in one benchmark cycle (seed 7, cycle 1) where a workload does,
# run alone in a new process, so that every memo, _FM_CACHE too, starts empty.
# A new memo must state its reuse here.
MEMOS = {
    ("cli", "_parser"): "it takes no argument: one argparse tree, built at the first help or "
                        "usage error of a run, for every later one",
    ("coords", "parse_coord"): "identity_suite reads the same coordinate texts, 1,066/12",
    ("cartan", "build_cartan"): "every job builds its type's data: identity_suite 590/4",
    ("monomials", "_site"): "identity_suite meets the same (node, x) again, 1,647/51",
    ("monomials", "_site_order"): "print order ranks the same sites: identity_suite 2,817/92",
    ("monomials", "_offsets"): "one table per Cartan type for each conversion: kr_complete 1,149/9",
    ("monomials", "_lane_text"): "kr_complete prints many factors of one lane, 1,249/356",
    ("monomials", "_factor_text"): "identity_suite prints the same factors again, 2,718/54",
    ("characters", "_sl2_node_expansion"): "kr_complete meets a string content again, 3,536/537",
    ("characters", "m_weight"): "identity_suite's TQ routes, RHS and the Demazure self-check "
                                "share one m-weight, 439/13",
    ("characters", "demazure_weight"): "identity_suite's T-system and TQ checks, 274/12",
    ("characters", "kr_top_y"): "identity_suite's stabilized and KR factors repeat, 469/75",
}
# The memos among them without a size bound.
UNBOUNDED = {("cli", "_parser")}


def _memo_kind(call):
    """"bounded" or "unbounded" for the memo that ``call`` (a decorator or a
    call, as ``ast`` nodes) makes of a function; None if it makes none."""
    f = call.func if isinstance(call, ast.Call) else call
    name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
    if name == "cache":
        return "unbounded"
    if name != "lru_cache":
        return None
    sizes = [kw.value for kw in getattr(call, "keywords", ()) if kw.arg == "maxsize"]
    sizes += getattr(call, "args", [])[:1]
    # a bare @lru_cache, or one without maxsize, holds 128 entries
    unbounded = sizes and isinstance(sizes[0], ast.Constant) and sizes[0].value is None
    return "unbounded" if unbounded else "bounded"


def _memos_in(code: str) -> dict:
    """{name: kind} of every memo made at the top level of ``code``: a
    decorated function, or a name bound to a memo."""
    out = {}
    for node in ast.parse(code).body:
        if isinstance(node, ast.FunctionDef):
            calls = [(node.name, d) for d in node.decorator_list]
        elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Call):
            v = node.value
            calls = [(t.id, v.func if isinstance(v.func, ast.Call) else v)
                     for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        for name, call in calls:
            if kind := _memo_kind(call):
                out[name] = kind
    return out


def test_every_memo_in_src_is_bounded():
    memos = {(path.stem, name): kind for path in sorted(SRC.glob("*.py"))
             for name, kind in _memos_in(path.read_text()).items()}
    assert {key for key, kind in memos.items() if kind == "unbounded"} == UNBOUNDED
    assert set(memos) == set(MEMOS)


def test_the_memo_scan_reads_every_form():
    code = ("@lru_cache(maxsize=8)\ndef a(x): pass\n"
            "@functools.lru_cache(maxsize=None)\ndef b(x): pass\n"
            "@cache\ndef c(x): pass\n"
            "@lru_cache\ndef d(x): pass\n"
            "@lru_cache(None, typed=True)\ndef e(x): pass\n"
            "@lru_cache(typed=True)\ndef f(x): pass\n"
            "g = functools.cache(len)\n"
            "h = lru_cache(maxsize=4)(len)\n"
            "@dataclass\nclass I: pass\n"
            "@property\ndef j(x): pass\n"
            "k = dict(a=1)\n")
    assert _memos_in(code) == {"a": "bounded", "b": "unbounded", "c": "unbounded",
                               "d": "bounded", "e": "unbounded", "f": "bounded",
                               "g": "unbounded", "h": "bounded"}


# (weight builder, its arguments before k, an int k); the first three are memos
WEIGHTS = [
    (m_weight, (B2, 1), 6),
    (demazure_weight, (G2, 1, 1), 2),
    (kr_top_y, (G2, 2), 3),
    (kr_weight, (B2, 1), 2),
    (kr_weight, (B2, 1), 0),        # the unit, built as at every other k
    (n_weight, (G2, 1), 3),
]
IDS = ["m_weight", "demazure_weight", "kr_top_y", "kr_weight", "kr_weight_k0", "n_weight"]


@pytest.mark.parametrize("build, head, k", WEIGHTS[:3], ids=IDS[:3])
def test_a_hit_returns_the_stored_weight(build, head, k):
    x = coord("1/3+x")
    first = build(*head, k, x)
    assert build(*head, k, x) is first
    assert build(*head, k, coord("1/3+x")) is first        # an equal key
    assert first == build.__wrapped__(*head, k, x)
    assert parse_coord("1/3+x") is parse_coord("1/3+x")


@pytest.mark.parametrize("build, head, k", WEIGHTS, ids=IDS)
def test_a_float_is_refused_whatever_a_weight_memo_holds(build, head, k):
    if hasattr(build, "cache_clear"):
        build.cache_clear()
    for _ in range(2):          # before and after the exact keys are stored
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            build(*head, k, 0.5)
        with pytest.raises(TypeError):
            build(*head, float(k), Fraction(1, 2))
        build(*head, k, Fraction(1, 2))
        build(*head, k, coord("1/2"))


def test_a_float_coordinate_is_refused_whatever_the_site_memo_holds():
    _site.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError, match="not an exact rational: 0.5"):
            PsiMonomial.gen(1, 0.5)
        assert str(PsiMonomial.gen(1, Fraction(1, 2))) == "Psi[1,1/2]"
        with pytest.raises(TypeError, match="not an exact rational: 3.0"):
            AVector.gen(2, 3.0)
        assert str(AVector.gen(2, 3)) == "A[2,3]^-1"
    parse_coord.cache_clear()
    for _ in range(2):
        with pytest.raises(TypeError):
            parse_coord(0.5)
        assert parse_coord("1/2") == Fraction(1, 2)


def test_no_exception_is_stored(monkeypatch):
    # the self-check of demazure_weight runs on the first computation of
    # every key, and a failure is not remembered
    demazure_weight.cache_clear()
    monkeypatch.setattr(characters, "_demazure_weight_display",
                        lambda *args: PsiMonomial.unit())
    x = coord("2/7+y")
    for _ in range(2):
        with pytest.raises(EngineError, match="Demazure weight display disagrees"):
            demazure_weight(B2, 2, 1, 3, x)
    monkeypatch.undo()
    assert demazure_weight(B2, 2, 1, 3, x) == demazure_weight.__wrapped__(B2, 2, 1, 3, x)
    for _ in range(2):
        with pytest.raises(ValueError, match="KR index k must be >= 0"):
            kr_weight(B2, 1, -1, 0)
    with pytest.raises(ValueError, match="node 3 out of range"):
        kr_weight(B2, 3, 1, 0)
    tight = EngineConfig(term_budget=2)
    for _ in range(2):
        with pytest.raises(EngineError, match="KR string of 3 factors"):
            kr_top_y(B2, 1, 3, 0, tight)
    assert kr_top_y(B2, 1, 3, 0) == kr_top_y.__wrapped__(B2, 1, 3, 0)


def test_cartan_memo_and_rank_bound():
    assert build_cartan(LieType.parse("A32")) is build_cartan(LieType("A", 32))
    assert build_cartan.cache_info().maxsize == 64
    for name, lo in (("A33", 1), ("B33", 2), ("C2000", 2), ("D100000", 4)):
        with pytest.raises(ValueError) as err:
            LieType.parse(name)
        assert str(err.value) == (f"illegal rank {name[1:]} for series {name[0]} "
                                  f"(need rank in [{lo},32])")
