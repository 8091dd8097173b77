"""Admission from parameters: every size a route builds that its parameters
alone decide is stated once, beside the route, and refused through
``characters._check_budget`` before any expansion runs."""
import ast
import contextlib
import io
import itertools
import json
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

import yqchar
import yqchar.characters as characters
import yqchar.cli as cli
import yqchar.identities as identities
import yqchar.sl2_explicit as sl2_explicit
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import EngineConfig, EngineError, _check_budget
from yqchar.coords import coord
from yqchar.identities import KINDS

SRC = pathlib.Path(yqchar.__file__).parent

# R2's first node-sl2 string has k(k+1)/2 chains; R1's m-weight (k + 1 Y
# factors) and every KR string fit the default budget.
TQ = ["verify", "tq", "--type", "A2", "--node", "1", "--k", "500000", "--height", "2"]
TQ_REFUSAL = ("engine error: term budget 1000000 exceeded by the chains of a node-sl2 "
              "string of length 500000\n")


@contextlib.contextmanager
def _watched():
    """{"expansions": runs of ``_fm_expand``, "refused": whether ``_check_budget``
    refused}, counted on an empty expansion memo, so no expansion is a hit."""
    seen = {"expansions": 0, "refused": False}
    expand, check = characters._fm_expand, characters._check_budget

    def counted(*args, **kwargs):
        seen["expansions"] += 1
        return expand(*args, **kwargs)

    def flagged(*args):
        try:
            return check(*args)
        except EngineError:
            seen["refused"] = True
            raise

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_fm_expand", counted)
        mp.setattr(characters, "_FM_CACHE",
                   characters._TermBoundedCache(characters._FM_CACHE_TERMS))
        for module in (characters, identities, sl2_explicit):
            mp.setattr(module, "_check_budget", flagged)
        yield seen


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_check_budget_refuses_the_first_size_over_the_budget():
    config = EngineConfig(term_budget=5)
    _check_budget(config)
    _check_budget(config, (5, "five"), (0, "none"))
    with pytest.raises(EngineError, match="^term budget 5 exceeded by six$"):
        _check_budget(config, (5, "five"), (6, "six"), (7, "seven"))


def test_tq_refuses_r2s_chains_before_any_expansion():
    with _watched() as seen:
        assert _run(TQ) == (3, "", TQ_REFUSAL)
    assert seen == {"expansions": 0, "refused": True}


# The SES route's fourth KR top, W_{k+t+1}, meets a string of length 1414
# (1,000,405 chains) while the first three tops' strings fit: at A1 k = 1413
# through every caller of the route, and at A2 k = 1412 N = 2 (the cap
# N + k = 1414), where route R1's expansion would outgrow the budget first.
SES_CHAINS = ("engine error: term budget 1000000 exceeded by the chains of a node-sl2 "
              "string of length 1414\n")


@pytest.mark.parametrize("argv", [
    "qchar demazure --type A1 --node 1 --k 1413 --t 0 --height 1",
    "verify tsystem --type A1 --node 1 --k 1413 --t 0",
    "verify demazure-support --type A1 --node 1 --k 1413 --height 1",
    "verify tq --type A1 --node 1 --k 1413 --height 1",
    "verify tq --type A2 --node 1 --k 1412 --height 2",
])
def test_every_ses_tops_chains_are_refused_before_any_expansion(argv):
    with _watched() as seen:
        assert _run(argv.split()) == (3, "", SES_CHAINS)
    assert seen == {"expansions": 0, "refused": True}


# A KR string of 999,999 sites, whose first node-sl2 string has about 5 * 10^11
# chains: in a KR character, a skeleton check, and the stabilized characters and
# two-term check at that height.  kr_top_y refuses first (string, node, k, then
# coordinate), so a bad node is still a usage error.
KR_CHAINS = ("engine error: term budget 1000000 exceeded by the chains of a node-sl2 "
             "string of length 999999\n")


@pytest.mark.parametrize("argv", [
    "qchar kr --type A1 --node 1 --k 999999",
    "verify kr-skeleton --type A1 --node 1 --k 999999",
    "qchar asymptotic --type A2 --node 1 --height 999999",
    "qchar prefundamental --type A1 --node 1 --height 999999",
    "verify two-term --type A1 --node 1 --height 999999",
])
def test_a_kr_strings_chains_are_refused_before_fm_expand_takes_it(monkeypatch, argv):
    calls = []      # every KR route expands through characters.kr_char
    for module in (characters, identities):
        expand = module.fm_expand
        monkeypatch.setattr(module, "fm_expand",
                            lambda *args, expand=expand: calls.append(args) or expand(*args))
    with _watched() as seen:
        assert _run(argv.split()) == (3, "", KR_CHAINS)
    assert calls == [] and seen == {"expansions": 0, "refused": True}
    code, out, err = _run(argv.replace("--node 1", "--node 0").split())
    assert (code, out, err.startswith("error: node 0 out of range 1..")) == (2, "", True)


class _Stop(Exception):
    """Ends a spied expansion, or the SES route, once what it met is recorded."""


@pytest.mark.parametrize("lie_type", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "G2"])
def test_the_ses_admission_states_the_chains_each_first_pop_meets(lie_type):
    """``_ses_sizes``' chain rows are ``_chains`` of the (length, cap) that the four
    expansions' first pops hand ``_sl2_node_expansion``; a length-0 top meets none."""
    cartan = build_cartan(LieType.parse(lie_type))
    expand, met = characters._fm_expand, []

    def first_pop(positions, d, cap, budget):
        (_, length), = characters._strings(positions, d)    # a KR top is one string
        met[-1] = length if cap is None else min(length, cap)
        raise _Stop

    def stopped(*args):
        met.append(0)
        with contextlib.suppress(_Stop):
            expand(*args)
        if len(met) == 4:
            raise _Stop

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_sl2_node_expansion", first_pop)
        mp.setattr(characters, "_fm_expand", stopped)
        for i in cartan.nodes:
            for k, t, bound in itertools.product(range(1, 7), range(3), (None, 1, 2, 3, 4)):
                met.clear()
                with pytest.raises(_Stop):
                    characters._demazure_char_via_ses(cartan, i, t, k, coord(0), bound,
                                                      characters.DEFAULT_CONFIG)
                assert (characters._ses_sizes(k, t, bound)[4:]
                        == list(map(characters._chains, met))), (i, k, t, bound, met)


# -- a sweep over every identity kind and qchar demazure at a small budget ---

TYPES = ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4")
_COORD = st.sampled_from(("0", "1/2", "-3/2", "x", "x+1"))
_VALUES = {"k": st.integers(1, 40), "t": st.integers(0, 3), "N": st.integers(1, 5),
           **dict.fromkeys("xyab", _COORD)}


# A leaf and its fields: every ``KINDS`` row, and ``qchar demazure``.
_LEAVES = {("verify", kind.replace("_", "-")): fields for kind, fields in KINDS.items()}
_LEAVES["qchar", "demazure"] = ("k", "t", "x", "N")


@st.composite
def _jobs(draw):
    """An argv of every leaf in ``_LEAVES``, and a term budget; a Demazure
    character may leave out its height (the complete character)."""
    leaf = draw(st.sampled_from(sorted(_LEAVES)))
    lie_type = draw(st.sampled_from(TYPES))
    node = draw(st.integers(1, build_cartan(LieType.parse(lie_type)).rank))
    fields = _LEAVES[leaf][:3 if leaf[0] == "qchar" and draw(st.booleans()) else None]
    argv = [*leaf, "--type", lie_type, "--node", str(node)]
    argv += [f"--{'height' if f == 'N' else f}={draw(_VALUES[f])}" for f in fields]
    return argv, draw(st.integers(20, 2000))


@pytest.fixture(scope="module")
def budget_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("budgets")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_jobs())
def test_a_parameter_refusal_precedes_every_expansion(budget_dir, job):
    argv, budget = job
    config = budget_dir / f"{budget}.json"
    config.write_text(json.dumps({"term_budget": budget}))
    with _watched() as seen:
        code, _, err = _run([*argv, "--config", str(config)])
    assert code in (0, 1, 2, 3), (argv, budget, err)
    assert "internal error:" not in err, (argv, budget, err)
    if seen["refused"]:
        assert code == 3 and seen["expansions"] == 0, (argv, budget, err, seen)


# -- where the sizes are stated ----------------------------------------------

# Each function in src/ that refuses a size its parameters decide, with the
# row it states to _check_budget (the arguments after the config, as source).
# A new route states its sizes here.
ADMITTED = {
    ("characters", "kr_top_y"): "(k, f'a KR string of {k} factors')",
    ("characters", "kr_char"): "_chains(k if bound is None else min(k, bound))",
    ("characters", "demazure_weight"): "(k, f'{k} Demazure roots')",
    ("characters", "_demazure_char_via_ses"): "*(sizes := _ses_sizes(k, t, bound))",
    ("identities", "tq_lhs_direct"): "_m_weight_size(cartan, i, k)",
    ("identities", "verify_tq"):
        "*rhs_size, _m_weight_size(cartan, i, k), *_ses_sizes(k, 1, bound)",
    ("sl2_explicit", "_shape"):
        "(dim * (2 * pm_modes + xi_modes), f'a {kind} module of dimension {dim} with "
        "{pm_modes} raising/lowering and {xi_modes} Cartan modes')",
    ("sl2_explicit", "check_relations"):
        "(relation_instances(n_max) * dim, "
        "f'{relation_instances(n_max)} relation instances on dimension {dim}')",
}
# The functions that raise "term budget ... exceeded by": the one admission
# check, and the in-loop guard on the chains that an expansion meets.
EXCEEDED_BY = {("characters", "_check_budget"), ("characters", "_sl2_node_expansion")}


def _functions():
    """(module, function node) for every function defined in src/."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.FunctionDef):
                yield path.stem, node


def _text(node) -> str:
    """The literal text of a string or f-string node, its fields left out."""
    parts = node.values if isinstance(node, ast.JoinedStr) else [node]
    return "".join(p.value for p in parts
                   if isinstance(p, ast.Constant) and isinstance(p.value, str))


def test_each_route_states_its_sizes_through_one_check():
    rows = {}
    for module, fn in _functions():
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_check_budget":
                assert (module, fn.name) not in rows, (module, fn.name)
                rows[module, fn.name] = ", ".join(ast.unparse(a) for a in call.args[1:])
    assert rows == ADMITTED


def test_only_the_admission_check_and_the_chain_guard_raise_exceeded_by():
    raisers = {(module, fn.name) for module, fn in _functions()
               for node in ast.walk(fn) if isinstance(node, ast.Raise)
               for s in ast.walk(node) if isinstance(s, (ast.Constant, ast.JoinedStr))
               and "exceeded by" in _text(s)}
    assert raisers == EXCEEDED_BY


def _k_offset(node) -> bool:
    """Whether ``node`` is k or k plus or minus an integer literal."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        return _k_offset(node.left) and isinstance(node.right, ast.Constant)
    return isinstance(node, ast.Name) and node.id == "k"


def test_the_ses_sizes_are_not_restated_outside_characters():
    assert not [fn.name for _, fn in _functions() if fn.name == "_check_m_weight"]
    tree = ast.parse((SRC / "identities.py").read_text())
    restated = [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, (ast.Tuple, ast.List))
                and len(n.elts) > 1 and all(map(_k_offset, n.elts))]
    assert not restated
