"""The expansion loop of ``characters._fm_expand`` against a reference.

``reference_fm_expand`` is a heap loop on whole monomials: each popped term
is regrouped by node, each new term's Y-form is one merge of the whole
monomial, and ``seen`` and a dict per node hold the terms met and their
explained counts.  Both loops must
give the same character, or raise the same EngineError text, on every case.
The cases are the dominant tops the engine expands: KR tops, the Demazure
tops of ``verify tsystem``'s direct route and the m-weight tops of
``verify tq``'s route R1.
"""
import heapq

import pytest

import yqchar.characters as characters
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import (
    EngineConfig, EngineError, TruncatedCharacter, _engine_y, _sl2_node_expansion,
    demazure_weight, kr_top_y, m_weight,
)
from yqchar.identities import tq_regime
from yqchar.monomials import (
    AVector, YMonomial, _by_node, _canon, _translate, avector_to_y, y_to_psi,
)
from yqchar.textio import format_monomial


def reference_fm_expand(cartan, top, bound, config, t=0):
    # Terms are keyed by their sorted site tuples, so a new term is one C
    # sort and the work dicts hash and compare ints only; AVectors are built
    # for the result alone.  The budget bounds the terms and, separately,
    # their stored factors.
    # Invariant: ymon[v] == (top * avector_to_y(cartan, v)).exps for every
    # queued v.  A new term v2 = v * chain is reached from a popped v, and
    # avector_to_y is a homomorphism, so v2's Y-form is one merge of v's
    # with the chain's: the cost follows the new node-i chain, not the size
    # of the whole monomial.  Each chain is converted once per call (chain_y).
    # An error names its monomial moved by t, at the caller's point.
    top_psi = y_to_psi(cartan, top)
    budget = config.term_budget
    explained = {i: {} for i in cartan.nodes}
    result = {}
    seq = factors = 0
    heap = [(0, 0, ())]
    seen = {()}
    ymon = {(): top.exps}
    chain_y = {}
    while heap:
        h, _, v = heapq.heappop(heap)
        mult = max(explained[i].get(v, 0) for i in cartan.nodes) if v else 1
        if mult <= 0:
            raise EngineError("engine fault: discovered monomial with no multiplicity")
        result[AVector(v, canonical=True)] = mult
        m = ymon.pop(v)
        at = _by_node(m)
        for i in cartan.nodes:
            ex = explained[i]
            deficit = mult - ex.get(v, 0)
            if deficit == 0:
                continue
            if deficit < 0:
                raise EngineError("engine fault: node coverage exceeds multiplicity")
            positions = tuple(at.get(i, {}).items())
            if any(e < 0 for _, e in positions):
                blocked = _translate(t, YMonomial(m, canonical=True))[0]
                raise EngineError(f"expansion blocked: monomial {format_monomial(blocked)} "
                                  f"has unexplained multiplicity at node {i} but is not "
                                  f"{i}-dominant")
            cap = None if bound is None else bound - h
            for chain, c in _sl2_node_expansion(positions, cartan.d[i - 1], cap, budget):
                v2 = tuple(sorted(v + chain))
                ex[v2] = ex.get(v2, 0) + c * deficit
                if v2 not in seen:
                    seen.add(v2)
                    factors += len(v2)
                    if len(seen) > budget or factors > budget:
                        raise EngineError(f"term budget {budget} exceeded during expansion "
                                          f"({len(seen)} terms, {factors} factors)")
                    dy = chain_y.get(chain)
                    if dy is None:
                        dy = chain_y[chain] = avector_to_y(
                            cartan, AVector(chain, canonical=True)).exps
                    ymon[v2] = _canon(dy, m)
                    seq += 1
                    heapq.heappush(heap, (h + len(chain), seq, v2))
    return TruncatedCharacter.make(top_psi, result, bound)


def _outcome(loop, cartan, top, bound, config):
    """(top, terms, height_bound) of one loop's character, or its EngineError text."""
    try:
        ch = loop(cartan, top, bound, config)
    except EngineError as ex:
        return str(ex)
    return ch.top, ch.terms, ch.height_bound


TYPES = ("A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4",
         "D4", "G2", "F4", "E6")
POINTS = ("0", "1/3", "-7/3", "x", "x+1/3")
# The sweep's budget: the complete characters above it (most of F4's and
# E6's at k = 3) stop there, and both loops must stop with the same message.
SWEEP_BUDGET = EngineConfig(term_budget=3_000)


@pytest.mark.parametrize("name", TYPES)
def test_loop_matches_the_reference(name):
    cartan = build_cartan(LieType.parse(name))
    for i in cartan.nodes:
        for k in (1, 2, 3):
            for x in POINTS:
                top = kr_top_y(cartan, i, k, x)
                for bound in (None, 0, 1, 2, 3, 4):
                    want = _outcome(reference_fm_expand, cartan, top, bound, SWEEP_BUDGET)
                    got = _outcome(characters._fm_expand, cartan, top, bound, SWEEP_BUDGET)
                    assert got == want, (name, i, k, x, bound)


@pytest.mark.parametrize("name, i, k, x, bound", [
    ("A2", 1, 3, "1/5", None), ("B3", 3, 2, "0", None), ("C3", 2, 2, "x", 3),
    ("G2", 1, 2, "-7/3", None), ("D4", 2, 2, "x+1/3", 4),
])
def test_loops_stop_alike_just_below_the_budget(name, i, k, x, bound):
    cartan = build_cartan(LieType.parse(name))
    top = kr_top_y(cartan, i, k, x)
    ch = reference_fm_expand(cartan, top, bound, EngineConfig())
    terms, factors = len(ch.terms), sum(v.height for v, _ in ch.terms)
    assert terms < factors
    for budget in (terms, terms - 1, factors, factors - 1):
        config = EngineConfig(term_budget=budget)
        want = _outcome(reference_fm_expand, cartan, top, bound, config)
        assert _outcome(characters._fm_expand, cartan, top, bound, config) == want
        assert isinstance(want, str) == (budget < factors)


def _demazure_top(cartan, i, k, t):
    """The top of ``verify tsystem``'s direct route: the Demazure weight at (k + 1) d_i."""
    return _engine_y(cartan, demazure_weight(cartan, i, t, k, (k + 1) * cartan.d[i - 1]))


def _m_top(cartan, i, k, x):
    """The top of ``verify tq``'s route R1: the m-weight at a k that makes it dominant."""
    return _engine_y(cartan, m_weight(cartan, i, k, x))


def _tops(name):
    """(label, top) of the Demazure tops at t = 0-2 and the m-weight tops at the
    two least k of the TQ regime at heights 1 and 2."""
    cartan = build_cartan(LieType.parse(name))
    for i in cartan.nodes:
        for k in (1, 2):
            for t in (0, 1, 2):
                yield ("demazure", i, k, t), _demazure_top(cartan, i, k, t)
        for k in sorted({tq_regime(cartan, i, 1), tq_regime(cartan, i, 2)}):
            for x in ("0", "x+1/3"):
                yield ("m", i, k, x), _m_top(cartan, i, k, x)


@pytest.mark.parametrize("name", TYPES)
def test_loop_matches_the_reference_on_demazure_and_m_tops(name):
    cartan = build_cartan(LieType.parse(name))
    for label, top in _tops(name):
        for bound in (None, 0, 1, 2, 3):
            want = _outcome(reference_fm_expand, cartan, top, bound, SWEEP_BUDGET)
            got = _outcome(characters._fm_expand, cartan, top, bound, SWEEP_BUDGET)
            assert got == want, (name, label, bound)


@pytest.mark.parametrize("name, top, bound", [
    ("A2", ("demazure", 1, 2, 1), None), ("B2", ("demazure", 2, 2, 2), None),
    ("G2", ("demazure", 1, 1, 1), 3), ("C3", ("demazure", 3, 1, 2), 4),
    ("B2", ("m", 1, 2, "0"), None), ("G2", ("m", 2, 3, "x+1/3"), 3),
    ("C3", ("m", 2, 2, "1/3"), None), ("F4", ("m", 3, 2, "0"), 3),
])
def test_demazure_and_m_loops_stop_alike_just_below_the_budget(name, top, bound):
    cartan = build_cartan(LieType.parse(name))
    kind, i, k, arg = top
    top = _demazure_top(cartan, i, k, arg) if kind == "demazure" else _m_top(cartan, i, k, arg)
    ch = reference_fm_expand(cartan, top, bound, EngineConfig())
    terms, factors = len(ch.terms), sum(v.height for v, _ in ch.terms)
    assert terms < factors
    for budget in (terms, terms - 1, factors, factors - 1):
        config = EngineConfig(term_budget=budget)
        want = _outcome(reference_fm_expand, cartan, top, bound, config)
        assert _outcome(characters._fm_expand, cartan, top, bound, config) == want
        assert isinstance(want, str) == (budget < factors)
