"""Character container, ledger arithmetic, and the expansion engine."""
import io
import random
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

import yqchar.characters as characters
import yqchar.cli as cli
import yqchar.monomials as monomials
from yqchar.cartan import LieType, build_cartan
from yqchar.coords import Coord, coord
from yqchar.monomials import (
    AVector, PsiMonomial, YMonomial, _remove, avector_to_psi, output_order, psi_to_y,
)
from yqchar.characters import (
    EngineConfig, EngineError, TruncatedCharacter, _ledger_acc, _ledger_mul,
    asymptotic_char, char_add, char_mul, compare_characters,
    demazure_char_via_ses, demazure_weight, divide_series, fm_expand,
    kr_top_y, kr_weight, m_weight, n_weight, prefundamental_char,
    sl2_kr_char, stabilize,
)
from yqchar.textio import format_monomial, parse_monomial

A1 = build_cartan(LieType.parse("A1"))
A2 = build_cartan(LieType.parse("A2"))
B2 = build_cartan(LieType.parse("B2"))
G2 = build_cartan(LieType.parse("G2"))


def chain(*pairs):
    return AVector(tuple(((i, coord(x)), 1) for i, x in pairs))


# -- container ---------------------------------------------------------------

def test_make_requires_unit_term_and_positive_coeffs():
    with pytest.raises(ValueError):
        TruncatedCharacter.make(PsiMonomial.unit(), {chain((1, 0)): 1}, None)
    with pytest.raises(ValueError):
        TruncatedCharacter.make(PsiMonomial.unit(),
                                {AVector.unit(): 1, chain((1, 0)): -2}, None)


def test_truncate():
    ch = sl2_kr_char(3, 0)
    assert ch.height_bound is None and ch.dimension() == 4
    t = ch.truncate(1)
    assert t.height_bound == 1 and t.dimension() == 2
    assert t.truncate(5) is t              # cannot un-truncate


def test_psi_terms_multiply_out_the_ledger():
    ch = sl2_kr_char(1, 0)
    got = {m for m, _ in ch.psi_terms(A1)}
    assert got == {parse_monomial("Psi[1,1] /Psi[1,0]"),
                   parse_monomial("Psi[1,-1] /Psi[1,0]")}


def test_compare_characters_and_swapped():
    a, b = sl2_kr_char(2, 0), sl2_kr_char(2, 0).truncate(1)
    rep = compare_characters(a, b)
    assert not rep.verdict and len(rep.to_json()["mismatches"]) == 1
    row = rep.to_json()["mismatches"][0]
    assert (row["lhs"], row["rhs"]) == (1, 0)
    swapped = compare_characters(b, a).to_json()["mismatches"][0]
    assert (swapped["lhs"], swapped["rhs"]) == (0, 1)
    assert "fail" in rep.to_text() and rep.to_json()["verdict"] == "fail"
    assert compare_characters(a, a).verdict


def test_compare_characters_report_literal():
    # different tops and one coefficient off: every line of a failing report
    a = sl2_kr_char(2, 0)
    b = TruncatedCharacter.make(PsiMonomial.gen(1, 3) * PsiMonomial.gen(1, 0, -1),
                                {v: 2 if v.height == 1 else c for v, c in a.terms}, None)
    rep = compare_characters(a, b, note="bumped")
    assert rep.to_text() == "\n".join([
        "verdict: fail", "note: bumped",
        "top mismatch: Psi[1,0]^-1 Psi[1,2] != Psi[1,0]^-1 Psi[1,3]",
        "  A[1,0]^-1: lhs=1 rhs=2"])
    assert rep.to_json() == {
        "verdict": "fail", "note": "bumped",
        "lhs_top": "Psi[1,0]^-1 Psi[1,2]", "rhs_top": "Psi[1,0]^-1 Psi[1,3]",
        "mismatches": [{"avector": "A[1,0]^-1", "lhs": 1, "rhs": 2}]}


# -- ledger arithmetic -------------------------------------------------------

def test_char_mul_example():
    one_a = TruncatedCharacter.make(
        PsiMonomial.unit(), {AVector.unit(): 1, chain((1, 0)): 1}, None)
    one_b = TruncatedCharacter.make(
        PsiMonomial.unit(), {AVector.unit(): 1, chain((1, 1)): 1}, None)
    prod = char_mul(one_a, one_b)
    assert prod.term_dict() == {AVector.unit(): 1, chain((1, 0)): 1,
                                chain((1, 1)): 1, chain((1, 0), (1, 1)): 1}
    sq = char_mul(one_a, one_a)
    assert sq.term_dict()[AVector(((( 1, coord(0)), 2),))] == 1
    assert sq.term_dict()[chain((1, 0))] == 2


def test_a_truncated_times_a_complete_character_keeps_the_truncation():
    # a complete character has no bound, so the product keeps the other's
    truncated, complete = sl2_kr_char(3, 0, 1), sl2_kr_char(2, 5)
    for prod in (char_mul(truncated, complete), char_mul(complete, truncated)):
        assert prod.height_bound == 1 and len(prod.terms) == 3


def test_char_mul_budget():
    ch = sl2_kr_char(6, 0)
    with pytest.raises(EngineError):
        char_mul(ch, ch, EngineConfig(term_budget=3))


def test_char_add_offset_must_relate_tops():
    up, dn = sl2_kr_char(2, 0), sl2_kr_char(0, 0)
    with pytest.raises(ValueError):
        char_add(A1, up, dn, AVector.unit())
    a = sl2_kr_char(1, 0)
    low = TruncatedCharacter.make(parse_monomial("Psi[1,-1] /Psi[1,0]"),
                                  {AVector.unit(): 1}, None)
    glued = char_add(A1, a, low, chain((1, 0)))
    assert glued.top == a.top
    assert glued.term_dict() == {AVector.unit(): 1, chain((1, 0)): 2}


def test_divide_series():
    num = {AVector.unit(): 1, chain((1, 0)): 1, chain((1, 1)): 1,
           chain((1, 0), (1, 1)): 1}
    den = {AVector.unit(): 1, chain((1, 0)): 1}
    assert divide_series(num, den, None) == {AVector.unit(): 1, chain((1, 1)): 1}
    with pytest.raises(EngineError):
        divide_series({AVector.unit(): 1}, den, 2)   # 1/(1+a) is not a character
    with pytest.raises(EngineError):
        divide_series(num, {chain((1, 0)): 1}, 1)    # no unit leading term
    # Unbounded, an inexact division is an error, and the unit coefficient
    # of the numerator is read.
    with pytest.raises(EngineError, match="inexact"):
        divide_series({AVector.unit(): 1}, den, None)
    with pytest.raises(EngineError, match="inexact"):
        divide_series({AVector.unit(): 1, chain((1, 0)): 1, chain((1, 1)): 1}, den, None)
    five = {AVector.unit(): 5, chain((1, 0)): 1}
    assert divide_series(five, {AVector.unit(): 1}, None) == five


def test_divide_series_by_the_unit_series(monkeypatch):
    # the quotient is the numerator truncated at the bound, with no ledger
    # product and no scan per height
    def no_product(*args):
        raise AssertionError("a division by 1 formed a ledger product")
    monkeypatch.setattr(characters, "_ledger_acc", no_product)
    unit = {AVector.unit(): 1}
    num = {AVector.unit(): 2, chain((1, 0)): 1, chain((1, 1)): 0,
           chain((1, 0), (2, "1/2")): 3, AVector.gen(1, 0, 3): 1}
    assert divide_series(num, unit, 2) == {AVector.unit(): 2, chain((1, 0)): 1,
                                           chain((1, 0), (2, "1/2")): 3}
    assert divide_series(num, unit, 0) == {AVector.unit(): 2}
    assert divide_series(num, unit, None) == {v: c for v, c in num.items() if c}
    assert divide_series({}, unit, None) == {}
    # a negative coefficient is refused, the first in print order named;
    # one above the bound is not part of the quotient
    num[AVector.gen(1, 0, 2)] = -4
    num[chain((1, 0), (1, 1))] = -1
    with pytest.raises(EngineError) as err:
        divide_series(num, unit, None)
    assert str(err.value) == ("negative coefficient -1 at A[1,0]^-1 A[1,1]^-1 "
                              "in series division")
    assert divide_series(num, unit, 1) == {AVector.unit(): 2, chain((1, 0)): 1}


@pytest.mark.parametrize("bound", [None, 2])
def test_dividing_by_one_names_a_negative_numerator_coefficient(bound):
    # the general height loop runs: the lowest height with a negative
    # coefficient is named, before the one above it
    num = {AVector.unit(): 1, chain((1, 0)): 3, chain((1, 1)): -2, chain((1, 0), (1, 1)): -1}
    with pytest.raises(EngineError) as err:
        divide_series(num, {AVector.unit(): 1}, bound)
    assert str(err.value) == "negative coefficient -2 at A[1,1]^-1 in series division"


def test_divide_series_names_the_first_negative_term():
    # two negative terms at height 2: the first in print order is named
    mixed = chain((1, 0), (2, "1/2"))
    den = {AVector.unit(): 1, AVector.gen(1, 0, 2): 3, mixed: 1}
    with pytest.raises(EngineError) as err:
        divide_series({AVector.unit(): 1}, den, 2)
    assert str(err.value) == "negative coefficient -1 at A[1,0]^-1 A[2,1/2]^-1 in series division"
    with pytest.raises(EngineError) as err:
        divide_series({AVector.unit(): 1, mixed: 1}, den, 2)
    assert str(err.value) == "negative coefficient -3 at A[1,0]^-2 in series division"


def _ledger_product(a, b):
    out = Counter()
    for va, ca in a.items():
        for vb, cb in b.items():
            out[va * vb] += ca * cb
    return dict(out)


ledgers = st.dictionaries(
    st.lists(st.tuples(st.integers(min_value=1, max_value=2),
                       st.integers(min_value=0, max_value=3)),
             min_size=1, max_size=3).map(lambda fs: chain(*fs)),
    st.integers(min_value=1, max_value=3), max_size=4,
).map(lambda d: {AVector.unit(): 1, **d})


@given(ledgers, ledgers, st.sampled_from([None, 0, 1, 2, 3, 4]))
def test_divide_series_inverts_the_product(a, b, bound):
    kept = {v: c for v, c in a.items() if bound is None or v.height <= bound}
    assert divide_series(_ledger_product(a, b), b, bound) == kept


# -- named weights -----------------------------------------------------------

def test_kr_weight_and_top():
    assert kr_weight(B2, 1, 2, 0) == parse_monomial("Psi[1,4] /Psi[1,0]")
    assert kr_weight(A1, 1, 0, 5) == PsiMonomial.unit()
    assert kr_top_y(A1, 1, 3, 0) == YMonomial(
        (((1, coord("1/2")), 1), ((1, coord("3/2")), 1), ((1, coord("5/2")), 1)))
    with pytest.raises(ValueError):
        kr_weight(A1, 1, -1, 0)


KR_TYPES = [build_cartan(LieType.parse(t)) for t in (
    "A1", "A2", "A3", "A4", "B2", "B3", "B4", "C2", "C3", "C4", "D4", "D5", "G2", "F4",
    "E6", "E7", "E8")]
KR_POINTS = ("0", "1/3", "-7/2", "5/4", "x", "x+1/3", "2k-1/2", "-x/3+7/6")


@pytest.mark.parametrize("cartan", KR_TYPES, ids=str)
def test_the_kr_string_is_the_y_form_of_the_kr_weight(cartan):
    # 3,584 cases over the 17 types: every node, k = 0..6 and eight points
    for i in cartan.nodes:
        for k in range(7):
            for x in map(coord, KR_POINTS):
                assert kr_top_y(cartan, i, k, x) == psi_to_y(cartan, kr_weight(cartan, i, k, x))


def test_a_kr_string_is_refused_in_order_budget_node_k_coordinate():
    with pytest.raises(EngineError, match="KR string of 5 factors"):
        kr_top_y(B2, 3, 5, 0.5, EngineConfig(term_budget=2))
    with pytest.raises(ValueError, match="node 3 out of range"):
        kr_top_y(B2, 3, -1, 0.5)
    with pytest.raises(ValueError, match="KR index k must be >= 0"):
        kr_top_y(B2, 1, -1, 0.5)
    with pytest.raises(TypeError, match="not an exact rational: 0.5"):
        kr_top_y(B2, 1, 1, 0.5)


def test_demazure_weight_examples():
    assert demazure_weight(A1, 1, 0, 1, 2) == PsiMonomial.unit()
    assert demazure_weight(A1, 1, 1, 1, 3) == parse_monomial("Psi[1,4] /Psi[1,3]")
    # self-check runs for every Cartan type and k
    for ct in (A2, B2, G2):
        for i in ct.nodes:
            for k in (1, 2, 3):
                demazure_weight(ct, i, 1, k, "x")
    with pytest.raises(ValueError):
        demazure_weight(A1, 1, 0, 0, 0)


def test_m_and_n_weights_with_symbolic_k():
    m = dict(m_weight(B2, 1, "k", 0).items())
    assert m == {(1, coord(2)): 1, (1, coord(0)): -1,
                 (2, coord(-1)): 1, (2, coord("-1-2k")): -1}
    n = dict(n_weight(B2, 2, "k", 0).items())   # node 2 has the doubly-laced neighbor
    assert n == {(1, coord(0)): 1, (1, coord("-k")): -1}
    assert n_weight(A2, 1, "k", 0).is_unit()
    assert m_weight(B2, 1, 4, 0) * n_weight(B2, 1, 4, 0) == demazure_weight(B2, 1, 1, 4, 0)


# -- engine vs closed-form oracle --------------------------------------------

def test_engine_matches_sl2_oracle():
    rng = random.Random(7)
    for k in range(7):
        for x in (0, "x", Fraction(rng.randrange(-12, 12), rng.randrange(1, 5))):
            want = sl2_kr_char(k, x)
            got = fm_expand(A1, kr_top_y(A1, 1, k, x))
            assert compare_characters(got, want).verdict
            got2 = fm_expand(A1, kr_top_y(A1, 1, k, x), 2)
            assert compare_characters(got2, want.truncate(2)).verdict


def test_engine_fundamental_dimensions():
    assert fm_expand(A2, kr_top_y(A2, 1, 1, 0)).dimension() == 3
    assert fm_expand(A2, kr_top_y(A2, 2, 1, 0)).dimension() == 3
    assert fm_expand(B2, kr_top_y(B2, 1, 1, 0)).dimension() == 5
    assert fm_expand(B2, kr_top_y(B2, 2, 1, 0)).dimension() == 4
    assert fm_expand(G2, kr_top_y(G2, 1, 1, 0)).dimension() == 7
    assert fm_expand(G2, kr_top_y(G2, 2, 1, 0)).dimension() == 15


def test_engine_a2_fundamental_display():
    ch = fm_expand(A2, kr_top_y(A2, 1, 1, 0))
    got = {format_monomial(m) for m, _ in ch.psi_terms(A2)}
    assert got == {"Psi[1,0]^-1 Psi[1,1]",
                   "Psi[1,-1] Psi[1,0]^-1 Psi[2,-1/2]^-1 Psi[2,1/2]",
                   "Psi[2,-3/2] Psi[2,-1/2]^-1"}


def test_engine_rejects_non_dominant_top():
    with pytest.raises(ValueError):
        fm_expand(A1, YMonomial.gen(1, 0, -1))


def test_engine_budget():
    with pytest.raises(EngineError):
        fm_expand(A1, kr_top_y(A1, 1, 5, 0), None, EngineConfig(term_budget=2))


def test_tensor_square_multiplicity():
    # L(Y_{1,1/2})^2 for rank one: chars multiply, middle weight has mult 2
    ch = char_mul(sl2_kr_char(1, 0), sl2_kr_char(1, 0))
    assert ch.dimension() == 4
    assert ch.term_dict()[chain((1, 0))] == 2


# -- stabilization and asymptotic characters ---------------------------------

def _stabilize_by_search(cartan, i, x, bound):
    """Reference for ``stabilize``: the least k at which nqc(W^(i)_{k,x}) and
    nqc(W^(i)_{k+1,x}) agree to height ``bound``; returns (that ledger, k)."""
    prev = None
    for k in range(2 * bound + 3):
        cur = fm_expand(cartan, kr_top_y(cartan, i, k, x), bound).terms
        if cur == prev:
            return cur, k - 1
        prev = cur
    raise AssertionError(f"no two equal truncations at height {bound} up to k = {k}")


def test_stabilize_sl2():
    st = stabilize(A1, 1, 0, 3)
    assert st.top.is_unit() and st.height_bound == 3
    assert st.term_dict() == {AVector.unit(): 1, chain((1, 0)): 1,
                              chain((1, 0), (1, 1)): 1,
                              chain((1, 0), (1, 1), (1, 2)): 1}


def test_stabilize_height_zero_is_immediate():
    assert stabilize(A1, 1, "x", 0).term_dict() == {AVector.unit(): 1}


def test_stabilize_a2_contents():
    assert stabilize(A2, 1, 0, 2).term_dict() == {AVector.unit(): 1, chain((1, 0)): 1,
                                                  chain((1, 0), (1, 1)): 1,
                                                  chain((1, 0), (2, "-1/2")): 1}


_SWEEP = [("A1", 8)] + [(t, 6) for t in ("A2", "B2", "C2", "G2")] \
    + [(t, 5) for t in ("A3", "B3", "C3", "D4")]


def test_stabilize_is_the_search_and_its_index_is_the_height():
    # the truncation at height N is that of W_N, and W_{N-1} differs from it
    rows = 0
    for name, top_height in _SWEEP:
        ct = build_cartan(LieType.parse(name))
        for i in ct.nodes:
            for x in (0, "x", "-7/3"):
                for N in range(top_height + 1):
                    want, idx = _stabilize_by_search(ct, i, x, N)
                    assert (stabilize(ct, i, x, N).terms, idx) == (want, N), (name, i, x, N)
                    rows += 1
    assert rows == 429


def test_stabilize_expands_once(monkeypatch):
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_fm_expand")
    b3 = build_cartan(LieType.parse("B3"))
    stabilize(b3, 2, "x", 8)
    assert counts["_fm_expand"] == 1


def test_asymptotic_and_prefundamental():
    ch = asymptotic_char(A1, 1, "y", "x", 2)
    assert ch.top == parse_monomial("/Psi[1,x] Psi[1,y]")
    assert ch.term_dict() == {AVector.unit(): 1, chain((1, "x")): 1,
                              chain((1, "x"), (1, "1+x")): 1}
    assert asymptotic_char(A1, 1, 0, 0, 1).top.is_unit()
    minus = prefundamental_char(A1, 1, "x", "-", 2)
    assert minus.top == PsiMonomial.gen(1, "x", -1)
    assert minus.terms == ch.terms
    plus = prefundamental_char(A1, 1, "x", "+", 2)
    assert plus.top == PsiMonomial.gen(1, "x") and plus.dimension() == 1
    with pytest.raises(ValueError):
        prefundamental_char(A1, 1, 0, "*", 2)


# -- short exact sequence route ----------------------------------------------

def test_ses_trivial_kernel():
    ch = demazure_char_via_ses(A1, 1, 0, 1, 5)
    assert ch.top.is_unit() and ch.dimension() == 1


def test_ses_top_matches_weight():
    for ct, i, t, k in ((A1, 1, 1, 2), (A2, 1, 0, 2), (B2, 2, 1, 1)):
        ch = demazure_char_via_ses(ct, i, t, k, 0)
        assert ch.top == demazure_weight(ct, i, t, k, 0)


def test_ses_truncation_agrees_with_complete():
    full = demazure_char_via_ses(A2, 1, 1, 2, 0)
    cut = demazure_char_via_ses(A2, 1, 1, 2, 0, 2)
    assert compare_characters(full.truncate(2), cut).verdict


# -- one truncated ledger product and the output order (property) -------------

# A-ledgers over coordinates in several cosets mod 1/2.  Each ledger maps an
# AVector to its coefficient and keeps the Coord-keyed reference form of
# every key: its factors in (node, Coord) order.
ledger_coords = st.builds(
    lambda r, c: Coord(r) + Coord.var("x", c),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from((0, 0, 1)))
avector_factors = st.lists(st.tuples(st.integers(min_value=1, max_value=2), ledger_coords,
                                     st.integers(min_value=1, max_value=2)), max_size=3)


def coord_form(factors):
    acc = {}
    for i, x, e in factors:
        acc[i, x] = acc.get((i, x), 0) + e
    return tuple(sorted(((i, x), e) for (i, x), e in acc.items()))


def build_ledger(rows):
    ledger, forms = {}, {}
    for factors, c in rows:
        v = AVector(tuple(((i, x), e) for i, x, e in factors))
        ledger[v] = ledger.get(v, 0) + c
        forms[v] = coord_form(factors)
    return ledger, forms


ledgers = st.lists(st.tuples(avector_factors, st.integers(min_value=1, max_value=3)),
                   max_size=5).map(build_ledger)


def full_scan(lhs, rhs, note=""):
    """``compare_characters`` with no equal-ledger shortcut: every key of
    either side is looked up on both."""
    la, rb = lhs.term_dict(), rhs.term_dict()
    mism = [(t, a, b) for (_, a, b), t in output_order(
        (v, la.get(v, 0), rb.get(v, 0)) for v in la.keys() | rb.keys()
        if la.get(v, 0) != rb.get(v, 0))]
    same = lhs.top == rhs.top
    lt = format_monomial(lhs.top)
    rt = lt if same else format_monomial(rhs.top)
    lines = [f"note: {note}"] if note else []
    if not same:
        lines.append(f"top mismatch: {lt} != {rt}")
    lines += [f"  {v}: lhs={a} rhs={b}" for v, a, b in mism]
    return characters.Report(
        same and not mism,
        {"note": note, "lhs_top": lt, "rhs_top": rt,
         "mismatches": [{"avector": v, "lhs": a, "rhs": b} for v, a, b in mism]},
        tuple(lines))


@settings(max_examples=40, deadline=None)
@given(ledgers, ledgers, st.sampled_from(("equal", "other", "bumped")), st.booleans(),
       st.sampled_from(("", "a note")))
def test_an_equal_ledger_is_reported_as_the_full_scan_reports_it(a, b, pair, same_top, note):
    # equal ledgers are separate but equal tuples; "bumped" moves one
    # coefficient of an equal copy, or adds a term to a ledger of 1 alone
    la = {**a[0], AVector.unit(): 1}
    lb = dict(la) if pair != "other" else {**b[0], AVector.unit(): 1}
    if pair == "bumped":
        v = max(la, key=lambda v: v.sites) if len(la) > 1 else chain((1, 0))
        lb[v] = lb.get(v, 0) + 1
    top = PsiMonomial.gen(1, 0)
    lhs = TruncatedCharacter.make(top, la, 3)
    rhs = TruncatedCharacter.make(top if same_top else PsiMonomial.gen(2, "1/2"), lb, 3)
    assert (lhs.terms == rhs.terms) == (la == lb)
    got, want = compare_characters(lhs, rhs, note), full_scan(lhs, rhs, note)
    assert (got.verdict, got.to_json(), got.to_text()) == \
        (want.verdict, want.to_json(), want.to_text())
    assert got.verdict == (same_top and la == lb)


@given(ledgers, ledgers, st.integers(min_value=0, max_value=4))
def test_ledger_mul_matches_coord_reference_and_truncation(a, b, bound):
    (la, fa), (lb, fb) = a, b
    want = {}
    for va, ca in la.items():
        for vb, cb in lb.items():
            k = coord_form([(i, x, e) for (i, x), e in fa[va] + fb[vb]])
            want[k] = want.get(k, 0) + ca * cb
    full = _ledger_mul(la.items(), lb.items(), None, 10 ** 6)
    assert {coord_form([(i, x, e) for (i, x), e in v.items()]): c
            for v, c in full.items()} == want
    assert _ledger_mul(la.items(), lb.items(), bound, 10 ** 6) == \
        {v: c for v, c in full.items() if v.height <= bound}


@given(ledgers)
def test_output_order_is_height_then_coord_order(a):
    ledger, forms = a
    # the unit row and a row with a repeated site are always among the rows
    for factors in ((), ((2, coord("x-1/3"), 2),)):
        v = AVector(tuple(((i, x), e) for i, x, e in factors))
        ledger.setdefault(v, 1)
        forms[v] = coord_form(factors)
    rows = list(ledger.items())
    printed = output_order(rows)
    assert [row for row, _ in printed] == sorted(rows, key=lambda r: (r[0].height, forms[r[0]]))
    for (v, _), text in printed:
        assert text == format_monomial(v)
        assert parse_monomial(text, kind="A") == v


def test_output_order_texts():
    rows = [(AVector.gen(1, 0, 2) * AVector.gen(2, "1/2"), 3), (AVector.unit(), 1),
            (AVector.gen(1, 0), 2)]
    assert output_order(rows) == [(rows[1], "1"), (rows[2], "A[1,0]^-1"),
                                  (rows[0], "A[1,0]^-2 A[2,1/2]^-1")]
    assert output_order([]) == []


def test_ledger_mul_budget_counts_distinct_terms():
    ch = sl2_kr_char(3, 0)      # 4 terms; its square has 10 distinct terms
    assert len(_ledger_mul(ch.terms, ch.terms, None, 10)) == 10
    with pytest.raises(EngineError):
        _ledger_mul(ch.terms, ch.terms, None, 9)


# -- factors against the term budget ------------------------------------------

def test_fm_expand_budget_counts_stored_factors():
    top = kr_top_y(A2, 1, 3, "1/5")     # 10 terms holding 30 factors
    assert fm_expand(A2, top, None, EngineConfig(term_budget=30)).dimension() == 10
    with pytest.raises(EngineError, match=r"\(10 terms, 30 factors\)"):
        fm_expand(A2, top, None, EngineConfig(term_budget=29))


def test_node_sl2_chains_count_their_factors():
    # the chains of one string of length 5 hold 1 + 2 + ... + 5 factors
    top = kr_top_y(A1, 1, 5, "1/7")
    assert fm_expand(A1, top, None, EngineConfig(term_budget=15)).dimension() == 6
    with pytest.raises(EngineError, match="node-sl2 string of length 5"):
        fm_expand(A1, top, None, EngineConfig(term_budget=14))
    assert fm_expand(A1, top, 2, EngineConfig(term_budget=14)).dimension() == 3


def test_strings_refuse_an_exponent_at_most_zero():
    # each input once looped forever: a string top below one is never deleted
    s, step = monomials._site(1, 0), 2 * monomials._HALF
    for positions in (((s, 1), (s + step, 0)), ((s, -1),)):
        with pytest.raises(EngineError, match="^engine fault: "):
            characters._strings(positions, 1)
    assert characters._strings(((s, 2), (s + step, 1)), 1) == [(s, 2), (s, 1)]


@pytest.mark.parametrize("k, t, budget, message", [
    (5, 0, 14, "the chains of a node-sl2 string of length 5"),
    (5, 0, 5, "a KR string of 6 factors"),        # a KR string is refused first
    (3, 10, 12, "a KR string of 13 factors"),
    (999999, 0, 10 ** 6, "the chains of a node-sl2 string of length 999999"),
])
def test_ses_refuses_its_first_strings_chains_before_any_top(monkeypatch, k, t, budget,
                                                              message):
    def built(*args):
        raise AssertionError("a KR top or an expansion was built")
    for name in ("kr_top_y", "_fm_expand", "_i_chain"):
        monkeypatch.setattr(characters, name, built)
    with pytest.raises(EngineError, match=f"^term budget {budget} exceeded by {message}$"):
        demazure_char_via_ses(A1, 1, t, k, "1/3", 2, EngineConfig(term_budget=budget))


def test_ses_chain_refusal_is_the_first_expansions():
    # at budget 15 the chains of W_5's string fit, and W_6's are refused in
    # its own expansion, as they were before the parameter check
    with pytest.raises(EngineError, match="^term budget 15 exceeded by the chains of a "
                                          "node-sl2 string of length 6$"):
        demazure_char_via_ses(A1, 1, 0, 5, "1/3", None, EngineConfig(term_budget=15))


def test_kr_top_y_refuses_a_string_above_the_budget():
    assert kr_top_y(A1, 1, 10, 0, EngineConfig(term_budget=10)) == \
        YMonomial(tuple(((1, Fraction(2 * m + 1, 2)), 1) for m in range(10)))
    with pytest.raises(EngineError, match="KR string of 11 factors"):
        kr_top_y(A1, 1, 11, 0, EngineConfig(term_budget=10))
    with pytest.raises(EngineError):        # refused before it is built
        kr_top_y(A1, 1, 10 ** 15, 0)


# -- the expansion loop: its messages and its Y-form conversions ---------------

def test_expansion_messages_literal(monkeypatch):
    with pytest.raises(ValueError) as err:
        fm_expand(A2, parse_monomial("Y[1,0] /Y[2,1/2]"))
    assert str(err.value) == "fm_expand requires a dominant top, got Y[1,0] Y[2,1/2]^-1"
    # a wrong node-1 chain for the top leads to a term with multiplicity left
    # to explain at node 1 that is not 1-dominant.  Y[1,0] is expanded at its
    # anchor Y[1,1/2], half a step up, so the fault fires there, and the
    # term is named back at the caller's point.
    _small_cache(monkeypatch)
    anchored, wrong = parse_monomial("Y[1,1/2]"), parse_monomial("A[1,2]^-1")
    real, fired = characters._sl2_node_expansion, []

    def faulty(positions, d, cap, budget):
        chains = real(positions, d, cap, budget)
        if positions != anchored.exps:
            return chains
        fired.append(positions)
        return (chains[0], (wrong.sites, 1))
    monkeypatch.setattr(characters, "_sl2_node_expansion", faulty)
    with pytest.raises(EngineError) as err:
        fm_expand(A2, parse_monomial("Y[1,0]"))
    assert fired
    assert str(err.value) == ("expansion blocked: monomial Y[1,0] Y[1,2]^-1 Y[2,1/2]^-1 has "
                              "unexplained multiplicity at node 1 but is not 1-dominant")


@pytest.mark.parametrize("cartan, top, anchored, wrong, blocked", [
    (B2, "Y[1,4/3]", "Y[1,1]", "A[2,1]^-1", "Y[1,4/3]^2 Y[2,5/6]^-1 Y[2,11/6]^-1"),
    (G2, "Y[2,11/6]", "Y[2,3/2]", "A[2,1]^-1",
     "Y[1,-2/3]^-1 Y[1,4/3] Y[1,7/3] Y[2,11/6] Y[2,17/6]^-1"),
])
def test_expansion_blocked_at_node_2_of_a_translate(monkeypatch, cartan, top, anchored,
                                                    wrong, blocked):
    # a wrong chain at the anchored top leads to a term blocked at node 2; the
    # message names the whole monomial, every node's factors, moved back by
    # t = 1/3 to the caller's point
    _small_cache(monkeypatch)
    anchored, wrong = parse_monomial(anchored), parse_monomial(wrong)
    real, fired = characters._sl2_node_expansion, []

    def faulty(positions, d, cap, budget):
        chains = real(positions, d, cap, budget)
        if positions != anchored.exps:
            return chains
        fired.append(positions)
        return (chains[0], (wrong.sites, 1))
    monkeypatch.setattr(characters, "_sl2_node_expansion", faulty)
    with pytest.raises(EngineError) as err:
        fm_expand(cartan, parse_monomial(top))
    assert fired
    assert str(err.value) == (f"expansion blocked: monomial {blocked} has unexplained "
                              "multiplicity at node 2 but is not 2-dominant")


def test_each_chain_is_converted_to_y_once(monkeypatch):
    # the 1,399 new terms of B3 n3 k5 are reached by 228 distinct node chains;
    # each chain is walked over the lane tables once, and no AVector is
    # converted to its Y-form whole
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_walk")

    def whole(*args):
        raise AssertionError("the expansion loop called avector_to_y")
    monkeypatch.setattr(monomials, "avector_to_y", whole)
    monkeypatch.setattr(characters, "avector_to_y", whole, raising=False)
    b3 = build_cartan(LieType.parse("B3"))
    ch = fm_expand(b3, kr_top_y(b3, 3, 5, 0))
    assert (len(ch.terms), ch.dimension()) == (1400, 1400)
    assert counts["_walk"] == 228


# -- the fused SES difference (property) ---------------------------------------

# Ledgers over coordinates far beyond 64 bits and nodes up to 20.
huge_ledger_coords = st.builds(
    lambda base, n, c: Coord(base + Fraction(n, 2)) + Coord.var("x", c),
    st.sampled_from((Fraction(10 ** 30, 7), Fraction(-10 ** 30 - 1, 2), Fraction(0))),
    st.integers(min_value=-2, max_value=2), st.sampled_from((0, 0, 1)))
huge_ledgers = st.lists(st.tuples(
    st.lists(st.tuples(st.integers(min_value=1, max_value=20), huge_ledger_coords,
                       st.integers(min_value=1, max_value=2)), max_size=3),
    st.integers(min_value=1, max_value=3)), max_size=4).map(lambda rows: build_ledger(rows)[0])


def reference_product(la, lb, bound):
    """Test-only reference: a truncated ledger product on Counter keys."""
    out = {}
    for va, ca in la.items():
        for vb, cb in lb.items():
            k = frozenset((Counter(dict(va.items())) + Counter(dict(vb.items()))).items())
            if bound is None or sum(dict(k).values()) <= bound:
                out[k] = out.get(k, 0) + ca * cb
    return out


@given(huge_ledgers, huge_ledgers, huge_ledgers, huge_ledgers,
       st.one_of(st.none(), st.integers(min_value=0, max_value=4)))
def test_fused_difference_is_the_difference_of_products(la, lb, lc, ld, bound):
    sa, sb, sc, sd = ([(v.sites, c) for v, c in lx.items()] for lx in (la, lb, lc, ld))
    fused = _ledger_acc(sc, sd, bound, 10 ** 6, _ledger_acc(sa, sb, bound, 10 ** 6), -1)
    want = reference_product(la, lb, bound)
    for k, c in reference_product(lc, ld, bound).items():
        want[k] = want.get(k, 0) - c
    got = {frozenset(AVector(k, canonical=True).items()): c for k, c in fused.items()}
    assert {k: c for k, c in got.items() if c} == {k: c for k, c in want.items() if c}


# Few sites, so that rows repeat sites and share them with the base.
near_sites = st.tuples(st.integers(min_value=1, max_value=2), st.sampled_from(("0", "1/2", "1", "x")))
near_ledgers = st.dictionaries(
    st.lists(st.tuples(near_sites, st.integers(min_value=1, max_value=2)), max_size=3).map(
        lambda pairs: AVector(tuple(((i, coord(x)), e) for (i, x), e in pairs))),
    st.integers(min_value=1, max_value=3), max_size=4)


@settings(max_examples=40, deadline=None)
@given(near_ledgers, near_ledgers, near_ledgers, near_ledgers, st.sets(near_sites),
       st.integers(min_value=0, max_value=4))
def test_a_product_outside_a_base_is_the_product_cut_by_its_height_outside(
        la, lb, lc, ld, base, bound):
    # a product is kept iff its height less the distinct base sites it holds
    # is at most the bound: a repeated base site counts once as inside
    inside = {AVector.gen(i, x).sites[0] for i, x in base}
    sa, sb, sc, sd = ([(v.sites, c) for v, c in lx.items()] for lx in (la, lb, lc, ld))
    got = _ledger_acc(sc, sd, bound, 10 ** 6,
                      _ledger_acc(sa, sb, bound, 10 ** 6, base=tuple(inside)), -1, tuple(inside))
    want = {}
    for (l1, l2), sign in (((la, lb), 1), ((lc, ld), -1)):
        for v1, c1 in l1.items():
            for v2, c2 in l2.items():
                v = (v1 * v2).sites
                if len(v) - len(inside.intersection(v)) <= bound:
                    want[v] = want.get(v, 0) + sign * c1 * c2
    assert {k: c for k, c in got.items() if c} == {k: c for k, c in want.items() if c}


def ses_reference(cartan, i, t, k, x, bound):
    """The SES route before it was fused: two char_mul products at
    x0 = x - (k+1) d_i, their difference on AVector keys, then each key less
    the kernel top."""
    di = cartan.di(i)
    x0 = coord(x) - (k + 1) * di
    inner = None if bound is None else bound + k
    a, b, c, d = (fm_expand(cartan, kr_top_y(cartan, i, kk, base), inner)
                  for kk, base in ((k, x0), (k + t, x0 + di), (k - 1, x0 + di),
                                   (k + t + 1, x0)))
    big, small = char_mul(a, b), char_mul(c, d)
    assert big.top == small.top
    diff = big.term_dict()
    for v, cc in small.terms:
        diff[v] = diff.get(v, 0) - cc
    diff = {v: cc for v, cc in diff.items() if cc}
    v0 = AVector(tuple(((i, x0 + m * di), 1) for m in range(1, k + 1)))
    assert min(diff.values()) > 0 and diff[v0] == 1
    rebased = {_remove(v.sites, v0.sites): cc for v, cc in diff.items()}
    assert None not in rebased
    out = TruncatedCharacter.make(big.top * avector_to_psi(cartan, v0),
                                  {AVector(q, canonical=True): cc for q, cc in rebased.items()},
                                  bound)
    return out.truncate(bound)


@pytest.mark.parametrize("extra", [AVector.gen(2, "1/3"), AVector.unit()])
def test_ses_difference_rejects_a_negative_coefficient(monkeypatch, extra):
    # a fault in the third factor, chi(W_{k-1,d_i}): a term that a*b lacks,
    # or one coefficient too many on a term it has; a fresh memo, so that no
    # kernel memoized by an earlier test skips the faulty expansion
    monkeypatch.setattr(characters, "_FM_CACHE", characters._TermBoundedCache(10_000))
    real, calls = characters._fm_expand, []

    def faulty(*args):
        ch = real(*args)
        calls.append(ch)
        if len(calls) == 3:
            terms = ch.term_dict()
            terms[extra] = terms.get(extra, 0) + 1
            ch = TruncatedCharacter(ch.top, tuple(terms.items()), ch.height_bound)
        return ch
    monkeypatch.setattr(characters, "_fm_expand", faulty)
    with pytest.raises(EngineError, match="negative coefficient in SES difference"):
        demazure_char_via_ses(A2, 1, 1, 2, 0, 2)


def _fault_first_factor(monkeypatch, top=None, extra=None):
    """Make the first factor of the SES, chi(W_{k,x0}), carry another ``top``
    or one more ``extra`` term; a fresh memo, as above."""
    monkeypatch.setattr(characters, "_FM_CACHE", characters._TermBoundedCache(10_000))
    real, calls = characters._fm_expand, []

    def faulty(*args):
        ch = real(*args)
        calls.append(ch)
        if len(calls) == 1:
            terms = ch.term_dict()
            if extra is not None:
                terms[extra] = terms.get(extra, 0) + 1
            ch = TruncatedCharacter(top or ch.top, tuple(terms.items()), ch.height_bound)
        return ch
    monkeypatch.setattr(characters, "_fm_expand", faulty)


# A2, i=1, t=1, k=2 at x=0: x0 = -3, so the kernel top ledger is A[1,-2]^-1 A[1,-1]^-1
SES_FAULTS = [
    (dict(top=PsiMonomial.gen(1, "q")), "engine fault: SES tensor tops disagree"),
    (dict(extra=chain((1, -2), (1, -1))), "SES difference is missing its expected top term"),
    (dict(extra=AVector.gen(2, "1/3")),
     "SES difference term A[2,1/3]^-1 does not contain the kernel top ledger"),
]


@pytest.mark.parametrize("fault, message", SES_FAULTS, ids=["tops", "top-term", "no-top"])
def test_each_ses_check_names_its_fault(monkeypatch, fault, message):
    _fault_first_factor(monkeypatch, **fault)
    with pytest.raises(EngineError) as err:
        demazure_char_via_ses(A2, 1, 1, 2, 0, 2)
    assert str(err.value) == message


def test_an_ses_fault_exits_three_from_the_cli(monkeypatch):
    _fault_first_factor(monkeypatch, top=PsiMonomial.gen(1, "q"))
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(["qchar", "demazure", "--type", "A2", "--node", "1", "--k", "2",
                         "--t", "1", "--x", "0", "--height", "2"], out, err)
    assert (code, out.getvalue(), err.getvalue()) == \
        (3, "", "engine error: engine fault: SES tensor tops disagree\n")


ses_coords = st.one_of(
    st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 30),
    st.sampled_from(("x", "k-1/3", "1/2+y"))).map(coord)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((A1, 1), (A2, 1), (A2, 2), (B2, 1), (B2, 2), (G2, 1), (G2, 2))),
       st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=2),
       ses_coords, st.integers(min_value=1, max_value=3))
def test_fused_ses_matches_the_char_mul_route(node, t, k, x, bound):
    cartan, i = node
    got = demazure_char_via_ses(cartan, i, t, k, x, bound)
    want = ses_reference(cartan, i, t, k, x, bound)
    assert (got.top, got.terms, got.height_bound) == (want.top, want.terms, want.height_bound)
    assert got.to_json() == want.to_json()


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((A1, 1), (A2, 1), (A2, 2), (B2, 1), (B2, 2), (G2, 1), (G2, 2))),
       st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=2),
       ses_coords, st.integers(min_value=1, max_value=3))
def test_kernel_identity_at_any_point(node, t, k, x, bound):
    # the kernel module expanded directly equals the SES difference at x
    cartan, i = node
    direct = fm_expand(cartan, psi_to_y(cartan, demazure_weight(cartan, i, t, k, x)), bound)
    assert direct == demazure_char_via_ses(cartan, i, t, k, x, bound)


# -- the expansion cache -----------------------------------------------------

def test_expansion_cache_is_bounded_by_cached_terms(monkeypatch):
    cache = characters._TermBoundedCache(1000)
    monkeypatch.setattr(characters, "_FM_CACHE", cache)
    b3 = build_cartan(LieType.parse("B3"))
    # a symbol of its own per top: no top is a translate of another
    tops = [kr_top_y(b3, 3, 3, Coord.var(f"y{n}")) for n in range(8)]
    for top in tops:                        # 160 terms each, all distinct
        assert len(fm_expand(b3, top).terms) == 160
        assert cache.terms <= 1000
        assert cache.terms == sum(len(ch.terms) for ch in cache._data.values())
    assert (cache.hits, cache.misses, len(cache._data)) == (0, 8, 6)
    assert fm_expand(b3, tops[-1]) is fm_expand(b3, tops[-1])
    assert cache.hits == 2
    fm_expand(b3, tops[0])                  # evicted: expanded again
    assert cache.misses == 9 and cache.terms == 960


def test_expansion_cache_skips_a_character_above_its_bound(monkeypatch):
    cache = characters._TermBoundedCache(100)
    monkeypatch.setattr(characters, "_FM_CACHE", cache)
    b3 = build_cartan(LieType.parse("B3"))
    assert len(fm_expand(b3, kr_top_y(b3, 3, 3, 0)).terms) == 160
    assert cache.terms == 0 and not cache._data


# -- one memo for expansions and kernels ------------------------------------

def _small_cache(monkeypatch, max_terms=10_000):
    cache = characters._TermBoundedCache(max_terms)
    monkeypatch.setattr(characters, "_FM_CACHE", cache)
    return cache


def _count_calls(monkeypatch, *names):
    counts = Counter()
    for name in names:
        real = getattr(characters, name)

        def counted(*a, _real=real, _name=name, **kw):
            counts[_name] += 1
            return _real(*a, **kw)
        monkeypatch.setattr(characters, name, counted)
    return counts


def _kinds(cache):
    return Counter(key[0] for key in cache._data)


@pytest.mark.parametrize("call", [
    lambda: fm_expand(B2, kr_top_y(B2, 1, 3, "x"), 3),
    lambda: demazure_char_via_ses(B2, 2, 1, 2, "x", 3),
    lambda: stabilize(G2, 1, "1/3", 3).terms,
], ids=["fm", "ses", "stabilize"])
def test_memo_hit_is_the_stored_object_and_computes_nothing(monkeypatch, call):
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_fm_expand", "_ledger_acc")
    first = call()
    assert counts["_fm_expand"] > 0
    before = dict(counts)
    assert call() is first
    assert dict(counts) == before


def test_memo_key_takes_x_as_int_fraction_or_coord(monkeypatch):
    cache = _small_cache(monkeypatch)
    ses = [demazure_char_via_ses(A2, 1, 1, 2, x, 3) for x in (2, Fraction(2), coord(2))]
    st_ = [stabilize(A2, 2, x, 3).terms for x in (-1, Fraction(-1), coord("-1"))]
    assert ses[0] is ses[1] is ses[2] and st_[0] is st_[1] is st_[2]
    assert _kinds(cache)["ses"] == 1


def test_memo_key_separates_every_argument_and_the_config(monkeypatch):
    cache = _small_cache(monkeypatch)
    other = EngineConfig(term_budget=999_999)
    ses_args = [(B2, 2, 1, 2, "x", 3), (G2, 2, 1, 2, "x", 3), (B2, 1, 1, 2, "x", 3),
                (B2, 2, 0, 2, "x", 3), (B2, 2, 1, 1, "x", 3), (B2, 2, 1, 2, "y", 3),
                (B2, 2, 1, 2, "x", 2), (B2, 2, 1, 2, "x", None)]
    for n, args in enumerate(ses_args, 1):
        demazure_char_via_ses(*args)
        assert _kinds(cache)["ses"] == n
    demazure_char_via_ses(*ses_args[0], other)
    assert _kinds(cache)["ses"] == len(ses_args) + 1
    # the kinds never share a key, also where their arguments coincide
    top = kr_top_y(B2, 1, 2, "x")
    fm_expand(B2, top, 3)
    fm_expand(B2, top, 3, other)
    assert set(_kinds(cache)) == {"fm", "ses"}
    assert len(cache._data) == sum(_kinds(cache).values())
    assert all(key[-1] in (characters.DEFAULT_CONFIG, other) for key in cache._data)


def test_memo_never_stores_an_engine_error(monkeypatch):
    cache = _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_demazure_char_via_ses")
    tight = EngineConfig(term_budget=20)
    for n in (1, 2):                        # raised again, computed again
        with pytest.raises(EngineError, match="term budget 20 exceeded"):
            demazure_char_via_ses(B2, 2, 1, 2, "x", 3, tight)
        assert counts == {"_demazure_char_via_ses": n}
    assert not _kinds(cache)["ses"]
    assert demazure_char_via_ses(B2, 2, 1, 2, "x", 3).height_bound == 3
    assert _kinds(cache)["ses"] == 1


def test_the_memo_holds_the_kernel_and_no_factor_of_it(monkeypatch):
    # the four KR factors are expanded where they stand: none is memoized,
    # and none is moved to an anchor and back
    cache = _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_translate")
    for x in (0, "1/3", "x"):
        demazure_char_via_ses(A2, 1, 1, 2, x, 2)
    assert (_kinds(cache), counts["_translate"]) == (Counter(ses=3), 0)


def test_memo_bound_counts_the_terms_of_every_kind(monkeypatch):
    cache = _small_cache(monkeypatch, 120)
    for x in range(0, 40, 8):
        demazure_char_via_ses(B2, 2, 1, 2, x, 3)
        stabilize(G2, 1, x, 3)
        fm_expand(B2, kr_top_y(B2, 1, 3, x), 3)
        assert cache.terms == sum(len(v.terms) for v in cache._data.values())
        assert cache.terms <= 120
    assert cache.misses > len(cache._data)         # entries were evicted


def test_mutating_a_hit_does_not_change_the_next(monkeypatch):
    _small_cache(monkeypatch)
    for call in (lambda: demazure_char_via_ses(A2, 1, 1, 2, "x", 3),
                 lambda: stabilize(A2, 1, "x", 3),
                 lambda: fm_expand(A2, kr_top_y(A2, 1, 2, "x"), 3)):
        first = call()
        want = first.to_json()
        d = first.term_dict()
        d[AVector.gen(1, "q")] = 5
        d.pop(AVector.unit())
        assert call().to_json() == want


# -- spectral translates: one expansion per anchor -----------------------------

B3 = build_cartan(LieType.parse("B3"))
TRANSLATED_KR = [(build_cartan(LieType.parse(name)), i, k) for name, i, k in (
    ("A2", 1, 2), ("A2", 2, 1), ("B2", 1, 2), ("B2", 2, 2), ("C3", 3, 2), ("C3", 1, 1),
    ("G2", 1, 2), ("G2", 2, 1), ("D4", 2, 1), ("D4", 4, 2), ("F4", 4, 1), ("F4", 1, 1))]
shifts = st.one_of(
    st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 30),
    st.sampled_from((Fraction(1, 2), Fraction(-3, 4), Fraction(2, 5), Fraction(10 ** 21 + 1, 7))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(TRANSLATED_KR), st.sampled_from(("0", "1/3", "y", "y-5/2")), shifts,
       st.sampled_from((None, 0, 3)), st.booleans(), st.booleans())
def test_the_expansion_of_a_translate_is_the_translated_expansion(kr, x, t, bound, pair, warm):
    # fm_expand of a top moved by t, whether or not its anchor is memoized,
    # equals the engine run on that very top, with no memo and no relabel;
    # a second factor at the last node, half a step up, makes a top that no
    # single KR weight has.  A fresh memo, so that the rows of a translate
    # are first read here: it prints before they are moved, and == and hash
    # hold both before and after
    cartan, i, k = kr

    def top_at(x):
        top = kr_top_y(cartan, i, k, x)
        return top * YMonomial.gen(cartan.rank, x + Fraction(1, 2)) if pair else top
    moved = top_at(coord(x) + t)
    with patch.object(characters, "_FM_CACHE", characters._TermBoundedCache(10_000)):
        if warm:
            fm_expand(cartan, top_at(coord(x)), bound)
        got = fm_expand(cartan, moved, bound)
    want = characters._fm_expand(cartan, moved, bound, characters.DEFAULT_CONFIG)
    assert (got.to_json(), got.to_text()) == (want.to_json(), want.to_text())
    assert ("terms" in vars(got)) == ("_t" not in vars(got))   # a translate is unmoved
    for _ in range(2):
        assert got == want and want == got and hash(got) == hash(want)
    assert (got.top, got.terms, got.height_bound) == (want.top, want.terms, want.height_bound)
    assert (got.to_json(), got.to_text()) == (want.to_json(), want.to_text())


def test_printing_a_translate_moves_no_rows(monkeypatch):
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_translate")
    ch = fm_expand(B3, kr_top_y(B3, 3, 3, "1/3"))
    assert counts["_translate"] == 1                # the top to its anchor
    printed = ch.to_json(), ch.to_text()
    assert counts["_translate"] == 1 and "terms" not in vars(ch)
    terms = ch.terms                                # the one move of the rows
    assert counts["_translate"] == 2 and ch.terms is terms and len(terms) == 160
    assert (ch.to_json(), ch.to_text()) == printed
    assert counts["_translate"] == 2


def test_printing_a_translate_interns_no_lane(monkeypatch):
    # a translate formats its anchor's plan at x + t, so printing it adds no
    # lane to the append-only table; the first read of its rows still moves
    # them, into lanes at the new residue.  No other test uses these points
    _small_cache(monkeypatch)
    fm_expand(B3, kr_top_y(B3, 3, 3, "lane_probe"))
    ch = fm_expand(B3, kr_top_y(B3, 3, 3, "lane_probe+1/7"))
    lanes = len(monomials._LANES)
    printed = ch.to_json(), ch.to_text()
    assert len(monomials._LANES) == lanes and "terms" not in vars(ch)
    assert len(ch.terms) == 160 and len(monomials._LANES) > lanes
    assert (ch.to_json(), ch.to_text()) == printed


@pytest.mark.parametrize("printer, residues", [("to_json", ("5/11", "6/11")),
                                               ("to_text", ("5/13", "6/13"))])
def test_printing_a_translate_formats_each_lane_once(monkeypatch, printer, residues):
    # a factor's text comes from its lane's text at t and int arithmetic on its
    # half steps: printing a translate builds no Coord, reads no site back to
    # one, and formats each lane of the anchor's plan once, at k = 3 as at k = 5
    _small_cache(monkeypatch)
    counts, real_init, real_unsite = Counter(), Coord.__init__, monomials._unsite
    monkeypatch.setattr(Coord, "__init__", lambda self, *a, **kw: counts.update(
        ("Coord",)) or real_init(self, *a, **kw))
    monkeypatch.setattr(monomials, "_unsite", lambda s: counts.update(("_unsite",))
                        or real_unsite(s))
    seen = []
    for k, x in zip((3, 5), residues):
        ch = fm_expand(B3, kr_top_y(B3, 3, k, x))
        assert ch._anchor is not None
        monomials._lane_text.cache_clear()
        monomials._factor_text.cache_clear()
        format_monomial(ch.top)         # the top, so that what is counted is the rows
        counts.clear()
        misses = monomials._lane_text.cache_info().misses
        getattr(ch, printer)()
        sites = ch._anchor._plan[0]
        seen.append((len(sites), monomials._lane_text.cache_info().misses - misses))
        assert counts == Counter()
        assert seen[-1][1] == len({s & monomials._LANE for s in sites})
    assert seen[0][0] < seen[1][0] and seen[0][1] == seen[1][1]


def test_an_unknown_attribute_of_a_translate_moves_no_rows(monkeypatch):
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_translate")
    ch = fm_expand(B3, kr_top_y(B3, 3, 3, "1/3"))
    for _ in range(2):
        with pytest.raises(AttributeError, match="'TruncatedCharacter' object has no "
                                                 "attribute 'no_such_field'"):
            ch.no_such_field
        assert counts["_translate"] == 1 and "terms" not in vars(ch)
    assert len(ch.terms) == 160             # landed: the same refusal
    with pytest.raises(AttributeError, match="no_such_field"):
        ch.no_such_field


def _live_rows(cache) -> dict:
    """{id: length} of each row tuple that the memo's values keep alive."""
    out = {}
    for ch in cache._data.values():
        for held in (ch, ch._anchor):
            if held is not None and "terms" in vars(held):
                out[id(held.terms)] = len(held.terms)
    return out


def test_the_memo_counts_a_translate_as_its_anchors_rows(monkeypatch):
    cache = _small_cache(monkeypatch, 400)          # room for two of 160 rows
    counts = _count_calls(monkeypatch, "_translate")

    def expand(x):
        fm_expand(B3, kr_top_y(B3, 3, 3, x))
        assert cache.terms == sum(len((ch._anchor or ch).terms)
                                  for ch in cache._data.values()) <= 400
        assert sum(_live_rows(cache).values()) <= cache.terms
    # an anchor and its translate; a hit warms the translate; a new anchor
    # then evicts the old one, which the translate still holds
    for x in ("1/3", "1/3", "y"):
        expand(x)
    translate = next(iter(cache._data.values()))
    assert all(ch is not translate._anchor for ch in cache._data.values())
    assert "terms" not in vars(translate) and counts["_translate"] == 1
    # a read of its rows moves them once and lets the anchor go
    assert len(translate.terms) == 160 and translate._anchor is None
    assert counts["_translate"] == 2
    assert _live_rows(cache) == {id(translate.terms): 160,
                                 id(cache._data[next(reversed(cache._data))].terms): 160}
    # the old anchor again evicts the translate; new translates are put and
    # evicted at once, and neither moves a row: one move of a top each
    expand("2/3")
    assert all(ch is not translate for ch in cache._data.values())
    expand("y+1/5")
    assert counts["_translate"] == 2 + 2 * 1


def test_translates_of_one_top_expand_once(monkeypatch):
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_fm_expand")
    xs = ("0", "1/3", "-3/4", "2/5", "7", "1000000000000000000001/7", "-1/2", "5/6")
    chars = [fm_expand(B3, kr_top_y(B3, 3, 3, x)) for x in xs]
    assert counts["_fm_expand"] == 1
    assert [len(ch.terms) for ch in chars] == [160] * 8
    assert len({ch.top for ch in chars}) == 8


def test_a_translated_hit_is_the_stored_object(monkeypatch):
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_fm_expand", "_translate")
    top = kr_top_y(B3, 3, 3, "1/3")
    first = fm_expand(B3, top)
    assert counts == {"_fm_expand": 1, "_translate": 1}
    assert fm_expand(B3, top) is first
    assert counts == {"_fm_expand": 1, "_translate": 1}


def test_a_derived_expansion_enters_the_memo_at_its_cold_end(monkeypatch):
    cache = _small_cache(monkeypatch, 400)          # room for two of 160 terms
    tops = [kr_top_y(B3, 3, 3, x) for x in ("0", "1/3", "2/3")]
    keys = [("fm", B3, top, None, characters.DEFAULT_CONFIG) for top in tops]
    fm_expand(B3, tops[1])
    assert list(cache._data) == [keys[1], keys[0]]  # the translate goes first
    fm_expand(B3, tops[2])                          # no room: the anchor stays
    assert list(cache._data) == [keys[1], keys[0]]
    fm_expand(B3, tops[1])                          # a hit warms a derived entry
    assert list(cache._data) == [keys[0], keys[1]]


def test_errors_at_a_translate_name_the_callers_point(monkeypatch):
    # the blocked message at a translate is pinned by
    # test_expansion_messages_literal; a failure is expanded once per call
    _small_cache(monkeypatch)
    counts = _count_calls(monkeypatch, "_fm_expand")
    with pytest.raises(ValueError) as err:
        fm_expand(A2, parse_monomial("Y[1,1/3] /Y[2,5/6]"))
    assert str(err.value) == "fm_expand requires a dominant top, got Y[1,1/3] Y[2,5/6]^-1"
    assert not counts
    for n in (1, 2):
        with pytest.raises(EngineError) as err:
            fm_expand(A2, kr_top_y(A2, 1, 3, "1/5"), None, EngineConfig(term_budget=29))
        assert str(err.value) == "term budget 29 exceeded during expansion (10 terms, 30 factors)"
        assert counts["_fm_expand"] == n
    with pytest.raises(EngineError) as err:
        fm_expand(A1, kr_top_y(A1, 1, 5, "x+1/7"), None, EngineConfig(term_budget=14))
    assert str(err.value) == ("term budget 14 exceeded by the chains of a node-sl2 string "
                              "of length 5")
    assert counts["_fm_expand"] == 3
