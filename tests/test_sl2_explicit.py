"""Explicit rank-one matrix modules: relations, extraction, three-term sum."""
import io
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

import yqchar.cli as cli
import yqchar.monomials as monomials
import yqchar.sl2_explicit as sl2_explicit
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import (
    EngineConfig, EngineError, TruncatedCharacter, asymptotic_char, compare_characters,
    sl2_kr_char,
)
from yqchar.coords import Coord
from yqchar.monomials import AVector, PsiMonomial, _site, expand_A_to_Psi
from yqchar.sl2_explicit import (
    Sl2Module, build_module, check_relations, extract_qchar, relation_instances, relation_report,
    three_term_sides, verify_sl2_three_term,
)

A1 = build_cartan(LieType.parse("A1"))

SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# Rationals of huge size or with large (prime) denominators, for the
# integer arithmetic over a common denominator.
WIDE = st.one_of(SMALL, st.builds(Fraction, st.integers(-10 ** 30, 10 ** 30),
                                  st.sampled_from((1, 7, 999999937, 1000000007))))
# Corruptions of one entry, some with a denominator coprime to every
# denominator the module has.
BUMPS = (1, -1, Fraction(1, 2), Fraction(1, 7), Fraction(-3, 1000000007))


# -- dense reference ---------------------------------------------------------
# The relation check on dense matrices, as it was before the modules were
# stored by band: every product is a full O(dim^3) matrix product.

def _view(mod, family):
    """The bands of one family as Fractions: each stored int is over ``mod.den``."""
    return tuple(tuple(Fraction(v, mod.den) for v in band) for band in getattr(mod, family))


def _densify(mod):
    """Dense xp, xm, xi matrices of a band-stored module."""
    def dense(family, offset):
        mats = []
        for band in _view(mod, family):
            rows = [[Fraction(0)] * mod.dim for _ in range(mod.dim)]
            for c, e in enumerate(band):
                if 0 <= c + offset < mod.dim:
                    rows[c + offset][c] = e
            mats.append(rows)
        return mats
    return dense("xp", -1), dense("xm", 1), dense("xi", 0)


def _mat_mul(a, b):
    n = len(a)
    return [[sum(a[r][m] * b[m][c] for m in range(n)) for c in range(n)]
            for r in range(n)]


def _mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _comm(a, b):
    return _mat_sub(_mat_mul(a, b), _mat_mul(b, a))


def dense_check_relations(mod):
    n_max = mod.mode_bound
    xp_, xm_, xi_ = _densify(mod)
    cols = mod.safe_columns
    failures = []
    checked = 0

    def expect(rel, m, n, lhs, rhs):
        nonlocal checked
        checked += 1
        for c in cols:
            for r in range(mod.dim):
                if lhs[r][c] != rhs[r][c]:
                    failures.append((rel, m, n, c, lhs[r][c], rhs[r][c]))
                    return

    zero = [[Fraction(0)] * mod.dim for _ in range(mod.dim)]
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            expect("commuting Cartan modes", m, n, _comm(xi_[m], xi_[n]), zero)
            expect("raising/lowering bracket", m, n, _comm(xp_[m], xm_[n]), xi_[m + n])
    for n in range(n_max + 1):
        expect("weight grading (+)", 0, n, _comm(xi_[0], xp_[n]),
               [[2 * e for e in row] for row in xp_[n]])
        expect("weight grading (-)", 0, n, _comm(xi_[0], xm_[n]),
               [[-2 * e for e in row] for row in xm_[n]])
    for sign, xs in ((1, xp_), (-1, xm_)):
        tag = "+" if sign > 0 else "-"
        for m in range(n_max + 1):
            for n in range(n_max + 1):
                lhs = _mat_sub(_comm(xi_[m + 1], xs[n]), _comm(xi_[m], xs[n + 1]))
                anti = [[sign * e for e in row] for row in
                        _mat_sub(_mat_mul(xi_[m], xs[n]),
                                 [[-e for e in row] for row in _mat_mul(xs[n], xi_[m])])]
                expect(f"Cartan-Drinfeld ({tag})", m, n, lhs, anti)
                lhs = _mat_sub(_comm(xs[m + 1], xs[n]), _comm(xs[m], xs[n + 1]))
                anti = [[sign * e for e in row] for row in
                        _mat_sub(_mat_mul(xs[m], xs[n]),
                                 [[-e for e in row] for row in _mat_mul(xs[n], xs[m])])]
                expect(f"same-sign Drinfeld ({tag})", m, n, lhs, anti)
    return relation_report(checked, failures, f"{mod.kind} k={mod.k} x={mod.x} dim={mod.dim}")


def _bump(mod, family, n, i, delta):
    """The module with one band entry moved by the rational ``delta``, so that
    relations fail: for delta = p/q, den and every entry are scaled by q, and
    the entry gains p * den (the old den)."""
    p, q = Fraction(delta).as_integer_ratio()
    scaled = {f: [[v * q for v in b] for b in getattr(mod, f)] for f in ("xp", "xm", "xi")}
    scaled[family][n][i] += p * mod.den
    return Sl2Module(**(vars(mod) | {"den": mod.den * q,
                                     **{f: tuple(map(tuple, b)) for f, b in scaled.items()}}))


@st.composite
def modules(draw):
    n_max = draw(st.integers(min_value=0, max_value=3))
    x = draw(WIDE)
    if draw(st.booleans()):
        mod = build_module("finite", draw(st.integers(min_value=0, max_value=4)), x,
                           n_max=n_max)
    else:
        mod = build_module("truncated", draw(WIDE), x, n_max=n_max,
                           M=draw(st.integers(min_value=3, max_value=6)))
    if draw(st.integers(min_value=0, max_value=2)):      # corrupt two in three
        family = draw(st.sampled_from(("xp", "xm", "xi")))
        n = draw(st.integers(min_value=0, max_value=len(getattr(mod, family)) - 1))
        i = draw(st.integers(min_value=0, max_value=mod.dim - 1))
        mod = _bump(mod, family, n, i, draw(st.sampled_from(BUMPS)))
    return mod


def _series_mul(a, b, order):
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[:order + 1]):
        for j, bj in enumerate(b[:order + 1 - i]):
            out[i + j] += ai * bj
    return out


def _series_inv(a, order):
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        out[n] = -sum(a[j] * out[n - j] for j in range(1, n + 1) if j < len(a))
    return out


def reference_series(factors, order):
    """prod (1 + a/u)^e over (a, e) pairs to order u^-order, by Fraction
    convolution: the series are multiplied and inverted term by term."""
    want = [Fraction(1)] + [Fraction(0)] * order
    for a, e in factors:
        f = [Fraction(1), a] + [Fraction(0)] * order
        if e < 0:
            f = _series_inv(f, order)
        for _ in range(abs(e)):
            want = _series_mul(want, f, order)
    return want


def series_times(factors, order, D):
    """The kernel's series from 1 over the rational factors lifted to D, read
    back as Fractions c_n = S[n] / D^n."""
    lifted = [(sl2_explicit._lift(a, D), e) for a, e in factors]
    S = sl2_explicit._series_times([1] + [0] * order, lifted)
    return [Fraction(v, D ** n) for n, v in enumerate(S)]


# -- series helpers ----------------------------------------------------------

def test_psi_ratio_series_examples():
    # (u+1)/u = 1 + u^-1, as Psi_{1,1} / Psi_{1,0}
    m = [(Fraction(1), 1), (Fraction(0), -1)]
    assert series_times(m, 3, 1) == [1, 1, 0, 0]
    # u/(u+1) = 1 - u^-1 + u^-2 - ...
    assert series_times([(a, -e) for a, e in m], 3, 1) == [1, -1, 1, -1]
    # (u+1/2)/u over D = 6, a multiple of 2
    assert series_times([(Fraction(1, 2), 1)], 2, 6) == [1, Fraction(1, 2), 0]
    # the kernel works in place, on int pairs (D a, e)
    out = [1, 0, 0]
    assert sl2_explicit._series_times(out, [(1, 1), (0, -1)]) is out
    assert out == [1, 1, 0]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(WIDE, st.sampled_from((-3, -2, -1, 1, 2, 3))), max_size=4),
       st.integers(min_value=0, max_value=6), st.sampled_from((1, 2, 5)))
def test_psi_ratio_series_matches_convolution(factors, order, scale):
    want = reference_series(factors, order)
    # any multiple of the denominators will do
    D = scale * lcm(*(a.denominator for a, _ in factors))
    assert series_times(factors, order, D) == want


@pytest.mark.parametrize("D, a", [(1, Fraction(1, 2)), (2, Fraction(1, 3)),
                                  (6, Fraction(-3, 4)), (10 ** 9, Fraction(1, 1000000007))])
def test_series_times_refuses_a_denominator_it_does_not_carry(D, a):
    # D // a.denominator would give a wrong series without a word
    with pytest.raises(ValueError, match=f"is not a multiple of that of {a}"):
        sl2_explicit._lift(a, D)
    with pytest.raises(ValueError, match=f"is not a multiple of that of {a}"):
        series_times([(Fraction(1), 1), (a, -1)], 2, D)


# -- construction ------------------------------------------------------------

def test_build_module_validation():
    with pytest.raises(ValueError):
        build_module("finite", Fraction(7, 3), 0)
    with pytest.raises(ValueError):
        build_module("finite", -1, 0)
    with pytest.raises(ValueError):
        build_module("truncated", Fraction(7, 3), 0, M=2)
    with pytest.raises(ValueError):
        build_module("truncated", Fraction(7, 3), 0)      # M is required
    with pytest.raises(ValueError):
        build_module("banana", 1, 0)


def test_specific_matrix_entries():
    mod = build_module("finite", 1, 0, n_max=1)
    xp, xm, xi = (_view(mod, f) for f in ("xp", "xm", "xi"))
    # raising: xp_0 v_1 = v_0, annihilates v_0; higher modes kill v_1 (x = 0)
    assert xp[0][1] == 1
    assert xp[0][0] == 0
    assert xp[1][1] == 0
    # lowering: xm_0 v_0 = (0+1)(1-0) v_1
    assert xm[0][0] == 1
    # Cartan eigenvalue on v_0: (u-1)(u+1)/((u-1)u) = 1 + u^-1
    assert xi[0][0] == 1 and xi[1][0] == 0
    # at x = -1/2 every band is over den = 2^P, P = 3 Cartan modes, even where
    # the value is an integer: xm_1 v_0 = (1/2)(0+1)(1-0) = 1/2, and on v_0 the
    # eigenvalue (u+x+k)/(u+x) has c_1 = k = 1 and c_2 = -xk = 1/2
    half = build_module("finite", 1, Fraction(-1, 2), n_max=1)
    assert half.den == 8
    assert (half.xm[1][0], half.xi[0][0], half.xi[1][0]) == (4, 8, 4)


@settings(max_examples=120, deadline=None)
@given(st.data(), WIDE, st.integers(min_value=0, max_value=3))
def test_build_module_matches_the_fraction_reference(data, x, n_max):
    # the bands as they were built entry by entry in Fraction arithmetic
    if data.draw(st.booleans()):
        k = Fraction(data.draw(st.integers(min_value=0, max_value=4)))
        mod = build_module("finite", k, x, n_max=n_max)
    else:
        k = data.draw(WIDE)
        mod = build_module("truncated", k, x, n_max=n_max,
                           M=data.draw(st.integers(min_value=3, max_value=6)))
    dim, pm_modes, xi_modes = mod.dim, n_max + 2, max(2 * n_max, n_max + 1) + 1
    zero = Fraction(0)
    xp = tuple(tuple(zero if i == 0 else (1 - i - x) ** n for i in range(dim))
               for n in range(pm_modes))
    xm = tuple(tuple((-i - x) ** n * (i + 1) * (k - i) if i + 1 < dim else zero
                     for i in range(dim)) for n in range(pm_modes))
    eigs = [reference_series(((x - 1, 1), (x + k, 1), (x + i - 1, -1), (x + i, -1)), xi_modes)
            for i in range(dim)]
    xi = tuple(tuple(eig[n + 1] for eig in eigs) for n in range(xi_modes))
    assert tuple(_view(mod, f) for f in ("xp", "xm", "xi")) == (xp, xm, xi)
    assert {type(v) for bands in (mod.xp, mod.xm, mod.xi) for b in bands for v in b} == {int}
    assert mod.den == lcm(x.denominator, k.denominator) ** xi_modes


@settings(max_examples=200, deadline=None)
@given(WIDE, WIDE, WIDE.filter(bool), st.integers(min_value=0, max_value=3),
       st.integers(min_value=3, max_value=6))
def test_stored_entries_are_affine_in_k(x, k0, h, n_max, M):
    # the degree bound of the build_module docstring: at k0, k0 + h and
    # k0 + 2h every entry of xp, xm and xi has a zero second difference
    mods = [build_module("truncated", k0 + j * h, x, n_max=n_max, M=M) for j in range(3)]
    for family in ("xp", "xm", "xi"):
        for a, b, c in zip(*(_view(mod, family) for mod in mods)):
            assert [u - 2 * v + w for u, v, w in zip(a, b, c)] == [0] * M
    # and not all constant: xm_0 v_0 = k
    assert _view(mods[1], "xm")[0][0] - _view(mods[0], "xm")[0][0] == h


def test_build_module_respects_term_budget():
    # dim 2, 2 raising + 2 lowering + 2 Cartan modes: 12 stored entries
    assert build_module("finite", 1, 0, n_max=0, config=EngineConfig(term_budget=12)).dim == 2
    with pytest.raises(EngineError):
        build_module("finite", 1, 0, n_max=0, config=EngineConfig(term_budget=11))
    with pytest.raises(EngineError):
        build_module("finite", Fraction(10) ** 400, 0)
    with pytest.raises(EngineError):
        build_module("truncated", Fraction(1, 3), 0, M=10 ** 11)
    with pytest.raises(EngineError):
        build_module("finite", 1, 0, n_max=10 ** 12)
    with pytest.raises(EngineError):
        verify_sl2_three_term(2, 0, 10 ** 11, 3)


def test_safe_columns():
    assert list(build_module("finite", 2, 0).safe_columns) == [0, 1, 2]
    assert list(build_module("truncated", Fraction(7, 3), 0, M=5).safe_columns) == [0, 1, 2]


# -- defining relations ------------------------------------------------------

@pytest.mark.parametrize("k", range(5))
def test_relations_finite(k):
    for x in (Fraction(0), Fraction(1, 2), Fraction(-2)):
        rep = check_relations(build_module("finite", k, x, n_max=2))
        assert rep.verdict, rep.to_text()
        assert rep.checked > 0


@pytest.mark.parametrize("k", [Fraction(7, 3), Fraction(-5, 2)])
def test_relations_truncated(k):
    rep = check_relations(build_module("truncated", k, Fraction(1, 3), n_max=3, M=8))
    assert rep.verdict, rep.to_text()


@settings(max_examples=80, deadline=None)
@given(modules())
def test_relations_match_dense_reference(mod):
    got = check_relations(mod)
    want = dense_check_relations(mod)
    assert got.to_json() == want.to_json()
    assert got.to_text() == want.to_text()


@pytest.mark.parametrize("family, n, i", [("xp", 1, 2), ("xm", 0, 1), ("xm", 2, 3),
                                          ("xi", 0, 0), ("xi", 3, 4)])
def test_corrupted_module_fails_like_dense_reference(family, n, i):
    mod = _bump(build_module("finite", 4, Fraction(1, 2), n_max=2), family, n, i, 1)
    got = check_relations(mod)
    assert not got.verdict
    assert got.to_json() == dense_check_relations(mod).to_json()


def test_corrupted_module_report_literal():
    mod = _bump(build_module("finite", 1, 0, n_max=0), "xp", 0, 1, 1)
    rep = check_relations(mod)
    assert rep.to_text() == ("verdict: fail (8 relation instances)\n"
                             "  raising/lowering bracket m=0 n=0 col=0: 2 != 1")
    assert rep.to_json() == {
        "verdict": "fail", "checked": 8, "note": "finite k=1 x=0 dim=2",
        "failures": [{"relation": "raising/lowering bracket", "m": 0, "n": 0,
                      "column": 0, "lhs": "2", "rhs": "1"}]}


def test_corrupted_module_report_literal_spans_every_family():
    # h_0, one raising and one lowering band corrupted at once: failures in
    # every relation that can fail, in both signs and at several (m, n), so
    # the order in which instances are checked is pinned
    mod = build_module("finite", 2, 0, n_max=2)
    for family, n, i in (("xi", 0, 0), ("xp", 3, 2), ("xm", 3, 1)):
        mod = _bump(mod, family, n, i, 1)
    rep = check_relations(mod)
    sides = [("raising/lowering bracket", 0, 0, 0, "2", "3"),
             ("weight grading (+)", 0, 0, 1, "3", "2"),
             ("weight grading (-)", 0, 0, 0, "-6", "-4"),
             ("Cartan-Drinfeld (+)", 0, 0, 1, "2", "3"),
             ("Cartan-Drinfeld (+)", 0, 2, 2, "-4", "-2"),
             ("same-sign Drinfeld (+)", 0, 2, 2, "0", "1"),
             ("Cartan-Drinfeld (+)", 1, 2, 2, "4", "0"),
             ("same-sign Drinfeld (+)", 2, 0, 2, "0", "1"),
             ("Cartan-Drinfeld (+)", 2, 2, 2, "-4", "0"),
             ("Cartan-Drinfeld (-)", 0, 0, 0, "-4", "-6"),
             ("Cartan-Drinfeld (-)", 0, 2, 1, "6", "4"),
             ("same-sign Drinfeld (-)", 0, 2, 0, "-2", "-4"),
             ("Cartan-Drinfeld (-)", 1, 2, 1, "-4", "0"),
             ("same-sign Drinfeld (-)", 2, 0, 0, "-2", "-4"),
             ("Cartan-Drinfeld (-)", 2, 2, 1, "4", "0")]
    assert rep.to_text() == "\n".join(
        ["verdict: fail (60 relation instances)"]
        + [f"  {r} m={m} n={n} col={c}: {a} != {b}" for r, m, n, c, a, b in sides])
    assert rep.to_json() == {
        "verdict": "fail", "checked": 60, "note": "finite k=2 x=0 dim=3",
        "failures": [{"relation": r, "m": m, "n": n, "column": c, "lhs": a, "rhs": b}
                     for r, m, n, c, a, b in sides]}


@pytest.mark.parametrize("mod", [build_module("finite", 3, Fraction(1, 2), n_max=2),
                                 build_module("truncated", Fraction(7, 3), Fraction(1, 3),
                                              n_max=2, M=6)])
def test_every_relation_but_c1_can_fail(mod):
    # (C1) compares diagonal bands, which always commute, so no corruption
    # can make it fail; every other relation fails under some one-entry bump
    failed = set()
    for family in ("xp", "xm", "xi"):
        for n in range(len(getattr(mod, family))):
            for i in range(mod.dim):
                for delta in (1, -1):
                    rep = check_relations(_bump(mod, family, n, i, delta))
                    failed.update(f["relation"] for f in rep.to_json()["failures"])
    assert failed == {"raising/lowering bracket", "weight grading (+)", "weight grading (-)",
                      "Cartan-Drinfeld (+)", "Cartan-Drinfeld (-)",
                      "same-sign Drinfeld (+)", "same-sign Drinfeld (-)"}


def test_report_over_a_larger_den_prints_reduced_values():
    # den = 3^3 * 7 after the bump, so each side is over 189^2 = 35721, far
    # above any reduced denominator below; every value still prints reduced
    mod = _bump(build_module("finite", 2, Fraction(1, 3), n_max=1), "xp", 0, 1, Fraction(1, 7))
    assert mod.den == 189
    rep = check_relations(mod)
    sides = [("raising/lowering bracket", 0, 0, 0, "16/7", "2"),
             ("raising/lowering bracket", 0, 1, 0, "-16/21", "-2/3"),
             ("Cartan-Drinfeld (+)", 0, 0, 1, "46/21", "16/7"),
             ("same-sign Drinfeld (+)", 0, 0, 2, "50/21", "16/7"),
             ("same-sign Drinfeld (+)", 0, 1, 2, "-121/63", "-13/7"),
             ("Cartan-Drinfeld (+)", 1, 0, 1, "-28/9", "-64/21"),
             ("same-sign Drinfeld (+)", 1, 0, 2, "-121/63", "-13/7")]
    assert rep.to_text() == "\n".join(
        ["verdict: fail (28 relation instances)"]
        + [f"  {r} m={m} n={n} col={c}: {a} != {b}" for r, m, n, c, a, b in sides])
    assert rep.to_json() == {
        "verdict": "fail", "checked": 28, "note": "finite k=2 x=1/3 dim=3",
        "failures": [{"relation": r, "m": m, "n": n, "column": c, "lhs": a, "rhs": b}
                     for r, m, n, c, a, b in sides]}
    assert rep.to_json() == dense_check_relations(mod).to_json()


@pytest.mark.parametrize("args", [("finite", 4, Fraction(1, 3), 2, None),
                                  ("truncated", Fraction(7, 3), Fraction(1, 2), 2, 8)])
def test_check_relations_reads_bands_as_stored(monkeypatch, args):
    # the bands are ints over mod.den already: the check lifts nothing
    mod = build_module(*args)
    calls = []
    real = sl2_explicit._lift
    monkeypatch.setattr(sl2_explicit, "_lift", lambda *a: calls.append(a) or real(*a))
    rep = check_relations(mod)
    assert rep.verdict and rep.checked == relation_instances(2)
    assert calls == []


def test_check_footprint_stays_near_the_module_size():
    # the check holds products for two mode rows at a time, not every product
    # of two modes: at mode bound 40 its peak allocation stays within a small
    # multiple of the stored bands (a memo of every product and commutator
    # peaked at about 250 times)
    mod = build_module("finite", 2, Fraction(1, 1000000007), n_max=40)
    held = sum(sys.getsizeof(b) + sum(map(sys.getsizeof, b))
               for family in (mod.xp, mod.xm, mod.xi) for b in family)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = check_relations(mod)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.verdict and rep.checked == relation_instances(40)
    assert peak <= 8 * held, (peak, held)


# -- character extraction ----------------------------------------------------

@pytest.mark.parametrize("k", range(5))
def test_extraction_matches_closed_form(k):
    for x in (Fraction(0), Fraction(-3, 2)):
        got = extract_qchar("finite", k, x, n_max=1)
        assert compare_characters(got, sl2_kr_char(k, x)).verdict


@pytest.mark.parametrize("k, x, M", [("7/3", "1/2", 8), ("-5/2", "1/3", 5), ("0", "-3/4", 4),
                                     ("7/1000000007", "1/999999937", 6)])
def test_truncated_extraction_matches_stabilized_engine(k, x, M):
    k, x = Fraction(k), Fraction(x)
    got = extract_qchar("truncated", k, x, n_max=0, M=M)
    assert got.height_bound == M - 1
    want = asymptotic_char(A1, 1, x + k, x, M - 1)
    assert compare_characters(got, want).verdict


def test_extraction_detects_inconsistent_eigenvalues(monkeypatch):
    real = sl2_explicit._xi_series

    def corrupted(n, i, delta):
        # the module's series with the mode-n entry S[n+1] of v_i moved by delta
        def series(*a):
            for j, S in enumerate(real(*a)):
                yield [v + delta * (j == i and m == n + 1) for m, v in enumerate(S)]
        return series

    small = ("finite", 1, 0, 0)
    mod = ("finite", 4, Fraction(1, 3), 2)
    last, top = 4, 4        # dim 5; 2 n_max + 1 = 5 Cartan modes
    # (module, Cartan mode, basis vector, bump): the first vector, the last
    # vector and the top mode, by +1 and -1 in the int series
    for args, n, i, delta in ((small, 0, 1, 1), (mod, 0, last, 1), (mod, top, 0, 1),
                              (mod, top, last, -1), (mod, 1, 2, -1)):
        monkeypatch.setattr(sl2_explicit, "_xi_series", corrupted(n, i, delta))
        with pytest.raises(ValueError,
                           match=f"eigenvalue series of v_{i} does not match its ledger chain"):
            extract_qchar(*args)
    monkeypatch.setattr(sl2_explicit, "_xi_series", real)
    assert len(extract_qchar(*mod).terms) == 5


def test_extraction_checks_the_engine_row(monkeypatch):
    # Extraction steps its predicted series by the engine's A_1 row, so a
    # wrong row (here its inverse) is caught at v_1, in the API and the CLI.
    real = sl2_explicit.expand_A_to_Psi
    monkeypatch.setattr(sl2_explicit, "expand_A_to_Psi", lambda *a: real(*a) ** -1)
    with pytest.raises(ValueError, match="eigenvalue series of v_1 does not match its ledger chain"):
        extract_qchar("finite", 3, Fraction(1, 3))
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(["rep-check", "qchar", "--kind", "finite", "--k", "3", "--x", "1/3"],
                        out, err)
    assert code == 2
    assert "eigenvalue series of v_1 does not match its ledger chain" in err.getvalue()


def test_extraction_reads_the_engine_row_once(monkeypatch):
    # one A_1 row per module, however many vectors it has
    calls = []
    real = sl2_explicit.expand_A_to_Psi
    monkeypatch.setattr(sl2_explicit, "expand_A_to_Psi", lambda *a: calls.append(a) or real(*a))
    extract_qchar("truncated", Fraction(7, 3), Fraction(1, 2), n_max=1, M=8)
    assert len(calls) == 1


def test_extraction_decodes_no_site(monkeypatch):
    # A_{1,x}'s offsets are read off its sites: no site is read back to a Coord,
    # finite, truncated or in the three-term sides.  Each runs once first, so
    # that the site memo holds the coordinates of its tops.
    runs = [lambda: extract_qchar("finite", 3, Fraction(1, 3)),
            lambda: extract_qchar("truncated", Fraction(7, 3), Fraction(1, 2), n_max=1, M=8),
            lambda: three_term_sides(Fraction(1, 2), Fraction(-1, 3), 6, 3)]
    want = [run() for run in runs]
    counts, real_init, real_unsite = Counter(), Coord.__init__, monomials._unsite
    monkeypatch.setattr(Coord, "__init__", lambda self, *a, **kw: counts.update(
        ("Coord",)) or real_init(self, *a, **kw))
    monkeypatch.setattr(monomials, "_unsite", lambda s: counts.update(("_unsite",))
                        or real_unsite(s))
    assert [run() for run in runs] == want
    assert counts == Counter()


def reference_extract(mod):
    """The character of ``mod`` with no lifted ints and no lane step: the
    chain of v_i is the sites _site(1, x + j), j < i, and its predicted
    eigenvalue series reads the engine's A_1 row at each x + j, in Fraction
    arithmetic."""
    x, k, order = mod.x, mod.k, len(mod.xi)
    factors = [(x + k, 1), (x, -1)]
    terms = {}
    for i in range(mod.dim):
        want = reference_series(factors, order)
        assert [band[i] for band in _view(mod, "xi")] == want[1:], f"v_{i}"
        terms[AVector(tuple(_site(1, x + j) for j in range(i)), canonical=True)] = 1
        factors += [(z.rat, -e) for (_, z), e in expand_A_to_Psi(A1, 1, x + i).items()]
    top = PsiMonomial.gen(1, x + k) * PsiMonomial.gen(1, x, -1)
    return TruncatedCharacter.make(top, terms, None if mod.kind == "finite" else mod.dim - 1)


@settings(max_examples=120, deadline=None)
@given(WIDE, WIDE, st.booleans(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=0, max_value=1), st.integers(min_value=3, max_value=8))
@example(Fraction(-10 ** 30 + 1, 1000000007), Fraction(10 ** 30 - 7, 999999937), False, 0, 1, 8)
@example(Fraction(-10 ** 30 - 3, 7), Fraction(0), True, 4, 1, 3)
@example(Fraction(-999999936, 999999937), Fraction(5, 1000000007), False, 0, 0, 5)
def test_extraction_matches_the_site_reference(x, k, finite, k_int, n_max, M):
    if finite:
        mod = build_module("finite", k_int, x, n_max=n_max)
    else:
        mod = build_module("truncated", k, x, n_max=n_max, M=M)
    got = extract_qchar(mod.kind, mod.k, x, n_max, None if finite else M)
    want = reference_extract(mod)
    assert (got.top, got.terms, got.height_bound) == (want.top, want.terms, want.height_bound)


def test_per_module_work_does_not_grow_with_dim(monkeypatch):
    # x, k and the A_1 row are lifted once per module and x's site is read
    # once: no _lift or _site call per basis vector
    counts = Counter()
    for name in ("_site", "_lift"):
        real = getattr(sl2_explicit, name)
        monkeypatch.setattr(sl2_explicit, name,
                            lambda *a, real=real, name=name: counts.update((name,)) or real(*a))
    seen = []
    for M in (8, 20):
        counts.clear()
        mod = build_module("truncated", Fraction(7, 3), Fraction(1, 2), n_max=1, M=M)
        built = dict(counts)
        counts.clear()
        extract_qchar("truncated", Fraction(7, 3), Fraction(1, 2), n_max=1, M=M)
        seen.append((built, dict(counts)))
    assert seen[0] == seen[1]
    built, extracted = seen[0]
    assert built == {"_lift": 2}
    assert extracted["_site"] == 1


def test_each_series_runs_exactly_dim_steps(monkeypatch):
    # one _series_times step before each basis vector, none past the last:
    # building steps the module's series, extraction that series and the
    # predicted one, each exactly dim times
    calls = []
    real = sl2_explicit._series_times
    monkeypatch.setattr(sl2_explicit, "_series_times",
                        lambda *a: calls.append(a) or real(*a))
    for M in (8, 20):
        calls.clear()
        mod = build_module("truncated", Fraction(7, 3), Fraction(1, 2), n_max=1, M=M)
        assert len(calls) == mod.dim == M
        calls.clear()
        extract_qchar("truncated", Fraction(7, 3), Fraction(1, 2), n_max=1, M=M)
        assert len(calls) == 2 * M


# -- three-term sum of modules ----------------------------------------------

def test_three_term_examples():
    for x, y in ((Fraction(2), Fraction(0)), (Fraction(-1, 2), Fraction(3)),
                 (Fraction(0), Fraction(0))):
        rep = verify_sl2_three_term(x, y, 8, 3)
        assert rep.verdict, rep.to_text()


@settings(max_examples=40, deadline=None)
@given(WIDE, WIDE)
@example(Fraction(-10 ** 30 + 1, 1000000007), Fraction(10 ** 30 - 7, 999999937))
def test_three_term_at_wide_coordinates(x, y):
    rep = verify_sl2_three_term(x, y, 8, 3)
    assert rep.verdict, rep.to_text()


def test_extraction_builds_no_module(monkeypatch):
    # the three-term check and the rep-check qchar leaf read characters off
    # the Cartan action alone; the relations leaf still builds its module
    calls = []
    real = sl2_explicit.build_module
    monkeypatch.setattr(sl2_explicit, "build_module", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    monkeypatch.setattr(cli, "build_module", sl2_explicit.build_module)
    assert sl2_explicit.three_term_sides(2, 0, 8, 3)[0].terms
    assert verify_sl2_three_term(Fraction(1, 3), Fraction(-2, 5), 6, 4).verdict
    for kind in ("finite", "truncated"):
        code, out, err = _dispatch(["rep-check", "qchar", "--kind", kind, "--k", "3", "--M", "6"])
        assert (code, err) == (0, "") and out.startswith("top: ")
    assert calls == []
    assert _dispatch(["rep-check", "relations", "--k", "3"])[0] == 0
    assert len(calls) == 1


def _dispatch(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


def test_three_term_bound_guard():
    for bound in (4, -1, -5):
        with pytest.raises(ValueError, match=r"need 0 <= bound <= M - 2"):
            verify_sl2_three_term(2, 0, 5, bound)
    assert verify_sl2_three_term(2, 0, 5, 0).verdict
    assert verify_sl2_three_term(2, 0, 5, 3).verdict


def test_relation_instances_counts_the_checks():
    for n in range(4):
        mod = build_module("finite", 2, 0, n_max=n)
        assert check_relations(mod).checked == relation_instances(n)


def test_check_relations_respects_term_budget():
    # dim 3, n_max 0: 8 relation instances, 24 units of work
    mod = build_module("finite", 2, 0, n_max=0)
    assert check_relations(mod, config=EngineConfig(term_budget=24)).verdict
    with pytest.raises(EngineError, match="8 relation instances on dimension 3"):
        check_relations(mod, config=EngineConfig(term_budget=23))
