"""Acceptance gate: thirteen end-to-end criteria, exact equality throughout.

Each test prints one ``[acceptance] criterion N: PASS/FAIL`` line (visible
under ``pytest -s``) and enforces its wall-clock budget.
"""
import random
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

from yqchar.cartan import LieType, Weight, build_cartan
from yqchar.coords import coord
from yqchar.monomials import (
    AVector, YMonomial, avector_to_psi, avector_to_y, expand_A_to_Psi,
    weight_projection, y_to_psi,
)
from yqchar.characters import (
    asymptotic_char, char_mul, compare_characters, fm_expand, kr_top_y,
    sl2_kr_char, stabilize,
)
from yqchar.identities import (
    check_demazure_support, check_kr_skeleton, check_m_support,
    tq_regime, verify_multiplicative_tq, verify_tq, verify_tsystem, verify_two_term,
)
from yqchar.sl2_explicit import (
    build_module, check_relations, extract_qchar, three_term_sides, verify_sl2_three_term,
)
from yqchar.textio import format_monomial

from test_characters import _stabilize_by_search

A1 = build_cartan(LieType.parse("A1"))
A2 = build_cartan(LieType.parse("A2"))
B2 = build_cartan(LieType.parse("B2"))
G2 = build_cartan(LieType.parse("G2"))

ALL_RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                 "C2", "C3", "C4", "D4", "F4", "G2"]


@contextmanager
def criterion(num, desc, budget):
    t0 = perf_counter()
    ok = False
    try:
        yield
        ok = True
    finally:
        elapsed = perf_counter() - t0
        in_time = elapsed <= budget
        status = "PASS" if ok and in_time else "FAIL"
        print(f"[acceptance] criterion {num:2d}: {status} "
              f"({elapsed:.2f}s / budget {budget}s) - {desc}")
        if ok and not in_time:
            raise AssertionError(f"criterion {num} exceeded {budget}s ({elapsed:.2f}s)")


def test_criterion_01_rank_two_fundamental_display():
    with criterion(1, "A2 node-1 fundamental character: exact three-term display", 1):
        ch = fm_expand(A2, kr_top_y(A2, 1, 1, 0))
        got = [format_monomial(m) for m, c in ch.psi_terms(A2) if c == 1]
        assert ch.dimension() == 3
        assert sorted(got) == sorted([
            "Psi[1,0]^-1 Psi[1,1]",
            "Psi[1,-1] Psi[1,0]^-1 Psi[2,-1/2]^-1 Psi[2,1/2]",
            "Psi[2,-3/2] Psi[2,-1/2]^-1"])


def test_criterion_02_engine_vs_rank_one_oracle():
    with criterion(2, "engine equals rank-one closed form, k <= 6, 5 random bases", 5):
        for seed in range(5):
            rng = random.Random(seed)
            x = Fraction(rng.randrange(-20, 20), rng.randrange(1, 6))
            for k in range(7):
                got = fm_expand(A1, kr_top_y(A1, 1, k, x))
                assert compare_characters(got, sl2_kr_char(k, x)).verdict


TSYSTEM_CASES = (
    [("A1", 1, k, t) for k in (1, 2, 3) for t in (0, 1, 2)]
    + [(n, i, k, t) for n in ("A2", "B2") for i in (1, 2)
       for k in (1, 2) for t in (0, 1)]
    + [("G2", i, 1, t) for i in (1, 2) for t in (0, 1)]
)


def test_criterion_03_untruncated_tsystem():
    with criterion(3, "untruncated kernel identity across A1/A2/B2/G2", 120):
        for name, i, k, t in TSYSTEM_CASES:
            rep = verify_tsystem(build_cartan(LieType.parse(name)), i, k, t)
            assert rep.verdict, rep.to_text()


def test_criterion_04_expansion_triangle():
    with criterion(4, "A-to-Psi equals A-to-Y-to-Psi at a symbolic base, rank <= 4", 5):
        for name in ALL_RANK_LE_4:
            ct = build_cartan(LieType.parse(name))
            for i in ct.nodes:
                v = AVector.gen(i, "x")
                assert avector_to_psi(ct, v) == y_to_psi(ct, avector_to_y(ct, v))


def test_criterion_05_weight_projection():
    with criterion(5, "projection sends root factors to alpha_i and Y's to varpi_i", 5):
        for name in ALL_RANK_LE_4:
            ct = build_cartan(LieType.parse(name))
            for i in ct.nodes:
                assert weight_projection(ct, expand_A_to_Psi(ct, i, "x")) \
                    == Weight.simple_root(ct, i)
                assert weight_projection(ct, y_to_psi(ct, YMonomial.gen(i, "x"))) \
                    == Weight.fundamental(ct, i)


def test_criterion_06_stabilization():
    with criterion(6, "normalized truncations stabilize with index N (N <= 4)", 120):
        for name in ("A1", "A2", "B2"):
            ct = build_cartan(LieType.parse(name))
            for i in ct.nodes:
                for N in range(5):
                    at_n = fm_expand(ct, kr_top_y(ct, i, N, 0), N).terms
                    at_n1 = fm_expand(ct, kr_top_y(ct, i, N + 1, 0), N).terms
                    assert at_n == at_n1 == stabilize(ct, i, 0, N).terms, (name, i, N)
                    _, idx = _stabilize_by_search(ct, i, 0, N)
                    assert idx == N, (name, i, N, idx)


def test_criterion_07_kr_skeleton():
    with criterion(7, "KR ledger skeleton in A2/B2/G2 for k <= 3", 120):
        for name in ("A2", "B2", "G2"):
            ct = build_cartan(LieType.parse(name))
            for i in ct.nodes:
                for k in (1, 2, 3):
                    rep = check_kr_skeleton(ct, i, k, 0)
                    assert rep.verdict, rep.to_text()


TQ_CASES = ((A1, 1), (A2, 1), (B2, 1), (B2, 2))


def test_criterion_08_three_term_tq():
    with criterion(8, "three-term identity: both routes vs product form at k = 6 "
                      "and k = 12, inside the TQ regime", 300):
        for ct, i in TQ_CASES:
            for k in (6, 12):
                assert k >= tq_regime(ct, i, 3), (ct.lie_type, i, k)
                rep = verify_tq(ct, i, k, 0, 3)
                assert rep.verdict, rep.to_text()


def test_criterion_09_two_term_exchange():
    with criterion(9, "two-term exchange at N = 3: rank one fully symbolic, G2 node 1", 30):
        assert verify_two_term(A1, 1, "a", "b", "x", "y", 3).verdict
        assert verify_two_term(G2, 1, "a", "b", "x", "y", 3).verdict


def test_criterion_10_explicit_relations_and_characters():
    with criterion(10, "explicit rank-one matrices satisfy the defining relations "
                       "and reproduce the oracle characters", 60):
        for seed in range(3):
            rng = random.Random(100 + seed)
            x = Fraction(rng.randrange(-10, 10), rng.randrange(1, 5))
            for k in range(5):
                mod = build_module("finite", k, x, n_max=3)
                assert check_relations(mod).verdict
                assert compare_characters(extract_qchar("finite", k, x, n_max=3),
                                          sl2_kr_char(k, x)).verdict
            for k in (Fraction(7, 3), Fraction(-5, 2)):
                mod = build_module("truncated", k, x, n_max=3, M=8)
                assert check_relations(mod).verdict
                got = extract_qchar("truncated", k, x, n_max=3, M=8)
                want = asymptotic_char(A1, 1, x + k, x, 7)
                assert compare_characters(got, want).verdict


def test_criterion_11_explicit_vs_symbolic_three_term():
    with criterion(11, "matrix-extracted three-term sum equals the symbolic "
                       "engine term for term at N = 3", 30):
        x, y, N, M = Fraction(2), Fraction(0), 3, 8
        rep = verify_sl2_three_term(x, y, M, N)
        assert rep.verdict, rep.to_text()
        lhs, rhs = three_term_sides(x, y, M, N)
        sym_lhs = char_mul(fm_expand(A1, kr_top_y(A1, 1, 1, x), N),
                           asymptotic_char(A1, 1, x, y, N))
        assert compare_characters(lhs, sym_lhs).verdict
        assert compare_characters(rhs, sym_lhs).verdict


def test_criterion_12_support_scans():
    with criterion(12, "kernel- and finite-factor support constraints on the "
                       "criterion-3 and criterion-8 characters", 120):
        for name, i, k, t in TSYSTEM_CASES:
            if t != 1:
                continue
            rep = check_demazure_support(build_cartan(LieType.parse(name)), i, k, 0, 3)
            assert rep.verdict, rep.to_text()
        for ct, i in TQ_CASES:
            for k in (6, 12):
                rep = check_m_support(ct, i, k, 0, 3)
                assert rep.verdict, rep.to_text()


def test_criterion_13_multiplicative_translation():
    with criterion(13, "rank-two three-term instance translates to the "
                       "multiplicative display verbatim", 30):
        rep = verify_multiplicative_tq(A2, 1, coord("x"), coord("y"), coord("k"))
        assert rep.verdict, rep.to_text()
