"""Type-A KR characters and stabilized characters from semistandard tableaux,
with no ``fm_expand``.

W^(i)_{k,x} of Y(sl_{n+1}) is an evaluation module of the i x k rectangle, and
its q-character is a sum over the semistandard tableaux of that shape with
entries 1 .. n+1 (Nazarov-Tarasov, q-alg/9502008; Frenkel-Reshetikhin,
math/9810055).  In this engine's conventions a box of entry a at u is

    box_a(u) = Y_{a-1,u-a/2}^-1 Y_{a,u-(a-1)/2},    Y_0 = Y_{n+1} = 1,

and the box in row r, column c (both from 0) of the i x k rectangle sits at
u = x + 1/2 - (i-1)/2 + (k-1) - c + r.  The highest tableau (row r all r+1)
telescopes column by column to the KR string Y_{i,x+1/2} ... Y_{i,x+k-1/2}.

Since box_a(u) = box_1(u) prod_{b<a} A^-1_{b,u-b/2}, a box of entry a in row r
adds A^-1_{b,u-b/2} for b = r+1 .. a-1 to its tableau's ledger, and the height
of a tableau is the sum of a - (r+1) over its boxes.  A box that deviates from
the highest tableau pushes every box to its right to deviate too, so at height
<= N only the N right columns deviate.  Counted from the right end, c' = k-1-c,
a box sits at u = x + 1/2 - (i-1)/2 + c' + r, which does not depend on k: the
truncation at height N is the same for every k >= N.  That gives the
stabilized character, and with it the right side of the TQ relation, from
tableaux alone.
"""
from collections import Counter
from fractions import Fraction

import pytest

from yqchar.cartan import LieType, build_cartan
from yqchar.characters import (
    TruncatedCharacter, char_mul, fm_expand, kr_top_y, m_weight, stabilize,
)
from yqchar.coords import coord
from yqchar.identities import tq_lhs_direct, tq_regime
from yqchar.monomials import AVector, PsiMonomial, YMonomial, avector_to_y, psi_to_y

XS = ("0", "-7/3", "1/3", "x")
CARTAN = {n: build_cartan(LieType.parse(f"A{n}")) for n in range(1, 9)}


def tableaux(rows: int, cols: int, top: int, bound: int | None = None) -> list:
    """The semistandard tableaux of the rows x cols rectangle with entries 1 .. top,
    each a tuple of rows; given a bound, only those of height at most bound.
    Filled row by row; the entry of box (r, c) is at least its left neighbour's and
    above its upper neighbour's, and leaves room for the rows below it."""
    out, grid = [], [[0] * cols for _ in range(rows)]

    def fill(cell, height):
        if cell == rows * cols:
            out.append(tuple(map(tuple, grid)))
            return
        r, c = divmod(cell, cols)
        lo = max(grid[r][c - 1] if c else 1, grid[r - 1][c] + 1 if r else 1)
        for a in range(lo, top - rows + r + 2):
            if bound is not None and height + a - r - 1 > bound:
                break
            grid[r][c] = a
            fill(cell + 1, height + a - r - 1)

    fill(0, 0)
    return out


def box_u(x, i: int, k: int, r: int, c: int):
    """The spectral coordinate of box (r, c) of the i x k rectangle at x."""
    return coord(x) + Fraction(1, 2) - Fraction(i - 1, 2) + (k - 1) - c + r


def box_y(n: int, a: int, u) -> list:
    """box_a(u) = Y_{a-1,u-a/2}^-1 Y_{a,u-(a-1)/2} as ((node, coordinate), exponent)
    pairs, with Y_0 = Y_{n+1} = 1."""
    out = [((a - 1, u - Fraction(a, 2)), -1)] if a > 1 else []
    return out + ([((a, u - Fraction(a - 1, 2)), 1)] if a <= n else [])


def tableau_y(n: int, t: tuple, x) -> YMonomial:
    """The Y-monomial of the tableau ``t`` of Y(sl_{n+1}) at x: its boxes' product."""
    i, k = len(t), len(t[0])
    return YMonomial([f for r, row in enumerate(t) for c, a in enumerate(row)
                      for f in box_y(n, a, box_u(x, i, k, r, c))])


def tableau_character(n: int, i: int, k: int, x) -> Counter:
    """{Y-monomial: multiplicity} of W^(i)_{k,x} of Y(sl_{n+1}), one per tableau."""
    return Counter(tableau_y(n, t, x) for t in tableaux(i, k, n + 1))


def engine_character(cartan, i: int, k: int, x) -> Counter:
    """{Y-monomial: multiplicity} of the complete ``fm_expand`` character."""
    ch = fm_expand(cartan, kr_top_y(cartan, i, k, x))
    assert ch.height_bound is None
    top = psi_to_y(cartan, ch.top)
    out = Counter()
    for v, c in ch.terms:
        out[top * avector_to_y(cartan, v)] += c
    return out


def right_anchored(n: int, i: int, x, N: int, cols: int | None = None) -> dict:
    """{ledger: multiplicity} at height <= N of the i x cols rectangle (cols = N by
    default), each box placed by its column counted from the right end."""
    cols = N if cols is None else cols
    u = [[box_u(x, i, cols, r, c) for c in range(cols)] for r in range(i)]
    out = Counter()
    for t in tableaux(i, cols, n + 1, N):
        out[AVector([((b, u[r][c] - Fraction(b, 2)), 1) for r, row in enumerate(t)
                     for c, a in enumerate(row) for b in range(r + 1, a)])] += 1
    return dict(out)


# (n, largest k): every node of A_n, every k from 1 up, at every x in XS.
KR_SWEEP = [(1, 6), (2, 4), (3, 3), (4, 2), (5, 2), (6, 1), (7, 1), (8, 1)]
KR_CASES = [(n, i, k, x) for n, kmax in KR_SWEEP for i in CARTAN[n].nodes
            for k in range(1, kmax + 1) for x in XS]
# (n, largest N): every node of A_n, every height N from 1 up, at x = 0, -7/3 and x.
STABLE_SWEEP = [(1, 10), (2, 6), (3, 4), (4, 3), (5, 3), (6, 2), (7, 2)]
STABLE_CASES = [(n, i, N, x) for n, Nmax in STABLE_SWEEP for i in CARTAN[n].nodes
                for N in range(1, Nmax + 1) for x in ("0", "-7/3", "x")]
WIDE_CASES = [case for case in STABLE_CASES if case[0] <= 3]
# (n, largest N): the TQ relation at k = tq_regime(N), every node, at x = 0, -7/3 and x.
TQ_SWEEP = [(2, 6), (3, 4), (4, 3), (5, 3)]
TQ_CASES = [(n, i, N, x) for n, Nmax in TQ_SWEEP for i in CARTAN[n].nodes
            for N in range(1, Nmax + 1) for x in ("0", "-7/3", "x")]


def test_the_sweeps_have_their_sizes():
    sizes = len(KR_CASES), len(STABLE_CASES), len(WIDE_CASES), len(TQ_CASES)
    assert sizes == (248, 261, 102, 153)


def test_tableaux_count_the_rectangle_dimensions():
    # the 2 x 2 rectangle of gl_4, Lambda^3 of gl_7, the 2 x 3 rectangle of gl_3
    # (Sym^3 of the dual) and Sym^6 of gl_2
    shapes = (2, 2, 4), (3, 1, 7), (2, 3, 3), (1, 6, 2)
    assert [len(tableaux(*shape)) for shape in shapes] == [20, 35, 10, 7]
    assert tableaux(2, 2, 4, 0) == [((1, 1), (2, 2))]


def test_the_highest_tableau_is_the_kr_string():
    for n, i, k, x in [(3, 2, 3, "x"), (5, 4, 2, "-7/3"), (1, 1, 4, "1/3")]:
        highest = tuple((r + 1,) * k for r in range(i))
        assert tableau_y(n, highest, x) == kr_top_y(CARTAN[n], i, k, x)


@pytest.mark.parametrize("n, i, k, x", KR_CASES)
def test_a_complete_kr_character_is_its_tableau_sum(n, i, k, x):
    assert engine_character(CARTAN[n], i, k, x) == tableau_character(n, i, k, x)


@pytest.mark.parametrize("n, i, N, x", STABLE_CASES)
def test_a_stabilized_character_is_its_right_anchored_tableau_sum(n, i, N, x):
    assert stabilize(CARTAN[n], i, x, N).term_dict() == right_anchored(n, i, x, N)


@pytest.mark.parametrize("n, i, N, x", WIDE_CASES)
def test_the_right_anchored_sum_does_not_depend_on_k(n, i, N, x):
    # the (N+2)-column rectangle truncated at N: the same ledgers as N columns
    assert right_anchored(n, i, x, N, N + 2) == right_anchored(n, i, x, N)


@pytest.mark.parametrize("n, i, N, x", TQ_CASES)
def test_tq_right_side_from_tableaux(n, i, N, x):
    # route R1 against m-weight * (1 + A^-1_{i,x}) * prod_j (tableau ledgers at
    # x + d_ij - k d_i), the neighbours' stabilized characters with no fm_expand
    cartan = CARTAN[n]
    k = tq_regime(cartan, i, N)
    rhs = TruncatedCharacter.make(m_weight(cartan, i, k, x),
                                  {AVector.unit(): 1, AVector.gen(i, x): 1}, N)
    for j, _, dij in cartan.neighbours(i):
        ledgers = right_anchored(n, j, coord(x) + dij - k, N)
        rhs = char_mul(rhs, TruncatedCharacter.make(PsiMonomial.unit(), ledgers, N))
    lhs = tq_lhs_direct(cartan, i, k, x, N)
    assert lhs.top == rhs.top and lhs.height_bound == rhs.height_bound == N
    assert lhs.term_dict() == rhs.term_dict()
