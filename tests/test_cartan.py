"""Cartan data and symmetrizers."""
from fractions import Fraction

import pytest

from yqchar.cartan import CartanData, LieType, build_cartan

ALL_RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                 "C2", "C3", "C4", "D4", "F4", "G2"]


def test_parse_and_legality():
    assert LieType.parse("g2") == LieType("G", 2)
    with pytest.raises(ValueError):
        LieType.parse("Z9")
    with pytest.raises(ValueError):
        LieType("E", 9)
    with pytest.raises(ValueError):
        LieType("B", 1)


def test_node_range_is_checked():
    ct = build_cartan(LieType.parse("A2"))
    assert [ct.check_node(i) for i in ct.nodes] == [0, 1]
    for bad in (0, -1, 3):
        with pytest.raises(ValueError, match="out of range 1..2 for A2"):
            ct.check_node(bad)
        for access in (lambda: ct.di(bad), lambda: ct.cij(1, bad), lambda: ct.neighbours(bad)):
            with pytest.raises(ValueError):
                access()


def test_d3_is_rejected_with_pointer_to_a3():
    with pytest.raises(ValueError, match="A3"):
        LieType("D", 3)


@pytest.mark.parametrize("name", ALL_RANK_LE_4)
def test_symmetrization_identity(name):
    ct = build_cartan(LieType.parse(name))
    ct.validate()
    for i in ct.nodes:
        for j in ct.nodes:
            assert ct.di(i) * ct.cij(i, j) == ct.di(j) * ct.cij(j, i)
    # d_ij = d_i c_ij / 2 at each neighbour, and the neighbour relation and
    # d_ij are symmetric
    dij = {(i, j): d for i in ct.nodes for j, _, d in ct.neighbours(i)}
    assert dij == {(i, j): ct.di(i) * ct.cij(i, j) / 2 for i in ct.nodes for j in ct.nodes
                   if i != j and ct.cij(i, j)}
    assert all(dij[j, i] == d for (i, j), d in dij.items())


def test_g2_data():
    ct = build_cartan(LieType.parse("G2"))
    assert ct.c == ((2, -3), (-1, 2))
    assert ct.d == (1, 3)
    assert ct.neighbours(1) == ((2, -3, Fraction(-3, 2)),)
    assert ct.neighbours(2) == ((1, -1, Fraction(-3, 2)),)


def test_b2_c2_f4_data():
    b2 = build_cartan(LieType.parse("B2"))
    assert b2.c == ((2, -1), (-2, 2)) and b2.d == (2, 1)
    c2 = build_cartan(LieType.parse("C2"))
    assert c2.c == ((2, -2), (-1, 2)) and c2.d == (1, 2)
    f4 = build_cartan(LieType.parse("F4"))
    assert f4.d == (2, 2, 1, 1)
    assert f4.cij(2, 3) == -1 and f4.cij(3, 2) == -2


# Every legal type: A1-A32, B2-B32, C2-C32, D4-D32, E6-E8, F4 and G2.
LEGAL = ([("A", r) for r in range(1, 33)] + [(s, r) for s in "BC" for r in range(2, 33)]
         + [("D", r) for r in range(4, 33)] + [("E", r) for r in (6, 7, 8)]
         + [("F", 4), ("G", 2)])


def _bourbaki(s, r):
    """C and d of a type, written out per series: the bonds (i, j, c_ij, c_ji)
    of its Dynkin diagram and the symmetrizers, node r last."""
    path = [(i, i + 1, -1, -1) for i in range(1, r - 1)]
    bonds, d = {
        "A": (path + [(r - 1, r, -1, -1)] * (r > 1), [1] * r),
        "B": (path + [(r - 1, r, -1, -2)], [2] * (r - 1) + [1]),
        "C": (path + [(r - 1, r, -2, -1)], [1] * (r - 1) + [2]),
        "D": (path[:-1] + [(r - 2, r - 1, -1, -1), (r - 2, r, -1, -1)], [1] * r),
        "E": ([(1, 3, -1, -1), (2, 4, -1, -1)] + path[2:] + [(r - 1, r, -1, -1)], [1] * r),
        "F": ([(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)], [2, 2, 1, 1]),
        "G": ([(1, 2, -3, -1)], [1, 3]),
    }[s]
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    for i, j, cij, cji in bonds:
        c[i - 1][j - 1], c[j - 1][i - 1] = cij, cji
    return tuple(map(tuple, c)), tuple(d)


def test_every_legal_type_solves_the_bourbaki_symmetrizers():
    assert len(LEGAL) == 128
    for s, r in LEGAL:
        ct = build_cartan(LieType(s, r))
        assert (ct.c, ct.d) == _bourbaki(s, r), f"{s}{r}"
        assert all(type(di) is int for di in ct.d), f"{s}{r}"


# Every node of A1-A8, B2-B8, C2-C8, D4-D8, E6-E8, F4 and G2.
TABLED = ([f"A{r}" for r in range(1, 9)] + [f"{s}{r}" for s in "BC" for r in range(2, 9)]
          + [f"D{r}" for r in range(4, 9)] + ["E6", "E7", "E8", "F4", "G2"])


@pytest.mark.parametrize("name", TABLED)
def test_per_type_tables_equal_their_definitions(name):
    ct = build_cartan(LieType.parse(name))
    for i in ct.nodes:
        row = ct.c[i - 1]
        nb = tuple((j, c, Fraction(c * ct.d[i - 1], 2)) for j, c in enumerate(row, 1) if c < 0)
        assert ct.neighbours(i) == nb and ct.neighbours(i) is ct.neighbours(i)
        assert all(type(dij) is Fraction for _, _, dij in ct.neighbours(i))
        assert ct.di(i) == Fraction(ct.d[i - 1]) and type(ct.di(i)) is Fraction
    assert hash(ct) == hash((ct.lie_type, ct.c, ct.d))
    # equal data built apart is equal and hashes equal
    twin = CartanData(ct.lie_type, ct.c, ct.d)
    assert twin == ct and hash(twin) == hash(ct) and twin.neighbours(1) == ct.neighbours(1)


def test_b2_and_c2_data_stay_apart():
    b2, c2 = build_cartan(LieType.parse("B2")), build_cartan(LieType.parse("C2"))
    assert b2 != c2 and len({b2, c2}) == 2
    assert [b2.neighbours(i) for i in b2.nodes] != [c2.neighbours(i) for i in c2.nodes]
    assert [b2.di(i) for i in b2.nodes] == [2, 1] and [c2.di(i) for i in c2.nodes] == [1, 2]
