"""Monomial calculus: expansions, conversions, projections, predicates."""
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from yqchar.cartan import LieType, Weight, build_cartan
from yqchar.coords import Coord, coord
from yqchar.monomials import (
    AVector, PsiMonomial, YMonomial,
    avector_to_psi, avector_to_y, expand_A_to_Psi, expand_A_to_Y,
    expand_Y_to_Psi, is_dominant, is_right_negative, psi_to_y,
    weight_projection, y_to_psi,
)
from yqchar.textio import format_monomial, parse_monomial

ALL_RANK_LE_4 = ["A1", "A2", "A3", "A4", "B2", "B3", "B4",
                 "C2", "C3", "C4", "D4", "F4", "G2"]

A1 = build_cartan(LieType.parse("A1"))
A2 = build_cartan(LieType.parse("A2"))
B2 = build_cartan(LieType.parse("B2"))
G2 = build_cartan(LieType.parse("G2"))


# -- canonical form and group structure -------------------------------------

def test_canonical_form_merges_and_drops_zeros():
    m = PsiMonomial.gen(1, 0) * PsiMonomial.gen(1, 0, -1)
    assert m.is_unit()
    m = PsiMonomial.gen(1, "k") * PsiMonomial.gen(1, "k", 2)
    assert m.exp(1, "k") == 3
    assert m == PsiMonomial.gen(1, "k", 3)
    assert hash(m) == hash(PsiMonomial.gen(1, "k", 3))


def test_types_do_not_mix():
    with pytest.raises(TypeError):
        PsiMonomial.gen(1, 0) * YMonomial.gen(1, 0)
    assert PsiMonomial.unit() != YMonomial.unit()


def test_immutability():
    with pytest.raises(AttributeError):
        PsiMonomial.gen(1, 0).exps = ()


def test_avector_rejects_negative_exponents():
    with pytest.raises(ValueError):
        AVector.gen(1, 0, -1)
    with pytest.raises(ValueError):
        AVector.gen(1, 0).divide(AVector.gen(1, 1))


def test_avector_height_contains_divide():
    v = AVector.gen(1, 0, 2) * AVector.gen(2, "1/2")
    assert v.height() == 3
    assert v.contains(AVector.gen(1, 0))
    assert not v.contains(AVector.gen(1, 1))
    assert v.divide(AVector.gen(1, 0)) == AVector.gen(1, 0) * AVector.gen(2, "1/2")


def test_shift_is_a_homomorphism():
    m = PsiMonomial.gen(1, 0) * PsiMonomial.gen(2, "k", -2)
    s = m.shift("1/2")
    assert s.exp(1, "1/2") == 1 and s.exp(2, "1/2+k") == -2
    assert m.shift(0) == m


# -- expansions against hand-checked displays --------------------------------

def test_a_expansion_a2():
    got = expand_A_to_Psi(A2, 1, 0)
    want = parse_monomial("Psi[1,1] /Psi[1,-1] Psi[2,-1/2] /Psi[2,1/2]")
    assert got == want


def test_a_expansion_g2_both_nodes():
    assert expand_A_to_Psi(G2, 1, "x") == parse_monomial(
        "Psi[1,1+x] /Psi[1,-1+x] Psi[2,-3/2+x] /Psi[2,3/2+x]")
    assert expand_A_to_Psi(G2, 2, "x") == parse_monomial(
        "Psi[2,3+x] /Psi[2,-3+x] Psi[1,-3/2+x] /Psi[1,3/2+x]")


def test_y_expansion_respects_node_length():
    assert expand_Y_to_Psi(B2, 1, "x") == parse_monomial("Psi[1,1+x] /Psi[1,-1+x]")
    assert expand_Y_to_Psi(B2, 2, "x") == parse_monomial("Psi[2,1/2+x] /Psi[2,-1/2+x]")


def test_a_to_y_rank_one():
    assert expand_A_to_Y(A1, 1, "x") == YMonomial.gen(1, "-1/2+x") * YMonomial.gen(1, "1/2+x")


def test_a_to_y_g2_long_node_has_three_inverse_factors():
    m = expand_A_to_Y(G2, 2, 0)
    assert m.exp(2, Fraction(-3, 2)) == 1 and m.exp(2, Fraction(3, 2)) == 1
    assert [m.exp(1, z) for z in (-1, 0, 1)] == [-1, -1, -1]


@pytest.mark.parametrize("name", ALL_RANK_LE_4)
def test_expansion_triangle_commutes(name):
    # A -> Psi directly must agree with A -> Y -> Psi, at a symbolic point.
    ct = build_cartan(LieType.parse(name))
    for i in ct.nodes:
        v = AVector.gen(i, "x")
        assert avector_to_psi(ct, v) == y_to_psi(ct, avector_to_y(ct, v))


def test_shift_commutes_with_expansion():
    for i in G2.nodes:
        assert expand_A_to_Psi(G2, i, "x").shift(2) == expand_A_to_Psi(G2, i, "2+x")
        assert expand_Y_to_Psi(G2, i, 0).shift("k") == expand_Y_to_Psi(G2, i, "k")


# -- Psi -> Y factorization --------------------------------------------------

def test_psi_to_y_inverts_y_to_psi_on_examples():
    for ct in (A1, A2, B2, G2):
        for i in ct.nodes:
            m = YMonomial.gen(i, "x", 2) * YMonomial.gen(i, coord("x") + 2 * ct.di(i), -1)
            assert psi_to_y(ct, y_to_psi(ct, m)) == m


def test_psi_to_y_rejects_non_lattice_input():
    with pytest.raises(ValueError):
        psi_to_y(A1, PsiMonomial.gen(1, 0))
    with pytest.raises(ValueError):
        psi_to_y(B2, PsiMonomial.gen(1, 0) * PsiMonomial.gen(1, 1, -1))  # step is 2


@given(st.lists(st.tuples(st.integers(min_value=1, max_value=2),
                          st.integers(min_value=-4, max_value=4),
                          st.integers(min_value=-2, max_value=2)),
                max_size=6))
def test_psi_to_y_round_trip_property(factors):
    m = YMonomial(tuple(((i, Fraction(x, 2)), e) for i, x, e in factors))
    for ct in (A2, B2):
        assert psi_to_y(ct, y_to_psi(ct, m)) == m


# -- weight projection -------------------------------------------------------

@pytest.mark.parametrize("name", ALL_RANK_LE_4)
def test_projection_sends_generators_to_lattice_generators(name):
    ct = build_cartan(LieType.parse(name))
    for i in ct.nodes:
        assert weight_projection(ct, expand_A_to_Psi(ct, i, "x")) == Weight.simple_root(ct, i)
        assert weight_projection(ct, expand_Y_to_Psi(ct, i, "x")) == Weight.fundamental(ct, i)
        assert weight_projection(ct, AVector.gen(i, "x")) == -Weight.simple_root(ct, i)


def test_projection_is_additive_and_sees_coordinates():
    m = PsiMonomial.gen(1, "x") * PsiMonomial.gen(1, 3, 2)
    (w1,) = weight_projection(A1, m).coords
    assert w1 == coord("x") + 6


# -- dominance and right-negativity -----------------------------------------

def test_dominance():
    assert is_dominant(YMonomial.unit())
    assert is_dominant(YMonomial.gen(1, "x") * YMonomial.gen(2, 0, 3))
    assert not is_dominant(YMonomial.gen(1, 0, -1))


def test_right_negativity_examples():
    assert not is_right_negative(YMonomial.unit())
    assert is_right_negative(YMonomial.gen(1, 1) * YMonomial.gen(1, 0, -1))
    assert not is_right_negative(YMonomial.gen(1, 0) * YMonomial.gen(1, 1, -1))
    assert is_right_negative(YMonomial.gen(1, 0, -1))  # no positive factors


def test_right_negativity_symbolic_difference_never_qualifies():
    assert not is_right_negative(YMonomial.gen(1, "k") * YMonomial.gen(1, 0, -1))


def test_right_negative_closed_under_products():
    a = YMonomial.gen(1, 1) * YMonomial.gen(1, 0, -1)
    b = YMonomial.gen(2, "1/2") * YMonomial.gen(2, 0, -1)
    assert is_right_negative(a * b)


# -- group laws (property) ---------------------------------------------------

small_monomials = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3),
              st.fractions(min_value=-4, max_value=4, max_denominator=2),
              st.integers(min_value=-3, max_value=3)),
    max_size=5).map(lambda fs: PsiMonomial(tuple(((i, x), e) for i, x, e in fs)))


@given(small_monomials, small_monomials, small_monomials)
def test_group_laws(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * a.inverse() == PsiMonomial.unit()
    assert a ** 2 == a * a
    assert a ** 0 == PsiMonomial.unit()


@given(small_monomials)
def test_format_parse_round_trip(m):
    assert parse_monomial(format_monomial(m), kind="Psi") == m


# -- merge product and the A -> Y homomorphism (property) ---------------------

# A small pool of rational and symbolic coordinates, so that products often
# meet equal keys and cancel.
coords = st.builds(
    lambda r, c, name: Coord(r) + Coord.var(name, c),
    st.fractions(min_value=-2, max_value=2, max_denominator=2),
    st.integers(min_value=0, max_value=1),
    st.sampled_from(("x", "k")))


def exp_maps(cls):
    exps = st.integers(min_value=1, max_value=3) if cls is AVector \
        else st.integers(min_value=-3, max_value=3)
    return st.lists(st.tuples(st.integers(min_value=1, max_value=2), coords, exps),
                    max_size=6).map(lambda fs: cls(tuple(((i, x), e) for i, x, e in fs)))


def map_pairs(*classes):
    return st.sampled_from(classes).flatmap(lambda cls: st.tuples(exp_maps(cls), exp_maps(cls)))


@given(map_pairs(PsiMonomial, YMonomial, AVector))
def test_merge_product_matches_canonical_constructor(pair):
    a, b = pair
    want = type(a)(a.exps + b.exps)
    got = a * b
    assert got.exps == want.exps and hash(got) == hash(want)


@given(map_pairs(PsiMonomial, YMonomial))
def test_merge_product_cancels(pair):
    a, c = pair
    unit = type(a).unit()
    assert a * a.inverse() == unit and hash(a * a.inverse()) == hash(unit)
    assert a * (a.inverse() * c) == c
    assert a * unit is a and (unit * a is a or a.is_unit())


@given(st.sampled_from(("A2", "B2", "C3", "G2", "D4")), exp_maps(AVector), exp_maps(AVector))
def test_avector_to_y_is_a_homomorphism(name, v, w):
    ct = build_cartan(LieType.parse(name))
    assert avector_to_y(ct, v * w) == avector_to_y(ct, v) * avector_to_y(ct, w)
    reference = YMonomial(tuple(kv for (i, x), e in v.items()
                                for kv in (expand_A_to_Y(ct, i, x) ** -e).exps))
    assert avector_to_y(ct, v) == reference
