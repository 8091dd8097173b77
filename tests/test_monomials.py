"""Monomial calculus: expansions, conversions, projections, predicates."""
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yqchar.cartan import LieType, Weight, build_cartan
from yqchar.coords import Coord, coord
from yqchar.monomials import (
    _HALF, _LANE, AVector, PsiMonomial, YMonomial, _i_chain, _i_chain_psi, _lane, _print_plan,
    _print_rows, _remove, _site, _site_order, _term_key, _translate, _unsite, avector_to_psi,
    avector_to_y, expand_A_to_Psi, is_dominant, output_order, psi_to_y,
    weight_projection, y_to_psi,
)
from yqchar.identities import MultiplicativeMonomial
from yqchar.textio import MonomialSyntaxError, format_monomial, parse_monomial

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
    assert dict(m.items()) == {(1, coord("k")): 3}
    assert m == PsiMonomial.gen(1, "k", 3)
    assert hash(m) == hash(PsiMonomial.gen(1, "k", 3))


def test_types_do_not_mix():
    with pytest.raises(TypeError):
        PsiMonomial.gen(1, 0) * YMonomial.gen(1, 0)
    assert PsiMonomial.unit() != YMonomial.unit()


@pytest.mark.parametrize("cls", [PsiMonomial, YMonomial, AVector, MultiplicativeMonomial])
def test_unit_is_one_instance_per_class(cls):
    assert cls.unit() is cls.unit()
    assert cls.unit() == cls() and type(cls.unit()) is cls and cls.unit().is_unit()


@pytest.mark.parametrize("name", ["A2", "B2", "C3", "G2"])
@pytest.mark.parametrize("x", [0, Fraction(-7, 3), Fraction(1, 2), "x", "k-5/4"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_i_chain_equals_the_coord_built_chain(name, x, k):
    ct = build_cartan(LieType.parse(name))
    x = coord(x)
    for i in ct.nodes:
        ref = AVector(tuple(((i, x + m * ct.di(i)), 1) for m in range(k)))
        assert _i_chain(ct, i, x, k) == ref


@pytest.mark.parametrize("name", ALL_RANK_LE_4 + ["D5", "E6", "E7", "E8"])
def test_the_telescoped_i_chain_is_the_walked_one(name):
    ct = build_cartan(LieType.parse(name))
    for x in map(coord, ("0", "-7/3", "1/2", "5/4", "x", "k-5/4", "-2x/3+1/6")):
        for i in ct.nodes:
            for k in range(1, 9):
                assert _i_chain_psi(ct, i, x, k) == avector_to_psi(ct, _i_chain(ct, i, x, k))


def test_immutability():
    with pytest.raises(AttributeError):
        PsiMonomial.gen(1, 0).exps = ()


def test_avector_rejects_negative_exponents():
    with pytest.raises(ValueError):
        AVector.gen(1, 0, -1)
    assert _remove(AVector.gen(1, 0).sites, AVector.gen(1, 1).sites) is None


def test_avector_height_contains_divide():
    v = AVector.gen(1, 0, 2) * AVector.gen(2, "1/2")
    assert v.height == 3
    assert _remove(v.sites, AVector.gen(1, 0).sites) is not None
    assert _remove(v.sites, AVector.gen(1, 1).sites) is None
    assert (AVector(_remove(v.sites, AVector.gen(1, 0).sites), canonical=True)
            == AVector.gen(1, 0) * AVector.gen(2, "1/2"))


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
    assert y_to_psi(B2, YMonomial.gen(1, "x")) == parse_monomial("Psi[1,1+x] /Psi[1,-1+x]")
    assert y_to_psi(B2, YMonomial.gen(2, "x")) == parse_monomial("Psi[2,1/2+x] /Psi[2,-1/2+x]")


def test_a_to_y_rank_one():
    assert avector_to_y(A1, AVector.gen(1, "x")) ** -1 \
        == YMonomial.gen(1, "-1/2+x") * YMonomial.gen(1, "1/2+x")


def test_a_to_y_g2_long_node_has_three_inverse_factors():
    m = dict((avector_to_y(G2, AVector.gen(2, 0)) ** -1).items())
    assert m[2, coord(Fraction(-3, 2))] == 1 and m[2, coord(Fraction(3, 2))] == 1
    assert [m[1, coord(z)] for z in (-1, 0, 1)] == [-1, -1, -1]


@pytest.mark.parametrize("name", ALL_RANK_LE_4)
def test_expansion_triangle_commutes(name):
    # A -> Psi directly must agree with A -> Y -> Psi, at a symbolic point.
    ct = build_cartan(LieType.parse(name))
    for i in ct.nodes:
        v = AVector.gen(i, "x")
        assert avector_to_psi(ct, v) == y_to_psi(ct, avector_to_y(ct, v))


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
        assert weight_projection(ct, y_to_psi(ct, YMonomial.gen(i, "x"))) \
            == Weight.fundamental(ct, i)
        neg = Weight(tuple(-a for a in Weight.simple_root(ct, i).coords))
        assert weight_projection(ct, AVector.gen(i, "x")) == neg


def test_projection_is_additive_and_sees_coordinates():
    m = PsiMonomial.gen(1, "x") * PsiMonomial.gen(1, 3, 2)
    (w1,) = weight_projection(A1, m).coords
    assert w1 == coord("x") + 6


# -- dominance ---------------------------------------------------------------

def test_dominance():
    assert is_dominant(YMonomial.unit())
    assert is_dominant(YMonomial.gen(1, "x") * YMonomial.gen(2, 0, 3))
    assert not is_dominant(YMonomial.gen(1, 0, -1))


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
    assert a * a ** -1 == PsiMonomial.unit()
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
    want = type(a)(a.items() + b.items())
    got = a * b
    assert got.exps == want.exps and hash(got) == hash(want)


@given(map_pairs(PsiMonomial, YMonomial))
def test_merge_product_cancels(pair):
    a, c = pair
    unit = type(a).unit()
    assert a * a ** -1 == unit and hash(a * a ** -1) == hash(unit)
    assert a * (a ** -1 * c) == c
    assert a * unit is a and (unit * a is a or a.is_unit())


@given(st.sampled_from(("A2", "B2", "C3", "G2", "D4")), exp_maps(AVector), exp_maps(AVector))
def test_avector_to_y_is_a_homomorphism(name, v, w):
    ct = build_cartan(LieType.parse(name))
    assert avector_to_y(ct, v * w) == avector_to_y(ct, v) * avector_to_y(ct, w)
    reference = YMonomial(tuple(kv for (i, x), e in v.items()
                                for kv in (avector_to_y(ct, AVector.gen(i, x)) ** e).items()))
    assert avector_to_y(ct, v) == reference


# -- the site key (property) ----------------------------------------------------

# Rational parts with denominators 1-6 fall in several cosets mod 1/2.
key_coords = st.builds(
    lambda r, c, name: Coord(r) + Coord.var(name, c),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
    st.sampled_from((0, 0, 1, Fraction(1, 2), -2)),
    st.sampled_from(("x", "k")))
key_nodes = st.integers(min_value=1, max_value=3)


@given(key_nodes, key_coords)
def test_site_round_trip(i, x):
    s = _site(i, x)
    assert _unsite(s) == (i, x)
    assert _site(*_unsite(s)) == s
    assert _unsite(s + _HALF) == (i, x + Fraction(1, 2))
    # one coordinate at two nodes: two lanes, one off2
    t = _site(i + 1, x)
    assert t & _LANE != s & _LANE and t >> 32 == s >> 32


@given(key_nodes, key_coords, key_nodes, key_coords)
def test_sites_separate_coordinates_and_cosets(i, x, j, y):
    s, t = _site(i, x), _site(j, y)
    assert (s == t) == ((i, x) == (j, y))
    same_lane = s & _LANE == t & _LANE
    d = y - x
    assert same_lane == (i == j and d.is_rational and (2 * d.rat).denominator == 1)
    if same_lane:
        # within a lane, int order is Coord order
        assert (s < t) == (x < y)


@given(st.lists(st.tuples(key_nodes, key_coords), max_size=8))
def test_site_order_is_node_coord_order(pairs):
    got = [_unsite(s) for s in sorted({_site(i, x) for i, x in pairs}, key=_site_order)]
    assert got == sorted(set(pairs), key=lambda p: (p[0], p[1].sort_key()))


def reference_site(i, x):
    """The site of (i, x) by three Fraction operations, as ``_site`` read
    before it split x.rat into int numerator and denominator."""
    x = coord(x)
    off2 = math.floor(2 * x.rat)
    return off2 << 32 | _lane(i, x.sym, x.rat - Fraction(off2, 2))


# Negative, half-integer and 10**21-sized rational parts, plain or symbolic.
wide_rats = st.one_of(
    st.fractions(min_value=-10 ** 22, max_value=10 ** 22, max_denominator=10 ** 22),
    st.integers(-10 ** 21, 10 ** 21).map(lambda n: Fraction(n, 2)),
    st.sampled_from((Fraction(-1, 2), Fraction(-7, 3), Fraction(10 ** 21 + 1, 2),
                     Fraction(-10 ** 21, 7))))
wide_coords = st.builds(lambda r, c: Coord(r) + Coord.var("x", c), wide_rats,
                        st.sampled_from((0, 0, 1, Fraction(-1, 2))))


@settings(max_examples=300)
@given(key_nodes, wide_coords, wide_rats)
def test_site_is_the_fraction_formula(i, x, r):
    assert _site(i, x) == reference_site(i, x)
    assert _site(i, r) == reference_site(i, r) == _site(i, Coord(r))


def test_a_float_is_refused_after_its_int_is_memoized():
    assert _site(1, 3) == reference_site(1, 3)
    for x in (3.0, 0.5, -1.5):
        with pytest.raises(TypeError, match="not an exact rational"):
            _site(1, x)


@settings(max_examples=200)
@given(st.lists(st.tuples(key_nodes, wide_coords), min_size=1, max_size=4),
       st.lists(st.lists(st.tuples(key_nodes, wide_coords), min_size=1, max_size=3),
                max_size=3), wide_rats)
def test_translate_moves_each_site_as_the_fraction_formula(pairs, rows, t):
    # each lane's delta, read in int arithmetic, takes (i, x) to the site that
    # the Fraction formula gives (i, x + t)
    def moved(s):
        i, x = _unsite(s)
        return reference_site(i, x + t)
    top = PsiMonomial(tuple(((i, x), e) for e, (i, x) in enumerate(pairs, 1)))
    rows = tuple({AVector(tuple((p, 1) for p in r)): c for c, r in enumerate(rows, 1)}.items())
    got_top, got_rows = _translate(t, top, rows)
    assert got_top.exps == tuple(sorted((moved(s), e) for s, e in top.exps))
    assert got_rows == tuple(sorted(
        [(AVector(tuple(sorted(map(moved, v.sites))), canonical=True), c) for v, c in rows],
        key=_term_key))


# -- integer keys against a Coord-keyed reference (property) ------------------

# Coordinates in several cosets mod 1/2 at one node, rational and symbolic.
mixed_coords = st.builds(
    lambda r, c: Coord(r) + Coord.var("x", c),
    st.fractions(min_value=-2, max_value=2, max_denominator=3),
    st.sampled_from((0, 0, 1, Fraction(1, 2))))
factor_lists = st.lists(st.tuples(st.integers(min_value=1, max_value=2), mixed_coords,
                                  st.integers(min_value=-3, max_value=3)), max_size=6)


def coord_canonical(factors):
    """Test-only reference: a product of (node, Coord, exponent) factors
    on Coord keys, in (node, Coord) order."""
    acc = {}
    for i, x, e in factors:
        acc[i, x] = acc.get((i, x), 0) + e
    return tuple(sorted((((i, x), e) for (i, x), e in acc.items() if e),
                        key=lambda kv: (kv[0][0], kv[0][1].sort_key())))


def psi(factors):
    return PsiMonomial(tuple(((i, x), e) for i, x, e in factors))


@given(factor_lists, factor_lists)
def test_int_key_product_matches_coord_reference(fa, fb):
    a, b = psi(fa), psi(fb)
    assert a.items() == coord_canonical(fa)
    assert (a * b).items() == coord_canonical(fa + fb)
    assert (a * b == psi(fa + fb)) and hash(a * b) == hash(psi(fa + fb))


@given(factor_lists)
def test_format_follows_coord_order(fa):
    want = " ".join(f"Psi[{i},{x}]" + ("" if e == 1 else f"^{e}")
                    for (i, x), e in coord_canonical(fa)) or "1"
    assert format_monomial(psi(fa)) == want


def test_avector_rejects_negative_powers():
    with pytest.raises(ValueError):
        AVector.gen(1, 0) ** -1


def test_psi_to_y_names_the_first_residual_class():
    # three classes off the Y-lattice at node 1 (B2, d_1 = 2), in two
    # cosets: the message names the class whose top coordinate is largest
    # ({1/3, 7/3}), at its lowest point
    m = parse_monomial("Psi[1,0] /Psi[1,1] Psi[1,1/3] Psi[1,7/3]")
    with pytest.raises(ValueError, match=r"residual Psi_\{1,1/3\}"):
        psi_to_y(B2, m)


# -- the site multiset at its edges (property) --------------------------------

# Coordinates far beyond 64 bits, half steps apart around a few huge bases
# (so that factors meet and cancel), plus unrelated huge rationals and a
# symbolic part; nodes up to 20.
huge_bases = st.sampled_from((Fraction(10 ** 30, 7), Fraction(-10 ** 30 - 1, 2),
                              Fraction(0), Fraction(1, 3) - 10 ** 29))
huge_coords = st.one_of(
    st.builds(lambda base, n, c: Coord(base + Fraction(n, 2)) + Coord.var("x", c),
              huge_bases, st.integers(min_value=-3, max_value=3),
              st.sampled_from((0, 0, 1, Fraction(-1, 2)))),
    st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 6).map(Coord))
site_factors = st.lists(st.tuples(st.integers(min_value=1, max_value=20), huge_coords,
                                  st.integers(min_value=1, max_value=3)), max_size=6)


def counter_of(factors) -> Counter:
    out = Counter()
    for i, x, e in factors:
        out[i, x] += e
    return out


def in_coord_order(counts: Counter) -> tuple:
    return tuple(sorted(((k, e) for k, e in counts.items() if e > 0),
                        key=lambda kv: (kv[0][0], kv[0][1].sort_key())))


def avector(factors):
    return AVector(tuple(((i, x), e) for i, x, e in factors))


@given(site_factors)
def test_site_multiset_round_trips_through_items(fa):
    v = avector(fa)
    assert v.items() == in_coord_order(counter_of(fa))
    assert list(v.sites) == sorted(v.sites) and v.height == len(v.sites)
    assert v.height == sum(e for _, _, e in fa)
    assert AVector(v.items()) == v and hash(AVector(v.items())) == hash(v)
    assert PsiMonomial(v.items()).items() == v.items()
    assert parse_monomial(format_monomial(v), kind="A") == v


@given(site_factors, site_factors)
def test_contains_and_divide_match_a_counter_reference(fa, fb):
    a = avector(fa)
    for b_factors in (fb, fa[::2], fa[1:] + fb[:1]):
        b = avector(b_factors)
        ca, cb = counter_of(fa), counter_of(b_factors)
        q = _remove(a.sites, b.sites)
        assert (q is not None) == (cb <= ca)
        if cb <= ca:
            assert AVector(q, canonical=True).items() == in_coord_order(ca - cb)
            assert AVector(q, canonical=True) * b == a
        else:
            assert q is None
    assert _remove((a * avector(fb)).sites, avector(fb).sites) == a.sites


# Shifts up to 10^30, and small ones that move a residue across a half step.
shifts = st.one_of(
    st.fractions(min_value=-10 ** 30, max_value=10 ** 30, max_denominator=10 ** 30),
    st.sampled_from((Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), Fraction(-3, 4),
                     Fraction(2, 5), Fraction(5, 6))))


@given(st.lists(site_factors, max_size=6), shifts)
def test_a_plan_printed_at_a_shift_is_the_order_of_the_moved_rows(factor_lists, t):
    # many lanes, symbolic lanes and repeated sites (exponents up to 3, and
    # factors that meet); the coefficient names the row
    rows = list({avector(f): n for n, f in enumerate(factor_lists)}.items())
    plan = _print_plan(rows)
    moved = output_order(_translate(t, PsiMonomial.unit(), rows)[1])
    assert [(v.height, c, text) for (v, c), text in _print_rows(plan, t)] == \
        [(v.height, c, text) for (v, c), text in moved]
    assert [text for _, text in moved] == [format_monomial(v) for (v, _), _ in moved]
    assert _print_rows(plan) == output_order(rows)
    # format_monomial at t is the text of the moved monomial, for each row
    # and for a Psi- and a Y-monomial (some factors inverted) of one list
    unmoved = {c: v for v, c in rows}
    assert [text for _, text in moved] == [format_monomial(unmoved[c], t) for (_, c), _ in moved]
    for f in factor_lists[:1]:
        for m in (PsiMonomial(tuple(((i, x), e) for i, x, e in f)),
                  YMonomial(tuple(((i, x), e * (-1) ** n) for n, (i, x, e) in enumerate(f)))):
            assert format_monomial(m, t) == format_monomial(_translate(t, m)[0])


def test_print_order_does_not_follow_lane_order():
    # two cosets at one node and one off2, their lanes interned in the
    # opposite of Coord order (the symbol makes both cosets new)
    hi, lo = Coord.var("lane_probe") + Fraction(3, 11), Coord.var("lane_probe") + Fraction(2, 11)
    m = PsiMonomial.gen(1, hi) * PsiMonomial.gen(1, lo)
    assert format_monomial(m) == "Psi[1,2/11+lane_probe] Psi[1,3/11+lane_probe]"
    v = AVector.gen(1, hi) * AVector.gen(1, lo)
    assert format_monomial(v) == "A[1,2/11+lane_probe]^-1 A[1,3/11+lane_probe]^-1"


# -- cross-basis parsing -----------------------------------------------------

def test_a_mixed_product_is_parsed_through_the_basis_changes():
    assert parse_monomial("Y[1,0] A[2,1]", A2, kind="Psi") == \
        y_to_psi(A2, YMonomial.gen(1, 0)) * expand_A_to_Psi(A2, 2, 1)
    assert parse_monomial("Y[1,0] A[2,1]^-1", A2) == \
        YMonomial.gen(1, 0) * avector_to_y(A2, AVector.gen(2, 1))
    with pytest.raises(MonomialSyntaxError) as err:
        parse_monomial("Y[1,0] A[2,1]")
    assert str(err.value) == "mixed product requires Cartan data for conversion (at position 0)"
