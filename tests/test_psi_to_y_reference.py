"""``monomials.psi_to_y`` against a reference.

``reference_psi_to_y`` is the per-class sweep that ``psi_to_y`` ran before it
shared ``monomials._lane_sums`` with ``_i_chain_psi``: per lane and class of
off2 mod 2 d_i, it carries the exponent sum down from the top of the class.
Both must give the same Y-monomial, or raise the same ValueError text, on Psi
monomials on and off the Y-lattice, with rational and symbolic coordinates.
"""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from yqchar.cartan import LieType, build_cartan
from yqchar.coords import Coord
from yqchar.monomials import (
    _HALF, _LANE, _LANES, PsiMonomial, YMonomial, _canon, _unsite, psi_to_y, y_to_psi,
)


def reference_psi_to_y(cartan, m):
    """Factor a Psi-monomial in the lattice P into Y's.

    Per node and per class of coordinates mod d_i (one lane, off2 mod
    2 d_i), solve the telescoping system e_{i,x} = c_{i,x-d_i/2} -
    c_{i,x+d_i/2} from the top down.  Raises ValueError if m is not a
    product of Y's.
    """
    classes = {}
    for s, e in m.exps:
        lane = s & _LANE
        classes.setdefault((lane, (s >> 32) % (2 * cartan.d[_LANES[lane][0] - 1])),
                           []).append((s, e))
    factors = []
    residual = []
    for (lane, _), xs in classes.items():
        i = _LANES[lane][0]
        h = cartan.d[i - 1] * _HALF     # d_i / 2
        carry = 0          # c_{i, x + d_i/2} for the position above
        prev = None
        for s, e in reversed(xs):       # descending
            if prev is not None and carry:
                # positions strictly between prev and s have e = 0
                factors += [(p - h, carry) for p in range(prev - 2 * h, s, -2 * h)]
            prev = s
            carry += e
            if carry:
                factors.append((s - h, carry))
        if carry:
            residual.append((i, _unsite(xs[-1][0])[1], _unsite(xs[0][0])[1]))
    if residual:
        # Name the class met first in (node, descending Coord) order.
        i = min(r[0] for r in residual)
        _, _, x = max((r for r in residual if r[0] == i), key=lambda r: r[1].sort_key())
        raise ValueError(f"monomial is not in the Y-lattice at node {i} (residual Psi_{{{i},{x}}})")
    return YMonomial(_canon(factors), canonical=True)


TYPES = {name: build_cartan(LieType.parse(name)) for name in ("B2", "C3", "G2", "F4")}

# Rational parts in thirds and halves, so that factors of one node often share
# a class mod d_i (d_i is up to 3, in G2), and at most one symbol.
coords = st.builds(
    lambda r, c, name: Coord(r) + Coord.var(name, c),
    st.fractions(min_value=-3, max_value=3, max_denominator=3)
    | st.fractions(min_value=-3, max_value=3, max_denominator=2),
    st.integers(min_value=0, max_value=2),
    st.sampled_from(("x", "y")))


def _factors(cartan, cls):
    return st.lists(st.tuples(st.sampled_from(cartan.nodes), coords,
                              st.integers(min_value=-3, max_value=3)),
                    max_size=6).map(lambda fs: cls(tuple(((i, x), e) for i, x, e in fs)))


@st.composite
def cases(draw):
    """(cartan, a Y-monomial ys, a Psi-monomial): ys's Psi-form, on the Y-lattice,
    or that times free Psi factors, which is off it unless they happen to close."""
    cartan = TYPES[draw(st.sampled_from(sorted(TYPES)))]
    ys = draw(_factors(cartan, YMonomial))
    m = y_to_psi(cartan, ys)
    if draw(st.booleans()):
        m = m * draw(_factors(cartan, PsiMonomial))
    return cartan, ys, m


def _outcome(convert, cartan, m):
    try:
        return convert(cartan, m)
    except ValueError as ex:
        return str(ex)


@settings(max_examples=600, deadline=None)
@given(cases())
def test_psi_to_y_gives_the_references_value_or_refusal(case):
    cartan, ys, m = case
    want = _outcome(reference_psi_to_y, cartan, m)
    assert _outcome(psi_to_y, cartan, m) == want
    if y_to_psi(cartan, ys) == m:
        assert want == ys


def test_the_refusal_names_the_same_class_as_the_reference():
    # node 1 of G2 (d_1 = 1) has two open classes on x's lane, the higher one
    # ending at x + 2; a class on y's lane is higher still; node 2's comes last
    g2 = TYPES["G2"]
    x, y = Coord.var("x", 1), Coord.var("y", 1)
    on_x = ((1, x), 1), ((1, x + 2), -2), ((1, x + Fraction(1, 2)), 1), ((2, Coord(0)), 1)
    for m, at in ((PsiMonomial(on_x), "x"), (PsiMonomial(on_x + (((1, y - 1), 1),)), "-1+y")):
        text = f"monomial is not in the Y-lattice at node 1 (residual Psi_{{1,{at}}})"
        assert _outcome(psi_to_y, g2, m) == _outcome(reference_psi_to_y, g2, m) == text
