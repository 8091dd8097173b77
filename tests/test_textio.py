"""The monomial parser against a per-factor reference of its assembly, and
the factor printer against a per-coordinate reference of its text."""
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from yqchar.cartan import LieType, build_cartan
from yqchar.coords import Coord
from yqchar.monomials import (
    AVector, PsiMonomial, YMonomial, _factor_text, _site, avector_to_psi, avector_to_y, y_to_psi,
)
from yqchar.textio import MonomialSyntaxError, _scan, format_monomial, parse_monomial


def reference_parse(text, cartan=None, kind=None):
    """The parser built one factor at a time: each factor is converted to
    the result basis as a whole monomial and multiplied in."""
    if text.strip() == "1":
        return {"Psi": PsiMonomial, "Y": YMonomial, "A": AVector, None: PsiMonomial}[kind].unit()
    factors = _scan(text)
    if cartan is not None:
        for _, i, _, _ in factors:
            cartan.check_node(i)
    heads = {h for h, *_ in factors}
    if kind is not None:
        heads.add({"Psi": "Psi", "Y": "Y", "A": "_A"}[kind])

    def need_cartan():
        if cartan is None:
            raise MonomialSyntaxError("mixed product requires Cartan data for conversion", 0)
        return cartan

    if "Psi" in heads:
        out = PsiMonomial.unit()
        for h, i, x, e in factors:
            if h == "Psi":
                out = out * PsiMonomial.gen(i, x, e)
            elif h == "Y":
                out = out * y_to_psi(need_cartan(), YMonomial.gen(i, x)) ** e
            else:       # A_{i,x} is the inverse of the Q_- element A_{i,x}^-1
                out = out * avector_to_psi(need_cartan(), AVector.gen(i, x)) ** -e
        return out
    if "Y" in heads:
        out = YMonomial.unit()
        for h, i, x, e in factors:
            if h == "Y":
                out = out * YMonomial.gen(i, x, e)
            else:
                out = out * avector_to_y(need_cartan(), AVector.gen(i, x)) ** -e
        return out
    out = AVector.unit()
    for _, i, x, e in factors:
        out = out * AVector.gen(i, x, -e)
    return out


CARTANS = [None] + [build_cartan(LieType.parse(name)) for name in ("A2", "G2", "B3")]
factor_texts = st.builds(
    "{}{}[{},{}]{}".format,
    st.sampled_from(("", "/")), st.sampled_from(("Psi", "Y", "A")),
    st.integers(min_value=1, max_value=4),
    st.sampled_from(("0", "1/2", "x", "-3/2", "x+1/3", "k")),
    st.sampled_from(("", "^-1", "^0", "^2", "^3")))


def _outcome(parse, text, cartan, kind):
    try:
        m = parse(text, cartan, kind)
    except Exception as err:            # noqa: BLE001 -- compared below
        return type(err), str(err)
    return type(m), format_monomial(m)


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.lists(factor_texts, max_size=6).map(" ".join) | st.just("1"),
       st.sampled_from(CARTANS), st.sampled_from((None, "Psi", "Y", "A")))
def test_the_parser_matches_its_per_factor_reference(text, cartan, kind):
    assert _outcome(parse_monomial, text, cartan, kind) \
        == _outcome(reference_parse, text, cartan, kind)


def reference_text(c: Coord) -> str:
    """A coordinate's text built from the Coord: the rational part unless it
    is 0 beside a symbol, then each symbolic term, joined by "+", and each
    "+-" read as "-"."""
    parts = []
    if c.rat != 0 or not c.sym:
        parts.append(str(c.rat))
    for n, k in c.sym:
        num = "" if k.numerator == 1 else "-" if k.numerator == -1 else str(k.numerator)
        parts.append(f"{num}{n}" + ("" if k.denominator == 1 else f"/{k.denominator}"))
    return "+".join(parts).replace("+-", "-")


numerators = st.integers(-40, 40) | st.integers(-10 ** 30, 10 ** 30)
rationals = st.builds(Fraction, numerators, st.integers(1, 12))
coefficients = st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 6))
coordinates = st.builds(
    lambda rat, sym: Coord(rat, sym), st.just(Fraction(0)) | rationals,
    st.dictionaries(st.sampled_from(("x", "k", "y2")), coefficients, max_size=2))


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(st.integers(1, 4), coordinates, st.just(Fraction(0)) | rationals,
       st.sampled_from((1, -1, 2, -3)))
def test_each_factor_prints_as_its_coordinate_moved_by_t(i, x, t, e):
    # the text of a factor from its lane's texts at t and int arithmetic on its
    # half steps is that of the Coord x + t, in every head; Phi writes q^ first
    want = reference_text(x + t)
    assert (str(x), str(x + t)) == (reference_text(x), want)
    for head in ("Psi", "Y", "A", "Phi"):
        power = "" if e == 1 else f"^{e}"
        assert _factor_text(head, _site(i, x), e, t.numerator, t.denominator) \
            == f"{head}[{i},{'q^' if head == 'Phi' else ''}{want}]{power}"


def test_a_node_or_exponent_of_more_digits_than_int_reads_is_a_syntax_error():
    # int() refuses a text of more than sys.get_int_max_str_digits() digits; the
    # scanner names the factor and its position instead, and reads the limit exactly
    if not (limit := sys.get_int_max_str_digits()):
        pytest.skip("this interpreter reads integer texts of any length")
    over, a2 = "9" * (limit + 1), build_cartan(LieType.parse("A2"))
    for text, pos in ((f"Psi[1,0]^{over}", 0), (f"Psi[{over},0]", 0),
                      (f"Y[1,0] /A[2,1]^-{over}", 7), (f"Psi[1,x] A[{over},1/2]^-1", 9)):
        with pytest.raises(MonomialSyntaxError) as err:
            parse_monomial(text, a2)
        assert (str(err.value), err.value.position) == \
            (f"too many digits in factor {text[pos:pos + 12]!r} (at position {pos})", pos)
    at = "9" * limit
    assert _scan(f"/Psi[1,0]^{at} Y[{at},1]") == \
        [("Psi", 1, Coord(0), -int(at)), ("Y", int(at), Coord(1), 1)]
