"""Exact spectral coordinate arithmetic, parsing and predicates."""
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from yqchar.coords import (
    Coord, CoordSyntaxError, coord, parse_coord,
)

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=9)


def test_construction_and_equality():
    assert Coord(3) == 3 == Fraction(3)
    assert Coord(Fraction(1, 2)) != Coord(Fraction(1, 3))
    assert Coord.var("k") == Coord.var("k")
    assert Coord.var("k") != Coord.var("j")
    assert Coord.var("k", 0) == Coord(0)


@given(st.fractions(max_denominator=10**6))
def test_a_rational_coordinate_hashes_as_its_rational(q):
    assert hash(Coord(q)) == hash(q)
    assert q in {Coord(q)}
    assert {Coord(q): 1}[q] == 1


def test_arithmetic():
    k = Coord.var("k")
    assert (k + 1) - 1 == k
    assert k - k == 0
    assert (k * 2) / 2 == k
    assert -(k + Fraction(1, 2)) == Coord.var("k", -1) - Fraction(1, 2)
    assert 1 + k == k + 1
    assert 3 - k == -(k - 3)


def test_immutable():
    with pytest.raises(AttributeError):
        coord(1).rat = Fraction(2)


def test_half_integer_and_genericity():
    def half_integer(c):
        return c.is_rational and (2 * c.rat).denominator == 1
    assert half_integer(coord("3/2"))
    assert half_integer(coord(-2))
    assert not half_integer(coord("1/3"))
    assert not half_integer(coord("k"))
    assert half_integer(coord("k") - coord("k") + Fraction(1, 2))


@pytest.mark.parametrize("text", ["-3/2", "k", "2k", "k/3", "1/2+k", "-1+k/2", "x-k", "0"])
def test_parse_format_round_trip(text):
    c = parse_coord(text)
    assert parse_coord(str(c)) == c


@pytest.mark.parametrize("text", ["-x/2", "-k/3", "-3x/2", "x/2", "-x", "1/3-x/5"])
def test_a_coefficient_prints_as_typed(text):
    assert str(parse_coord(text)) == text


def test_parse_errors():
    for bad in ["", "1//2", "k+", "2 3"]:
        with pytest.raises(ValueError):
            parse_coord(bad)


def test_sort_key_is_deterministic_total_order():
    vals = [coord(v) for v in ("0", "-3/2", "k", "1/2+k", "2k")]
    once = sorted(vals)
    assert sorted(reversed(vals)) == once


@given(rationals, rationals)
def test_rational_embedding_is_homomorphic(a, b):
    assert Coord(a) + Coord(b) == Coord(a + b)
    assert Coord(a) - Coord(b) == Coord(a - b)
    assert Coord(a) * b == Coord(a * b)


@given(rationals, rationals, rationals)
def test_symbolic_linear_arithmetic(a, b, c):
    k = Coord.var("k")
    lhs = (k * a + b) + (k * c)
    assert lhs == Coord(b, (("k", a + c),))
    assert hash(lhs) == hash(Coord(b, (("k", a + c),)))


@pytest.mark.parametrize("text, msg", [
    ("x-y-1/0", "bad rational '1/0' at position 4"),
    (" x-1/0", "bad rational '1/0' at position 3"),
    ("2-1/0", "bad rational '1/0' at position 2"),
    ("x-y/0", "bad coefficient in 'y/0' at position 2"),
    ("1+k/0", "bad coefficient in 'k/0' at position 2"),
    ("1 + k/0", "bad coefficient in 'k/0' at position 4"),
    ("2k$", "bad indeterminate 'k$' at position 1"),
    ("k+", "empty coordinate term at position 2"),
])
def test_parse_errors_name_the_position_in_the_text_as_typed(text, msg):
    with pytest.raises(CoordSyntaxError) as ex:
        parse_coord(text)
    assert str(ex.value) == msg


@pytest.mark.parametrize("text, fragment, pos", [
    ("1e5", "1e5", 0), ("2E10", "2E10", 0), ("1/2e3", "1/2e3", 0), ("2E-3", "2E-3", 0),
    ("1e+5", "1e+5", 0), ("-3e2", "3e2", 1), ("x+1e5", "1e5", 2), ("x - 2e7", "2e7", 4),
])
def test_exponent_notation_is_refused_with_its_fragment(text, fragment, pos):
    with pytest.raises(CoordSyntaxError) as ex:
        parse_coord(text)
    assert str(ex.value) == f"exponent notation {fragment!r} at position {pos} is not a coordinate"


@pytest.mark.parametrize("text, want", [
    ("e", Coord.var("e")), ("e5", Coord.var("e5")), ("2e", Coord.var("e", 2)),
    ("2e+x", Coord.var("e", 2) + Coord.var("x")), ("2e-x", Coord.var("e", 2) - Coord.var("x")),
    ("x1e5", Coord.var("x1e5")), ("2k", Coord.var("k", 2)), ("k-3", Coord.var("k") - 3),
])
def test_an_e_that_is_no_exponent_still_names_a_symbol(text, want):
    assert parse_coord(text) == want


def test_zero_denominators_are_syntax_errors():
    for text in ("1/0", "k/0", "1+2k/0", "-3/0"):
        with pytest.raises(CoordSyntaxError):
            parse_coord(text)


def _general_add(a: Coord, b) -> Coord:
    """Coord addition through the full coercion, as for any operand."""
    b = coord(b)
    sym = dict(a.sym)
    for n, c in b.sym:
        sym[n] = sym.get(n, Fraction(0)) + c
    return Coord(a.rat + b.rat, sym)


def _same(got: Coord, want: Coord) -> bool:
    return (got.rat, got.sym, hash(got), str(got)) == (want.rat, want.sym, hash(want), str(want))


huge = st.fractions(min_value=-10 ** 21, max_value=10 ** 21, max_denominator=10 ** 21)
shifts = st.one_of(st.integers(-10 ** 21, 10 ** 21), huge)
coordinates = st.builds(
    lambda r, s: Coord(r, s), huge,
    st.lists(st.tuples(st.sampled_from("kxy"), rationals), max_size=3))


@given(coordinates, shifts)
def test_rational_shift_matches_the_general_path(a, b):
    assert _same(a + b, _general_add(a, b))
    assert _same(b + a, _general_add(a, b))
    assert _same(a - b, _general_add(a, -b))
    assert _same(b - a, _general_add(Coord(-a.rat, {n: -c for n, c in a.sym}), b))
    assert isinstance(b - a, Coord) and isinstance(b + a, Coord)
    assert (a + b) - b == a


# The term grammar as it reads every text, kept here verbatim so that a
# shorter path for some texts can be held to it.
_REF_EXPONENT = re.compile(r"(?:^|(?<=[+-]))\s*(\d[\d/]*[eE][+-]?\d+)")


def _reference_term(term: str, pos: int) -> Coord:
    pos += len(term) - len(term.lstrip())
    term = term.strip()
    if not term:
        raise CoordSyntaxError(f"empty coordinate term at position {pos}")
    sign = 1
    if term.startswith("-"):
        sign = -1
        term = term[1:]
        pos += 1
    i = 0
    while i < len(term) and (term[i].isdigit() or term[i] == "/"):
        i += 1
    num, name = term[:i], term[i:]
    if name:
        tail = ""
        if "/" in name:
            name, tail = name.split("/", 1)
            tail = "/" + tail
        if not name.isidentifier():
            raise CoordSyntaxError(f"bad indeterminate {name!r} at position {pos + i}")
        try:
            coeff = Fraction((num or "1") + tail)
        except (ValueError, ZeroDivisionError):
            raise CoordSyntaxError(f"bad coefficient in {term!r} at position {pos}") from None
        return Coord.var(name, sign * coeff)
    try:
        return Coord(sign * Fraction(num))
    except (ValueError, ZeroDivisionError):
        raise CoordSyntaxError(f"bad rational {num!r} at position {pos}") from None


def reference_parse_coord(text: str) -> Coord:
    if m := _REF_EXPONENT.search(text):
        raise CoordSyntaxError(f"exponent notation {m[1]!r} at position {m.start(1)} "
                               "is not a coordinate")
    lead = len(text) - len(text.lstrip())
    total, start = Coord(0), 0
    for n, ch in enumerate(text):
        if ch == "+" or (ch == "-" and n > lead):
            total = total + _reference_term(text[start:n], start)
            start = n + (ch == "+")
    return total + _reference_term(text[start:], start)


def _outcome(parse, text):
    try:
        c = parse(text)
    except Exception as ex:     # the refusal, as its type and text
        return type(ex), str(ex)
    return c.rat, c.sym, hash(c), str(c)


LIMIT = sys.get_int_max_str_digits()
_digits = st.text("0123456789", min_size=1, max_size=8)
plain = st.builds(lambda sign, n, d: sign + n + ("" if d is None else "/" + d),
                  st.sampled_from(("", "-")), _digits, st.none() | _digits)
# one character put in a plain text or put in place of one of its characters
_MISS = (" ", "\t", "\n", "+", "-", "/", "//", "e", "E5", ".", "_", "x", "٣", "３", "¹", "")
near_miss = st.builds(lambda text, at, put, over: text[:at] + put + text[at + over:],
                      plain, st.integers(0, 20), st.sampled_from(_MISS), st.integers(0, 1))
edges = st.sampled_from((
    "007", "-0", "-00/07", "0/5", "6/4", "1/0", "-3/00", "+3", "3/", "/3", "3//4", " 3",
    "3 ", "- 3", "--3", "٣", "１/２", "1e5", "-", "", "7" * (LIMIT + 1), "-" + "7" * (LIMIT + 1),
    "1/" + "7" * (LIMIT + 1), "7" * LIMIT + "/" + "3" * LIMIT, "x" + "7" * (LIMIT + 1)))


@given(st.one_of(plain, near_miss, edges))
def test_a_plain_rational_reads_as_the_term_grammar_reads_it(text):
    assert _outcome(parse_coord, text) == _outcome(reference_parse_coord, text)
