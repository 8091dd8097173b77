"""Exact spectral coordinates: rationals plus formal indeterminates.

A coordinate is an element of Q + Q<x1, x2, ...> where the x's are named
formal symbols.  This replaces complex spectral parameters so that equality
and half-integrality tests are decidable.  This module does exact arithmetic,
comparison, formatting and parsing only; monomials key each (node,
coordinate) pair by one int of their own (see ``monomials``).
"""
from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, total_ordering

__all__ = ["Coord", "coord", "format_coord", "narrow", "parse_coord", "CoordSyntaxError"]

_COORD_CACHE_SIZE = 1024    # bound on the memo of parsed coordinate texts
# A numeric coefficient that starts a term, then e or E, an optional sign and
# a digit: exponent notation, such as "1e5" or "2E-3", which no term reads.
_EXPONENT = re.compile(r"(?:^|(?<=[+-]))\s*(\d[\d/]*[eE][+-]?\d+)")
# A plain rational, ASCII digits only, which one match reads without the term loop.
_PLAIN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _as_fraction(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise TypeError(f"not an exact rational: {v!r}")


@total_ordering
class Coord:
    """Immutable exact coordinate: rational part + symbolic part.

    The symbolic part is a sorted tuple of (name, rational coefficient)
    pairs with all coefficients nonzero (canonical form).
    """

    __slots__ = ("rat", "sym", "_hash")

    def __init__(self, rat=0, sym=(), canonical=False):
        # canonical: rat is a Fraction and sym already in canonical form
        if not canonical:
            rat = _as_fraction(rat)
            sym = tuple(sorted((n, c) for n, c in dict(sym).items() if c != 0))
        object.__setattr__(self, "rat", rat)
        object.__setattr__(self, "sym", sym)
        # a rational coordinate equals its Fraction, so it hashes as one
        object.__setattr__(self, "_hash", hash((rat, sym)) if sym else hash(rat))

    def __setattr__(self, *a):
        raise AttributeError("Coord is immutable")

    @staticmethod
    def var(name: str, coeff=1) -> "Coord":
        return Coord(0, ((name, _as_fraction(coeff)),))

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other) -> "Coord":
        # a rational shift keeps the symbolic part as it is
        if isinstance(other, (int, Fraction)):
            return Coord(self.rat + other, self.sym, canonical=True)
        other = coord(other)
        sym = dict(self.sym)
        for n, c in other.sym:
            sym[n] = sym.get(n, Fraction(0)) + c
        return Coord(self.rat + other.rat, sym)

    __radd__ = __add__

    def __neg__(self) -> "Coord":
        return Coord(-self.rat, tuple((n, -c) for n, c in self.sym), canonical=True)

    def __sub__(self, other) -> "Coord":
        if isinstance(other, (int, Fraction)):
            return Coord(self.rat - other, self.sym, canonical=True)
        return self + (-coord(other))

    def __rsub__(self, other) -> "Coord":
        return -self + other

    def __mul__(self, other) -> "Coord":
        k = _as_fraction(other)
        return Coord(self.rat * k, tuple((n, c * k) for n, c in self.sym))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Coord":
        return self * (Fraction(1) / _as_fraction(other))

    # -- predicates ---------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return not self.sym

    # -- comparisons --------------------------------------------------------
    def __eq__(self, other):
        if isinstance(other, Coord):
            return self.rat == other.rat and self.sym == other.sym
        if isinstance(other, (int, Fraction)):
            return not self.sym and self.rat == other
        return NotImplemented

    def __hash__(self):
        return self._hash

    def sort_key(self):
        # (symbolic part, rational part), the order of `<`: in src/ only psi_to_y's
        # refusal reads it; tests check _site_order and site storage against it.
        return (self.sym, self.rat)

    def __lt__(self, other):
        return self.sort_key() < coord(other).sort_key()

    # -- formatting ---------------------------------------------------------
    def __str__(self):
        return format_coord(self.rat.numerator, self.rat.denominator, self.sym)

    def __repr__(self):
        return f"Coord({self})"


def format_coord(num: int, den: int, sym=()) -> str:
    """The text of num/den + sym, both canonical: no rational 0 beside sym; "-" for "+-"."""
    parts = [str(num) if den == 1 else f"{num}/{den}"] if num or not sym else []
    for n, c in sym:
        coeff = "" if c.numerator == 1 else "-" if c.numerator == -1 else str(c.numerator)
        parts.append(f"{coeff}{n}" + ("" if c.denominator == 1 else f"/{c.denominator}"))
    return "+".join(parts).replace("+-", "-")


def coord(v) -> Coord:
    """Coerce an int, Fraction, string or Coord into a Coord; a string is
    read by ``parse_coord``, the one grammar of numeric text."""
    if isinstance(v, Coord):
        return v
    if isinstance(v, str):
        return parse_coord(v)
    return Coord(v)


def narrow(v, name: str, integer: bool = False):
    """``coord(v)`` as a Fraction, or as an int when ``integer``; a symbolic
    value, or one that is not integral when ``integer``, is a ValueError
    that names ``name``."""
    c = coord(v)
    if c.is_rational and (not integer or c.rat.denominator == 1):
        return int(c.rat) if integer else c.rat
    raise ValueError(f"{name} must be {'an integer' if integer else 'rational'}, got {v!r}")


class CoordSyntaxError(ValueError):
    pass


def _parse_term(term: str, pos: int) -> Coord:
    """One term of a coordinate; ``pos`` is where it starts in the text as
    typed, and an error names the position there of the fragment it quotes."""
    pos += len(term) - len(term.lstrip())
    term = term.strip()
    if not term:
        raise CoordSyntaxError(f"empty coordinate term at position {pos}")
    sign = 1
    if term.startswith("-"):
        sign = -1
        term = term[1:]
        pos += 1
    # split off a symbol name: digits and '/' belong to the coefficient
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


@lru_cache(maxsize=_COORD_CACHE_SIZE)
def parse_coord(text: str) -> Coord:
    """Parse a coordinate: rational and/or '+'-joined symbol terms.

    Examples: "-3/2", "k", "2k", "k/3", "1/2+k", "-1+k/2".  A term ends at
    each '+', which is dropped, and at each '-' but a leading one, which
    starts the next term.  Exponent notation ("1e5") is refused.  A plain
    rational ("-7/2") is read in one step, unless the terms must refuse it.
    """
    if m := _PLAIN.fullmatch(text):
        try:
            if den := int(m[2] or 1):
                return Coord(Fraction(int(m[1]), den), (), canonical=True)
        except ValueError:      # more digits than int() reads from text
            pass
    if m := _EXPONENT.search(text):
        raise CoordSyntaxError(f"exponent notation {m[1]!r} at position {m.start(1)} "
                               "is not a coordinate")
    lead = len(text) - len(text.lstrip())
    total, start = Coord(0), 0
    for n, ch in enumerate(text):
        if ch == "+" or (ch == "-" and n > lead):
            total = total + _parse_term(text[start:n], start)
            start = n + (ch == "+")
    return total + _parse_term(text[start:], start)
