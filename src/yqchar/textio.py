"""The monomial grammar: text to monomials.  ``monomials.format_monomial``
prints the text read here (``format_monomial`` below is the same function).

Grammar (whitespace-separated product of factors):

    factor  := [ "/" ] head "[" node "," coord "]" [ "^" int ]
    head    := "Psi" | "Y" | "A"
    coord   := rational and/or "+"-joined indeterminate terms, e.g.
               "-3/2", "k", "2k", "k/3", "1/2+k"

A leading "/" inverts the factor.  Mixed products are normalized: any Psi
factor forces the Psi basis; otherwise A factors are expanded into Y's
when Y factors are present; a pure product of inverted A's parses as an
A-ledger (AVector).  Factors of another head than the result basis go
through the engine's expansion tables (``monomials._walk``), and the
product is formed once.
"""
from __future__ import annotations

import re

from .cartan import CartanData
from . import monomials as M
from .coords import parse_coord
from .monomials import format_monomial  # noqa: F401 -- the printer's public name

_FACTOR = re.compile(
    r"(?P<inv>/)?(?P<head>Psi|Y|A)\[(?P<node>\d+),(?P<coord>[^\]]+)\](\^(?P<exp>-?\d+))?")


class MonomialSyntaxError(ValueError):
    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def _scan(text: str):
    pos = 0
    factors = []
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _FACTOR.match(text, pos)
        if not m:
            raise MonomialSyntaxError(f"cannot parse factor starting at {text[pos:pos+12]!r}", pos)
        try:
            x = parse_coord(m.group("coord"))
        except ValueError:
            raise MonomialSyntaxError(f"bad coordinate {m.group('coord')!r}", pos) from None
        try:
            i, e = int(m.group("node")), int(m.group("exp") or 1) * (-1 if m.group("inv") else 1)
        except ValueError:      # more digits than int() reads from text
            raise MonomialSyntaxError(f"too many digits in factor {text[pos:pos+12]!r}", pos) from None
        factors.append((m.group("head"), i, x, e))
        pos = m.end()
    return factors


# The row of ``monomials._offsets`` that expands a factor of a head into a basis.
_ROW = {("A", "Psi"): 0, ("A", "Y"): 1, ("Y", "Psi"): 2}


def parse_monomial(text: str, cartan: CartanData | None = None, kind: str | None = None):
    """Parse a monomial string; returns PsiMonomial, YMonomial or AVector.

    ``cartan`` is required whenever a basis conversion is needed (mixed
    products, or any A factor that must be expanded); when given, every node
    is checked against it.  ``kind`` forces the result basis ("Psi", "Y" or
    "A"); the empty product "1" needs it.
    """
    if text.strip() == "1":
        cls = {"Psi": M.PsiMonomial, "Y": M.YMonomial, "A": M.AVector, None: M.PsiMonomial}[kind]
        return cls.unit()
    factors = _scan(text)
    if cartan is not None:
        for _, i, _, _ in factors:
            cartan.check_node(i)
    heads = {h for h, *_ in factors} | {kind}
    basis = "Psi" if "Psi" in heads else "Y" if "Y" in heads else "A"
    if basis == "A":
        # the A-ledger stores exponents of A^{-1}, each checked before any cancel
        if any(e > 0 for *_, e in factors):
            raise ValueError("AVector exponents must be nonnegative")
        return M.AVector(tuple(((i, x), -e) for _, i, x, e in factors))
    pairs, other = [], {}
    for h, i, x, e in factors:
        (pairs if h == basis else other.setdefault(_ROW[h, basis], [])).append((M._site(i, x), e))
    if other and cartan is None:
        raise MonomialSyntaxError("mixed product requires Cartan data for conversion", 0)
    for row, exps in other.items():
        pairs += M._walk(cartan, exps, row, 1)
    return (M.PsiMonomial if basis == "Psi" else M.YMonomial)(M._canon(pairs), canonical=True)
