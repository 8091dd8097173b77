"""Text and JSON serialization for monomials.

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
from functools import lru_cache
from math import gcd

from .cartan import CartanData
from . import monomials as M
from .coords import format_coord, parse_coord

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
        e = int(m.group("exp") or 1)
        if m.group("inv"):
            e = -e
        factors.append((m.group("head"), int(m.group("node")), x, e))
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


# Bound on the memos of factor texts and of lane texts (hits and misses: ROADMAP item 19).
# Both pay: job_p50_s rose 5.3% on identity_suite without the first, 5.7% on kr_complete
# without the second (10 pairs each, 1 of 10 better).
_TEXT_CACHE_SIZE = 4096


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _lane_text(head: str, lane: int, tn: int, td: int) -> tuple:
    """(``head[i,`` or ``Phi[i,q^``, 2 num, den, symbolic tail): residue + tn/td = num/den."""
    i, sym, r = M._LANES[lane]
    return (f"{head}[{i}," + "q^" * (head == "Phi"), 2 * (r.numerator * td + tn * r.denominator),
            r.denominator * td, format_coord(1, 1, sym)[1:])


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _factor_text(head: str, site: int, e: int, tn: int = 0, td: int = 1) -> str:
    """The factor at the site's x printed at x + tn/td = (2 num + off2 den) / (2 den)."""
    pre, n2, den, tail = _lane_text(head, site & M._LANE, tn, td)
    g = gcd(n := n2 + (site >> 32) * den, d := 2 * den)
    cs = f"{n // g}{tail}" if g == d else f"{n // g}/{d // g}{tail}"
    cs = cs if n or not tail else format_coord(0, 1, M._LANES[site & M._LANE][1])
    return f"{pre}{cs}]" if e == 1 else f"{pre}{cs}]^{e}"


def format_monomial(m, t=0) -> str:
    """Canonical string form of m moved by the rational ``t``, each factor at
    x + t (see ``monomials``); at t = 0 the inverse of parse_monomial on its output."""
    head = {"PsiMonomial": "Psi", "YMonomial": "Y", "AVector": "A",
            "MultiplicativeMonomial": "Phi"}[type(m).__name__]
    sign, tn, td = -1 if head == "A" else 1, t.numerator, t.denominator
    return " ".join([_factor_text(head, s, sign * e, tn, td) for s, e in m.ordered()]) or "1"
