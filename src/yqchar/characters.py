"""Truncated q-characters and the monomial expansion engine.

A character is stored in normalized form: a top Psi-monomial (the highest
l-weight) together with an A-ledger mapping each product of inverted
generalized simple roots to its l-weight multiplicity.  The ledger keys
are AVectors; their total exponent is the height of the term.

The expansion engine (``fm_expand``) is an iterative completion by
node-restricted sl2 characters in the style of Frenkel--Mukhin: a monomial
whose multiplicity is not yet accounted for at node i must be i-dominant,
and its i-string content is expanded into the corresponding product of
sl2 string characters.  Correctness for the module classes handled here
is enforced by closed-form oracles and identity cross-checks in the test
suite, not assumed.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .cartan import CartanData
from .coords import Coord, coord
from .monomials import (
    AVector, PsiMonomial, YMonomial,
    avector_to_psi, avector_to_y, expand_A_to_Psi, is_dominant, psi_to_y, y_to_psi,
)
from .textio import format_monomial

__all__ = [
    "EngineConfig", "EngineError", "TruncatedCharacter", "CharacterReport",
    "char_mul", "char_add", "compare_characters",
    "kr_weight", "kr_top_y", "sl2_kr_char", "fm_expand",
    "stabilize", "asymptotic_char", "prefundamental_char",
    "demazure_weight", "m_weight", "n_weight", "demazure_char_via_ses",
    "divide_series",
]


@dataclass(frozen=True)
class EngineConfig:
    term_budget: int = 1_000_000
    stabilization_k_ceiling: int = 16


DEFAULT_CONFIG = EngineConfig()


class EngineError(RuntimeError):
    """Budget exhaustion, stabilization failure, or an internal engine fault."""


# ---------------------------------------------------------------------------
# Character container.
# ---------------------------------------------------------------------------

def _min_bound(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@dataclass(frozen=True)
class TruncatedCharacter:
    """Normalized character: top l-weight and A-ledger, valid up to a height bound.

    ``height_bound`` None means the character is complete (finite module,
    no truncation applied).
    """
    top: PsiMonomial
    terms: tuple                  # sorted tuple of (AVector, positive int)
    height_bound: int | None

    @staticmethod
    def make(top: PsiMonomial, terms, height_bound) -> "TruncatedCharacter":
        items = dict(terms)
        if items.get(AVector.unit()) != 1:
            raise ValueError("character must contain the unit ledger term with coefficient 1")
        if any(c <= 0 for c in items.values()):
            raise ValueError("character coefficients must be positive")
        canon = tuple(sorted(((v, c) for v, c in items.items() if c),
                             key=lambda vc: (vc[0].height(), vc[0].exps)))
        return TruncatedCharacter(top, canon, height_bound)

    def term_dict(self) -> dict:
        return dict(self.terms)

    def dimension(self) -> int:
        """Sum of multiplicities (the module dimension when complete)."""
        return sum(c for _, c in self.terms)

    def truncate(self, bound: int | None) -> "TruncatedCharacter":
        if bound is None or (self.height_bound is not None and self.height_bound <= bound):
            return self
        kept = tuple((v, c) for v, c in self.terms if v.height() <= bound)
        return TruncatedCharacter(self.top, kept, bound)

    def shift(self, a) -> "TruncatedCharacter":
        a = coord(a)
        return TruncatedCharacter(
            self.top.shift(a),
            tuple((v.shift(a), c) for v, c in self.terms),
            self.height_bound)

    def normalized(self) -> "TruncatedCharacter":
        return TruncatedCharacter(PsiMonomial.unit(), self.terms, self.height_bound)

    def psi_terms(self, cartan: CartanData):
        """Yield (PsiMonomial, coefficient) for every term, top included."""
        for v, c in self.terms:
            yield self.top * avector_to_psi(cartan, v), c

    def to_json(self) -> dict:
        return {
            "top": format_monomial(self.top),
            "height_bound": self.height_bound,
            "terms": [{"avector": format_monomial(v), "coeff": c} for v, c in self.terms],
        }

    def to_table(self) -> str:
        rows = [("height", "coeff", "avector")]
        rows += [(str(v.height()), str(c), format_monomial(v)) for v, c in self.terms]
        widths = [max(len(r[k]) for r in rows) for k in range(3)]
        lines = [f"top: {format_monomial(self.top)}",
                 f"height_bound: {self.height_bound}"]
        lines += ["  ".join(f"{r[k]:<{widths[k]}}" for k in range(3)) for r in rows]
        return "\n".join(lines)


@dataclass(frozen=True)
class CharacterReport:
    """Outcome of comparing two characters term by term."""
    verdict: bool
    lhs: TruncatedCharacter
    rhs: TruncatedCharacter
    mismatches: tuple = ()
    note: str = ""

    def to_json(self) -> dict:
        return {
            "verdict": "pass" if self.verdict else "fail",
            "note": self.note,
            "lhs_top": format_monomial(self.lhs.top),
            "rhs_top": format_monomial(self.rhs.top),
            "mismatches": [
                {"avector": format_monomial(v), "lhs": a, "rhs": b}
                for v, a, b in self.mismatches],
        }

    def to_text(self) -> str:
        lines = [f"verdict: {'pass' if self.verdict else 'fail'}"]
        if self.note:
            lines.append(f"note: {self.note}")
        if self.lhs.top != self.rhs.top:
            lines.append(f"top mismatch: {format_monomial(self.lhs.top)} "
                         f"!= {format_monomial(self.rhs.top)}")
        for v, a, b in self.mismatches:
            lines.append(f"  {format_monomial(v)}: lhs={a} rhs={b}")
        return "\n".join(lines)

    def swapped(self) -> "CharacterReport":
        return CharacterReport(self.verdict, self.rhs, self.lhs,
                               tuple((v, b, a) for v, a, b in self.mismatches), self.note)


def compare_characters(lhs: TruncatedCharacter, rhs: TruncatedCharacter,
                       note: str = "") -> CharacterReport:
    la, rb = lhs.term_dict(), rhs.term_dict()
    mism = []
    for v in sorted(set(la) | set(rb), key=lambda v: (v.height(), v.exps)):
        a, b = la.get(v, 0), rb.get(v, 0)
        if a != b:
            mism.append((v, a, b))
    verdict = not mism and lhs.top == rhs.top
    return CharacterReport(verdict, lhs, rhs, tuple(mism), note)


# ---------------------------------------------------------------------------
# Ledger arithmetic.
# ---------------------------------------------------------------------------

def _convolve(a: dict, b: dict, bound, budget: int) -> dict:
    out = {}
    for va, ca in a.items():
        ha = va.height()
        for vb, cb in b.items():
            if bound is not None and ha + vb.height() > bound:
                continue
            k = va * vb
            out[k] = out.get(k, 0) + ca * cb
            if len(out) > budget:
                raise EngineError(f"term budget {budget} exceeded in character product")
    return out


def char_mul(a: TruncatedCharacter, b: TruncatedCharacter,
             config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Product of characters: tops multiply, ledgers convolve."""
    bound = _min_bound(a.height_bound, b.height_bound)
    terms = _convolve(a.term_dict(), b.term_dict(), bound, config.term_budget)
    return TruncatedCharacter.make(a.top * b.top, terms, bound)


def char_add(cartan: CartanData, a: TruncatedCharacter, b: TruncatedCharacter,
             offset: AVector) -> TruncatedCharacter:
    """Sum of characters with top(b) = top(a) * Psi(offset)^-1.

    The result keeps a's top; b's ledger is folded in shifted by ``offset``.
    """
    if a.top * avector_to_psi(cartan, offset) != b.top:
        raise ValueError("offset does not relate the two tops")
    bound = _min_bound(a.height_bound, b.height_bound)
    terms = a.truncate(bound).term_dict()
    for v, c in b.terms:
        k = offset * v
        if bound is not None and k.height() > bound:
            continue
        terms[k] = terms.get(k, 0) + c
    return TruncatedCharacter.make(a.top, terms, bound)


def divide_series(num: dict, den: dict, bound: int | None) -> dict:
    """Exact division of A-ledger series with unit leading terms.

    Degree-by-degree in height; a negative intermediate coefficient means
    the quotient is not a character and raises EngineError.
    """
    if den.get(AVector.unit()) != 1:
        raise EngineError("divisor series must have leading coefficient 1")
    by_h_den = {}
    for v, c in den.items():
        if v.height() > 0:
            by_h_den.setdefault(v.height(), []).append((v, c))
    heights = sorted({v.height() for v in num})
    maxh = bound if bound is not None else (heights[-1] if heights else 0)
    out = {AVector.unit(): 1}
    by_h_out = {0: [(AVector.unit(), 1)]}
    for h in range(1, maxh + 1):
        layer = {v: c for v, c in num.items() if v.height() == h}
        for g, den_layer in by_h_den.items():
            if g > h:
                continue
            for vd, cd in den_layer:
                for vo, co in by_h_out.get(h - g, []):
                    k = vd * vo
                    layer[k] = layer.get(k, 0) - cd * co
        layer = {v: c for v, c in layer.items() if c}
        if any(c < 0 for c in layer.values()):
            bad = next((v, c) for v, c in layer.items() if c < 0)
            raise EngineError(f"negative coefficient {bad[1]} at {format_monomial(bad[0])} "
                              "in series division")
        out.update(layer)
        by_h_out[h] = list(layer.items())
    return out


# ---------------------------------------------------------------------------
# Named highest l-weights.
# ---------------------------------------------------------------------------

def kr_weight(cartan: CartanData, i: int, k: int, x) -> PsiMonomial:
    """Highest l-weight of the KR module W^(i)_{k,x}: Psi_{i,x+k d_i}/Psi_{i,x}."""
    if k < 0:
        raise ValueError("KR index k must be >= 0")
    if k == 0:
        return PsiMonomial.unit()
    x = coord(x)
    return PsiMonomial((((i, x + k * cartan.di(i)), 1), ((i, x), -1)))


def kr_top_y(cartan: CartanData, i: int, k: int, x) -> YMonomial:
    """The same weight as the Y-string Y_{i,x+d_i/2} ... Y_{i,x+(k-1/2)d_i}."""
    return psi_to_y(cartan, kr_weight(cartan, i, k, x))


def demazure_weight(cartan: CartanData, i: int, t: int, k: int, x) -> PsiMonomial:
    """Highest l-weight of the Demazure-type module D^(i,t)_{k,x}.

    w^(i)_{k,x-(k+1)d_i} * w^(i)_{k+t,x-k d_i} * prod_{m=1..k} A_{i,x-m d_i}^-1.
    The closed Psi-product form of the same weight is computed alongside
    and must agree (engine self-check).
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    x = coord(x)
    di = cartan.di(i)
    out = kr_weight(cartan, i, k, x - (k + 1) * di) * kr_weight(cartan, i, k + t, x - k * di)
    for m in range(1, k + 1):
        out = out * expand_A_to_Psi(cartan, i, x - m * di) ** -1
    display = _demazure_weight_display(cartan, i, t, k, x)
    if display != out:
        raise EngineError("Demazure weight display disagrees with the telescoped product")
    return out


def _demazure_weight_display(cartan: CartanData, i: int, t: int, k: int, x: Coord) -> PsiMonomial:
    di = cartan.di(i)
    half = Fraction(1, 2)
    out = PsiMonomial.gen(i, x + t * di) * PsiMonomial.gen(i, x, -1)
    for j in cartan.nodes:
        cij = cartan.cij(i, j)
        if cij >= 0:
            continue
        dij = cartan.dij(i, j)
        out = out * PsiMonomial.gen(j, x + dij) * PsiMonomial.gen(j, x + dij - k * di, -1)
        if cij == -2:
            out = out * PsiMonomial.gen(j, x) * PsiMonomial.gen(j, x - k, -1)
        elif cij == -3:
            out = (out * PsiMonomial.gen(j, x + half) * PsiMonomial.gen(j, x - half)
                   * PsiMonomial.gen(j, x + half - k, -1) * PsiMonomial.gen(j, x - half - k, -1))
    return out


def m_weight(cartan: CartanData, i: int, k, x) -> PsiMonomial:
    """(Psi_{i,x+d_i}/Psi_{i,x}) * prod_{j: c_ij<0} Psi_{j,x+d_ij}/Psi_{j,x+d_ij-k d_i}.

    k may be symbolic (a Coord)."""
    x, k = coord(x), coord(k)
    di = cartan.di(i)
    out = PsiMonomial.gen(i, x + di) * PsiMonomial.gen(i, x, -1)
    for j in cartan.nodes:
        if cartan.cij(i, j) < 0:
            dij = cartan.dij(i, j)
            out = out * PsiMonomial.gen(j, x + dij) * PsiMonomial.gen(j, x + dij - k * di, -1)
    return out


def n_weight(cartan: CartanData, i: int, k, x) -> PsiMonomial:
    """The complementary tensor factor of the Demazure weight (t = 1)."""
    x, k = coord(x), coord(k)
    half = Fraction(1, 2)
    out = PsiMonomial.unit()
    for j in cartan.nodes:
        cij = cartan.cij(i, j)
        if cij == -2:
            out = out * PsiMonomial.gen(j, x) * PsiMonomial.gen(j, x - k, -1)
        elif cij == -3:
            out = (out * PsiMonomial.gen(j, x + half) * PsiMonomial.gen(j, x - half)
                   * PsiMonomial.gen(j, x + half - k, -1) * PsiMonomial.gen(j, x - half - k, -1))
    return out


# ---------------------------------------------------------------------------
# sl2 oracle and node-restricted sl2 expansion.
# ---------------------------------------------------------------------------

def sl2_kr_char(k: int, x, bound: int | None = None) -> TruncatedCharacter:
    """Closed-form sl2 KR character: independent oracle for the engine.

    nqc(W_{k,x}) = sum_{l=0..k} prod_{m<l} A_{1,x+m}^-1, truncated at ``bound``.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    x = coord(x)
    top = PsiMonomial.unit() if k == 0 else \
        PsiMonomial.gen(1, x + k) * PsiMonomial.gen(1, x, -1)
    terms = {}
    lmax = k if bound is None else min(k, bound)
    for l in range(lmax + 1):
        terms[AVector(tuple((((1, x + m), 1)) for m in range(l)))] = 1
    return TruncatedCharacter.make(top, terms, bound)


def _strings(positions, d: Fraction):
    """Greedy decomposition of an exponent multiset into unlinked strings.

    ``positions``: (coord, positive exponent) pairs for one node.  Returns a
    list of (bottom, length) pairs; strings step by d.
    """
    rem = dict(positions)
    out = []
    while rem:
        top = max(rem, key=Coord.sort_key)
        bottom, length = top, 1
        while True:
            nxt = bottom - d
            if rem.get(nxt, 0) > 0:
                bottom, length = nxt, length + 1
            else:
                break
        for s in range(length):
            p = bottom + d * s
            rem[p] -= 1
            if not rem[p]:
                del rem[p]
        out.append((bottom, length))
    return out


# Bound on the memoized node-sl2 expansions.  Keys carry absolute
# coordinates, so reuse happens within one expansion and across expansions
# at the same spectral point (the k-steps of ``stabilize``).  A complete KR
# character such as B3 n3 k5 or B4 n4 k3 meets 90-150 distinct keys.
_SL2_CACHE_SIZE = 1024


@lru_cache(maxsize=_SL2_CACHE_SIZE)
def _sl2_node_expansion(i: int, positions: tuple, d: Fraction, cap: int | None) -> tuple:
    """sl2 character of an i-dominant string content as ledger chains.

    ``positions`` is a tuple of (coord, positive exponent) pairs for node i.
    Returns a tuple of (AVector in node-i A^-1 factors, multiplicity); the
    unit chain comes first with multiplicity 1.  ``cap`` limits the chain
    height.
    """
    chains = {AVector.unit(): 1}
    for bottom, length in _strings(positions, d):
        lmax = length if cap is None else min(length, cap)
        string_chains = []
        for l in range(lmax + 1):
            string_chains.append(
                AVector(tuple(((i, bottom - d / 2 + d * m), 1) for m in range(l))))
        nxt = {}
        for v, c in chains.items():
            h = v.height()
            for sc in string_chains:
                if cap is not None and h + sc.height() > cap:
                    break
                k = v * sc
                nxt[k] = nxt.get(k, 0) + c
        chains = nxt
    return tuple(chains.items())


# ---------------------------------------------------------------------------
# The expansion engine.
# ---------------------------------------------------------------------------

def fm_expand(cartan: CartanData, top: YMonomial, bound: int | None = None,
              config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Expand the character of L(top) for a dominant Y-monomial.

    Iterative completion by node-restricted sl2 characters; terms are
    produced in increasing height, stopping at ``bound`` (None = expand the
    complete finite character).
    """
    return _fm_expand_cached(cartan, top, bound, config)


@lru_cache(maxsize=4096)
def _fm_expand_cached(cartan, top, bound, config):
    # Invariant: ymon[v] == top * avector_to_y(cartan, v) for every queued v.
    # A new term v2 = v * chain is reached from a popped v, and avector_to_y
    # is a homomorphism, so its Y-monomial is built from v's as
    # m * avector_to_y(cartan, chain): the cost follows the new node-i chain,
    # not the size of the whole monomial.
    if not is_dominant(top):
        raise ValueError(f"fm_expand requires a dominant top, got {format_monomial(top)}")
    top_psi = y_to_psi(cartan, top)
    unit = AVector.unit()
    explained = {i: {} for i in cartan.nodes}
    result = {}
    seq = 0
    heap = [(0, 0, unit)]
    seen = {unit}
    ymon = {unit: top}
    while heap:
        h, _, v = heapq.heappop(heap)
        mult = 1 if v is unit else max(explained[i].get(v, 0) for i in cartan.nodes)
        if mult <= 0:
            raise EngineError("engine fault: discovered monomial with no multiplicity")
        result[v] = mult
        m = ymon.pop(v)
        for i in cartan.nodes:
            deficit = mult - explained[i].get(v, 0)
            if deficit == 0:
                continue
            if deficit < 0:
                raise EngineError("engine fault: node coverage exceeds multiplicity")
            positions = tuple((x, e) for (j, x), e in m.items() if j == i)
            if any(e < 0 for _, e in positions):
                raise EngineError(
                    f"expansion blocked: monomial {format_monomial(m)} has unexplained "
                    f"multiplicity at node {i} but is not {i}-dominant")
            cap = None if bound is None else bound - h
            for chain, c in _sl2_node_expansion(i, positions, cartan.di(i), cap):
                v2 = v * chain
                explained[i][v2] = explained[i].get(v2, 0) + c * deficit
                if v2 != v and v2 not in seen:
                    seen.add(v2)
                    if len(seen) > config.term_budget:
                        raise EngineError(f"term budget {config.term_budget} exceeded "
                                          "during expansion")
                    ymon[v2] = m * avector_to_y(cartan, chain)
                    seq += 1
                    heapq.heappush(heap, (v2.height(), seq, v2))
    return TruncatedCharacter.make(top_psi, result, bound)


# ---------------------------------------------------------------------------
# Stabilized (asymptotic) characters.
# ---------------------------------------------------------------------------

def stabilize(cartan: CartanData, i: int, x, bound: int,
              config: EngineConfig = DEFAULT_CONFIG):
    """Stable truncated normalized KR character lim_k nqc(W^(i)_{k,x}).

    Increases k until two consecutive truncations agree; returns
    (normalized TruncatedCharacter, stabilization index).
    """
    if bound < 0:
        raise ValueError("height bound must be >= 0")
    prev = None
    for k in range(config.stabilization_k_ceiling + 2):
        cur = fm_expand(cartan, kr_top_y(cartan, i, k, x), bound, config).terms
        if prev is not None and cur == prev:
            return (TruncatedCharacter(PsiMonomial.unit(), cur, bound), k - 1)
        prev = cur
    raise EngineError(
        f"normalized KR characters did not stabilize at height {bound} before "
        f"k = {config.stabilization_k_ceiling} (node {i}, x = {coord(x)})")


def asymptotic_char(cartan: CartanData, i: int, y, x, bound: int,
                    config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Character of the asymptotic module with top Psi_{i,y}/Psi_{i,x}."""
    y, x = coord(y), coord(x)
    stable, _ = stabilize(cartan, i, x, bound, config)
    top = PsiMonomial.unit() if y == x else \
        PsiMonomial.gen(i, y) * PsiMonomial.gen(i, x, -1)
    return TruncatedCharacter(top, stable.terms, bound)


def prefundamental_char(cartan: CartanData, i: int, x, sign: str, bound: int,
                        config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Prefundamental characters: Psi_{i,x}^-1 with the stabilized ledger,
    or the one-dimensional Psi_{i,x}."""
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    x = coord(x)
    if sign == "+":
        return TruncatedCharacter.make(PsiMonomial.gen(i, x), {AVector.unit(): 1}, bound)
    stable, _ = stabilize(cartan, i, x, bound, config)
    return TruncatedCharacter(PsiMonomial.gen(i, x, -1), stable.terms, bound)


# ---------------------------------------------------------------------------
# Demazure characters via the short exact sequence.
# ---------------------------------------------------------------------------

def demazure_char_via_ses(cartan: CartanData, i: int, t: int, k: int, x,
                          bound: int | None = None,
                          config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """chi(D^(i,t)_{k,x}) as the exact difference of KR tensor products.

    chi(W_{k,0}) chi(W_{k+t,d_i}) - chi(W_{k-1,d_i}) chi(W_{k+t+1,0}),
    rebased so the top sits at x.  Any negative coefficient is a hard
    failure: exactness of the sequence forces positivity.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    x = coord(x)
    di = cartan.di(i)
    inner = None if bound is None else bound + k
    a = fm_expand(cartan, kr_top_y(cartan, i, k, 0), inner, config)
    b = fm_expand(cartan, kr_top_y(cartan, i, k + t, di), inner, config)
    c = fm_expand(cartan, kr_top_y(cartan, i, k - 1, di), inner, config)
    d = fm_expand(cartan, kr_top_y(cartan, i, k + t + 1, 0), inner, config)
    big = char_mul(a, b, config)
    small = char_mul(c, d, config)
    if big.top != small.top:
        raise EngineError("engine fault: SES tensor tops disagree")
    diff = big.term_dict()
    for v, cc in small.terms:
        diff[v] = diff.get(v, 0) - cc
    diff = {v: cc for v, cc in diff.items() if cc}
    if any(cc < 0 for cc in diff.values()):
        raise EngineError("negative coefficient in SES difference: engine fault")
    # rebase: the kernel top is w * prod_{m=1..k} A_{i,m d_i}^-1
    v0 = AVector(tuple(((i, m * di), 1) for m in range(1, k + 1)))
    if diff.get(v0) != 1:
        raise EngineError("SES difference is missing its expected top term")
    rebased = {}
    for v, cc in diff.items():
        if not v.contains(v0):
            raise EngineError(f"SES difference term {format_monomial(v)} does not contain "
                              "the kernel top ledger")
        rebased[v.divide(v0)] = cc
    top = big.top * avector_to_psi(cartan, v0)
    out = TruncatedCharacter.make(top, rebased, bound)
    out = out.truncate(bound)
    # place the top at x (the raw sequence realizes it at x0 = (k+1) d_i)
    return out.shift(x - (k + 1) * di)
