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

import threading
from collections import OrderedDict
from fractions import Fraction
from functools import cached_property, lru_cache

from .cartan import CartanData, _frozen
from .coords import Coord, coord
from .monomials import (
    _HALF, AVector, PsiMonomial, YMonomial, _by_node, _i_chain, _i_chain_psi, _print_plan,
    _print_rows, _remove, _site, _site_order, _term_key, _translate, _walk, avector_to_psi,
    format_monomial, is_dominant, output_order, psi_to_y, y_to_psi,
)

__all__ = [
    "EngineConfig", "EngineError", "TruncatedCharacter", "Report",
    "char_mul", "char_add", "compare_characters",
    "kr_weight", "kr_top_y", "sl2_kr_char", "fm_expand",
    "stabilize", "asymptotic_char", "prefundamental_char",
    "demazure_weight", "m_weight", "n_weight", "demazure_char_via_ses",
    "divide_series",
]


@_frozen
class EngineConfig:
    term_budget: int = 1_000_000

    def __post_init__(self):
        if type(budget := self.term_budget) is not int or budget < 1:
            raise ValueError(f"term_budget must be an integer of at least 1, got {budget!r}")


DEFAULT_CONFIG = EngineConfig()


class EngineError(RuntimeError):
    """Budget exhaustion or an internal engine fault."""


# ---------------------------------------------------------------------------
# Character container.
# ---------------------------------------------------------------------------

def _min_bound(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


@_frozen
class TruncatedCharacter:
    """Normalized character: top l-weight and A-ledger, valid up to a height bound.

    ``height_bound`` None means the character is complete (finite module,
    no truncation applied).  A translate (see ``fm_expand``) has no ``terms`` until read.
    """
    top: PsiMonomial
    terms: tuple                  # (AVector, positive int), in (height, sites) order
    height_bound: int | None
    _anchor = None                # a translate's anchored character, moved by _t

    def __init__(self, top: PsiMonomial, terms: tuple, height_bound: int | None):
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "height_bound", height_bound)

    def __getattr__(self, name):                # a translate's first read of terms
        anchor = self._anchor
        if name != "terms" or anchor is None:   # None: the rows have landed
            return object.__getattribute__(self, name)
        self.__dict__.update(terms=_translate(self._t, anchor.top, anchor.terms)[1], _anchor=None)
        return self.terms

    @staticmethod
    def make(top: PsiMonomial, terms, height_bound) -> "TruncatedCharacter":
        items = dict(terms)
        if items.get(AVector.unit()) != 1:
            raise ValueError("character must contain the unit ledger term with coefficient 1")
        if any(c <= 0 for c in items.values()):
            raise ValueError("character coefficients must be positive")
        return TruncatedCharacter(top, tuple(sorted(items.items(), key=_term_key)),
                                  height_bound)

    def term_dict(self) -> dict:
        return dict(self.terms)

    def dimension(self) -> int:
        """Sum of multiplicities (the module dimension when complete)."""
        return sum(c for _, c in self.terms)

    def truncate(self, bound: int | None) -> "TruncatedCharacter":
        if bound is None or (self.height_bound is not None and self.height_bound <= bound):
            return self
        kept = tuple((v, c) for v, c in self.terms if v.height <= bound)
        return TruncatedCharacter(self.top, kept, bound)

    def psi_terms(self, cartan: CartanData):
        """Yield (PsiMonomial, coefficient) for every term, top included."""
        for v, c in self.terms:
            yield self.top * avector_to_psi(cartan, v), c

    @cached_property
    def _plan(self) -> tuple:
        return _print_plan(self.terms)

    def _printed(self) -> list:         # (row, text) pairs in print order
        anchor = self._anchor           # a translate prints its anchor's plan moved by _t
        return _print_rows(anchor._plan, self._t) if anchor else _print_rows(self._plan)

    def to_json(self) -> dict:
        return {
            "top": format_monomial(self.top),
            "height_bound": self.height_bound,
            "terms": [{"avector": t, "coeff": c} for (_, c), t in self._printed()],
        }

    def to_text(self) -> str:
        rows = [("height", "coeff", "avector")]
        rows += [(str(v.height), str(c), t) for (v, c), t in self._printed()]
        widths = [max(len(r[k]) for r in rows) for k in range(3)]
        lines = [f"top: {format_monomial(self.top)}",
                 f"height_bound: {self.height_bound}"]
        lines += ["  ".join(f"{r[k]:<{widths[k]}}" for k in range(3)) for r in rows]
        return "\n".join(lines)


@_frozen
class Report:
    """Outcome of a check: its verdict, JSON members and text lines; the
    first text line is ``verdict: pass|fail`` followed by ``tally``."""
    verdict: bool
    fields: dict
    lines: tuple
    tally: str

    def __init__(self, verdict: bool, fields: dict, lines: tuple = (), tally: str = ""):
        object.__setattr__(self, "verdict", verdict)
        object.__setattr__(self, "fields", fields)
        object.__setattr__(self, "lines", lines)
        object.__setattr__(self, "tally", tally)

    @property
    def checked(self) -> int:
        """Instances a relation check ran; the benchmark's tracer reads it."""
        return self.fields["checked"]

    def to_json(self) -> dict:
        return {"verdict": "pass" if self.verdict else "fail", **self.fields}

    def to_text(self) -> str:
        return "\n".join((f"verdict: {'pass' if self.verdict else 'fail'}{self.tally}",
                          *self.lines))


def compare_characters(lhs: TruncatedCharacter, rhs: TruncatedCharacter,
                       note: str = "") -> Report:
    """Term-by-term comparison: the tops and every mismatched coefficient.
    ``terms`` is in canonical order, so equal ledgers are equal tuples."""
    mism = []
    if lhs.terms != rhs.terms:
        la, rb = lhs.term_dict(), rhs.term_dict()
        mism = [(t, a, b) for (_, a, b), t in output_order(
            (v, la.get(v, 0), rb.get(v, 0)) for v in la.keys() | rb.keys()
            if la.get(v, 0) != rb.get(v, 0))]
    same = lhs.top == rhs.top
    lt = format_monomial(lhs.top)
    rt = lt if same else format_monomial(rhs.top)
    lines = [f"note: {note}"] if note else []
    if not same:
        lines.append(f"top mismatch: {lt} != {rt}")
    lines += [f"  {v}: lhs={a} rhs={b}" for v, a, b in mism]
    return Report(same and not mism,
                  {"note": note, "lhs_top": lt, "rhs_top": rt,
                   "mismatches": [{"avector": v, "lhs": a, "rhs": b} for v, a, b in mism]},
                  tuple(lines))


# ---------------------------------------------------------------------------
# Ledger arithmetic.
# ---------------------------------------------------------------------------

def _ledger_acc(a, b, bound: int | None, budget: int, acc=None, sign: int = 1,
                base: tuple = ()) -> dict:
    """Truncated product of two A-ledgers on site tuples, added into ``acc``.

    ``a`` and ``b`` are iterables of (sorted site tuple, coefficient) pairs;
    products above height ``bound`` (None: no bound) are dropped, and ``sign``
    times each product is added into ``acc`` (a new dict when None), keyed by
    sorted site tuples.  Raises EngineError when ``acc`` holds more than
    ``budget`` keys.  Keys are never removed, so the count only grows and one
    check per row of ``a`` decides the same as a check per term.

    With a bound, heights are counted outside ``base``, distinct sites each
    counted inside once: rows are grouped by the bitmask of their base sites,
    and two groups whose bitmasks join to u multiply under bound + popcount(u).
    """
    acc = {} if acc is None else acc
    if base and bound is not None:
        bit, ga, gb = {s: 1 << n for n, s in enumerate(base)}, {}, {}
        for groups, rows in ((ga, a), (gb, b)):
            for row in rows:            # a set: each base site once
                groups.setdefault(sum({bit.get(s, 0) for s in row[0]}), []).append(row)
        for ma, ra in ga.items():
            for mb, rb in gb.items():
                _ledger_acc(ra, rb, bound + (ma | mb).bit_count(), budget, acc, sign)
        return acc
    b = sorted(b, key=lambda sc: len(sc[0]))
    for sa, ca in a:
        room = None if bound is None else bound - len(sa)
        ca *= sign
        for sb, cb in b:
            if room is not None and len(sb) > room:
                break
            k = tuple(sorted(sa + sb))
            acc[k] = acc.get(k, 0) + ca * cb
        if len(acc) > budget:
            raise EngineError(f"term budget {budget} exceeded in character product")
    return acc


def _sites(rows) -> list:
    """(site tuple, coefficient) pairs of (AVector, coefficient) rows."""
    return [(v.sites, c) for v, c in rows]


def _ledger_mul(a, b, bound: int | None, budget: int, acc=None) -> dict:
    """``_ledger_acc`` on (AVector, coefficient) rows, as a ledger {AVector: coefficient}."""
    return {AVector(k, canonical=True): c
            for k, c in _ledger_acc(_sites(a), _sites(b), bound, budget, acc).items()}


def char_mul(a: TruncatedCharacter, b: TruncatedCharacter,
             config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Product of characters: tops multiply, ledgers convolve."""
    bound = _min_bound(a.height_bound, b.height_bound)
    terms = _ledger_mul(a.terms, b.terms, bound, config.term_budget)
    return TruncatedCharacter.make(a.top * b.top, terms, bound)


def char_add(cartan: CartanData, a: TruncatedCharacter, b: TruncatedCharacter,
             offset: AVector, config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Sum of characters with top(b) = top(a) * Psi(offset)^-1.

    The result keeps a's top; b's ledger times ``offset`` is added to a's.
    """
    if a.top * avector_to_psi(cartan, offset) != b.top:
        raise ValueError("offset does not relate the two tops")
    bound = _min_bound(a.height_bound, b.height_bound)
    terms = _ledger_mul(((offset, 1),), b.terms, bound, config.term_budget,
                        {v.sites: c for v, c in a.truncate(bound).terms})
    return TruncatedCharacter.make(a.top, terms, bound)


def divide_series(num: dict, den: dict, bound: int | None,
                  config: EngineConfig = DEFAULT_CONFIG) -> dict:
    """Exact division of A-ledger series, the divisor with unit leading term.

    Height by height, q_h = num_h - sum_{g>=1} den_g q_{h-g}: a remainder
    starts at num, its height-h part is final once the lower heights are
    done and is q_h, and q_h times the rest of den is subtracted from it.
    A negative coefficient of the quotient means it is not a character, and
    without a bound a remainder left above the heights of num means the
    division is inexact; both raise EngineError.
    """
    if den.get(AVector.unit()) != 1:
        raise EngineError("divisor series must have leading coefficient 1")
    rest = [(v.sites, c) for v, c in den.items() if v.sites]
    rem = {v.sites: c for v, c in num.items()}
    top = bound if bound is not None else max(map(len, rem), default=0)
    out = {}
    for h in range(top + 1):
        rows = [(k, c) for k, c in rem.items() if c and len(k) == h]
        if bad := [(AVector(k, canonical=True), c) for k, c in rows if c < 0]:
            (_, c), t = output_order(bad)[0]
            raise EngineError(f"negative coefficient {c} at {t} in series division")
        out.update((AVector(k, canonical=True), c) for k, c in rows)
        if rest:        # dividing by 1 leaves the remainder as it is
            _ledger_acc(rows, rest, bound, config.term_budget, rem, -1)
    if bound is None and any(c for k, c in rem.items() if len(k) > top):
        raise EngineError("series division is inexact: a remainder is left above "
                          f"height {top}")
    return out


# ---------------------------------------------------------------------------
# Named highest l-weights.
# ---------------------------------------------------------------------------

# Bound on the memoized node-sl2 expansions.  Keys carry the coordinates of
# anchored expansions (see fm_expand), so reuse happens within one expansion
# and across expansions that meet the same string content under the same
# cap: one identity_suite benchmark cycle (seed 1) hits 348 of 868 lookups on
# 520 keys.  The complete KR characters B4 n4 k3 and B3 n3 k5 meet 87 and 151.
_SL2_CACHE_SIZE = 1024
# Bound on each weight memo below: one identity_suite cycle meets 75 KR weights.
_WEIGHT_CACHE_SIZE = 1024


def kr_weight(cartan: CartanData, i: int, k: int, x) -> PsiMonomial:
    """Highest l-weight of the KR module W^(i)_{k,x}: Psi_{i,x+k d_i}/Psi_{i,x}."""
    cartan.check_node(i)
    if k < 0:
        raise ValueError("KR index k must be >= 0")
    x = coord(x)
    return PsiMonomial((((i, x + k * cartan.di(i)), 1), ((i, x), -1)))


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE, typed=True)
def kr_top_y(cartan: CartanData, i: int, k: int, x,
             config: EngineConfig = DEFAULT_CONFIG) -> YMonomial:
    """The same weight as the Y-string Y_{i,x+d_i/2} ... Y_{i,x+(k-1/2)d_i}, on its k
    sites; a string of more than ``term_budget`` factors is refused before it is built."""
    _check_budget(config, (k, f"a KR string of {k} factors"))
    cartan.check_node(i)
    if k < 0:
        raise ValueError("KR index k must be >= 0")
    s, step = _site(i, x) + cartan.d[i - 1] * _HALF, 2 * cartan.d[i - 1] * _HALF
    return YMonomial(tuple([(p, 1) for p in range(s, s + k * step, step)]), canonical=True)


def _check_budget(config: EngineConfig, *sizes):
    """Refuse the first (n, what) of a route's ``sizes`` with n over ``term_budget``."""
    for n, what in sizes:
        if n > config.term_budget:
            raise EngineError(f"term budget {config.term_budget} exceeded by {what}")


def _engine_y(cartan: CartanData, weight: PsiMonomial) -> YMonomial:
    """``psi_to_y`` of a weight the engine built: off the Y-lattice is an engine fault."""
    try:
        return psi_to_y(cartan, weight)
    except ValueError as ex:
        raise EngineError(f"{ex}, in a weight the engine built") from None


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE, typed=True)
def demazure_weight(cartan: CartanData, i: int, t: int, k: int, x,
                    config: EngineConfig = DEFAULT_CONFIG) -> PsiMonomial:
    """Highest l-weight of the Demazure-type module D^(i,t)_{k,x}.

    w^(i)_{k,x-(k+1)d_i} * w^(i)_{k+t,x-k d_i} * prod_{m=1..k} A_{i,x-m d_i}^-1.
    The closed Psi-product form of the same weight is computed alongside
    and must agree (engine self-check).  More than ``term_budget`` roots are refused.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    _check_budget(config, (k, f"{k} Demazure roots"))
    x = coord(x)
    di = cartan.di(i)
    out = kr_weight(cartan, i, k, x - (k + 1) * di) * kr_weight(cartan, i, k + t, x - k * di)
    out = out * _i_chain_psi(cartan, i, x - k * di, k)
    display = _demazure_weight_display(cartan, i, t, k, x)
    if display != out:
        raise EngineError("Demazure weight display disagrees with the telescoped product")
    return out


def _demazure_weight_display(cartan: CartanData, i: int, t: int, k: int, x: Coord) -> PsiMonomial:
    di = cartan.di(i)
    half = Fraction(1, 2)
    out = PsiMonomial.gen(i, x + t * di) * PsiMonomial.gen(i, x, -1)
    for j, cij, dij in cartan.neighbours(i):
        out = out * PsiMonomial.gen(j, x + dij) * PsiMonomial.gen(j, x + dij - k * di, -1)
        if cij == -2:
            out = out * PsiMonomial.gen(j, x) * PsiMonomial.gen(j, x - k, -1)
        elif cij == -3:
            out = (out * PsiMonomial.gen(j, x + half) * PsiMonomial.gen(j, x - half)
                   * PsiMonomial.gen(j, x + half - k, -1) * PsiMonomial.gen(j, x - half - k, -1))
    return out


@lru_cache(maxsize=_WEIGHT_CACHE_SIZE, typed=True)
def m_weight(cartan: CartanData, i: int, k, x) -> PsiMonomial:
    """(Psi_{i,x+d_i}/Psi_{i,x}) * prod_{j: c_ij<0} Psi_{j,x+d_ij}/Psi_{j,x+d_ij-k d_i}.

    k may be symbolic (a Coord)."""
    x, k = coord(x), coord(k)
    di = cartan.di(i)
    out = PsiMonomial.gen(i, x + di) * PsiMonomial.gen(i, x, -1)
    for j, _, dij in cartan.neighbours(i):
        out = out * PsiMonomial.gen(j, x + dij) * PsiMonomial.gen(j, x + dij - k * di, -1)
    return out


def n_weight(cartan: CartanData, i: int, k, x) -> PsiMonomial:
    """The complementary tensor factor of the Demazure weight (t = 1): the
    strings Psi_{j,b+k}/Psi_{j,b} at the bases b of ``_n_bases``."""
    x, k = coord(x), coord(k)
    out = PsiMonomial.unit()
    for j, base in _n_bases(cartan, i, k, x):
        out = out * PsiMonomial.gen(j, base + k) * PsiMonomial.gen(j, base, -1)
    return out


def _n_bases(cartan: CartanData, i: int, k, x) -> list:
    """(j, b) for each string Psi_{j,b+k}/Psi_{j,b} of the n-weight: -c_ij - 1
    of them at each neighbour j with c_ij <= -2, one unit apart and centred at
    x - k, so b = x + s - k with s = (-c_ij - 2)/2 - m for m = 0 .. -c_ij - 2.
    (Such an i is short, d_i = 1, so k is also k d_i.)"""
    return [(j, x + Fraction(-cij - 2, 2) - m - k) for j, cij, _ in cartan.neighbours(i)
            for m in range(-cij - 1)]


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
    top = PsiMonomial.gen(1, x + k) * PsiMonomial.gen(1, x, -1)
    terms = {}
    lmax = k if bound is None else min(k, bound)
    for l in range(lmax + 1):
        terms[AVector(tuple((((1, x + m), 1)) for m in range(l)))] = 1
    return TruncatedCharacter.make(top, terms, bound)


def _strings(positions, d: int):
    """Greedy decomposition of an exponent multiset into unlinked strings.

    ``positions``: (site, positive exponent) pairs for one node.  Returns
    (bottom site, length) pairs; strings step by d, which is 2d half steps.
    Strings never link across lanes, so the top of each string may be
    taken in int order.
    """
    rem = dict(positions)
    if min(rem.values(), default=1) <= 0:       # such a top would never leave rem
        raise EngineError("engine fault: a node-sl2 string content has an exponent <= 0")
    step = 2 * d * _HALF
    out = []
    while rem:
        top = max(rem)
        bottom = top
        while rem.get(bottom - step, 0) > 0:
            bottom -= step
        for p in range(bottom, top + 1, step):
            rem[p] -= 1
            if not rem[p]:
                del rem[p]
        out.append((bottom, (top - bottom) // step + 1))
    return out


def _chains(m: int) -> tuple:
    """The (n, what) row of a node-sl2 string of length m: its m(m+1)/2 chains."""
    return m * (m + 1) // 2, f"the chains of a node-sl2 string of length {m}"


def _admit_kr(top: YMonomial, bound: int | None, config: EngineConfig) -> YMonomial:
    """``top``, a KR string of ``kr_top_y``, once the chains that the first pop of its
    expansion meets fit the budget: those of its one node-sl2 string, capped at ``bound``."""
    _check_budget(config, _chains(len(top.exps) if bound is None else min(len(top.exps), bound)))
    return top


@lru_cache(maxsize=_SL2_CACHE_SIZE)
def _sl2_node_expansion(positions: tuple, d: int, cap: int | None, budget: int) -> tuple:
    """sl2 character of an i-dominant string content as ledger chains.

    ``positions`` is a tuple of (site, positive exponent) pairs for node i,
    ``d`` is d_i.  Returns a tuple of (sorted site tuple of node-i A^-1
    factors, multiplicity); the unit chain comes first with multiplicity 1.
    ``cap`` limits the chain height, ``budget`` the number of chains and the
    factors of the chains of one string.
    """
    chains = {(): 1}
    step = 2 * d * _HALF
    for bottom, length in _strings(positions, d):
        lmax = length if cap is None else min(length, cap)
        if (row := _chains(lmax))[0] > budget:
            raise EngineError(f"term budget {budget} exceeded by {row[1]}")
        # chain l of the string at bottom b is A_{b-d/2} ... A_{b+(l-3/2)d}
        base = bottom - d * _HALF
        string_chains = [(tuple(range(base, base + l * step, step)), 1)
                         for l in range(lmax + 1)]
        chains = _ledger_acc(chains.items(), string_chains, cap, budget)
    return tuple(chains.items())


# ---------------------------------------------------------------------------
# The expansion engine.
# ---------------------------------------------------------------------------

class _TermBoundedCache:
    """LRU map of characters, bounded by the total number of their terms.

    A count bound would let a run of large distinct expansions hold that
    many large characters; this bound keeps the footprint flat.  A translate
    counts as its anchor's rows, which neither storing nor eviction moves."""

    def __init__(self, max_terms: int):
        self.max_terms = max_terms
        self.terms = 0
        self.hits = self.misses = 0
        self._data = OrderedDict()
        self._lock = threading.Lock()

    def memo(self, key, compute):
        """The value under ``key``, warmed, or ``compute()`` stored there (an
        exception never is); a key's first item names its kind.  A translate
        holds no rows of its own, so it enters at the cold end, evicted first."""
        with self._lock:
            value = self._data.get(key)
            if value is not None:
                self.hits += 1
                self._data.move_to_end(key)
                return value
            self.misses += 1
        value = compute()
        held = value._anchor or value
        n = len(held.terms)
        with self._lock:
            if key not in self._data and n <= self.max_terms:
                self._data[key] = value
                if held is not value:
                    self._data.move_to_end(key, last=False)
                self.terms += n
                while self.terms > self.max_terms:
                    old = self._data.popitem(last=False)[1]
                    self.terms -= len((old._anchor or old).terms)
        return value


# Bound on the total terms of the memoized engine characters: expansions and
# SES kernel characters share it.  One cycle of the identity_suite benchmark
# (seed 1) leaves 54 entries with 1,631 terms (26 anchored and 13 translated
# expansions 1,086, 15 kernels 545) after 1,125 hits; tests/test_acceptance.py
# leaves 6,272 terms, and one cycle of kr_complete fills it.
_FM_CACHE_TERMS = 10_000
_FM_CACHE = _TermBoundedCache(_FM_CACHE_TERMS)


def fm_expand(cartan: CartanData, top: YMonomial, bound: int | None = None,
              config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Expand the character of L(top) for a dominant Y-monomial.

    Iterative completion by node-restricted sl2 characters; terms are
    produced in increasing height, stopping at ``bound`` (None = expand the
    complete finite character).

    The completion sees only coordinate differences within a lane, so the
    character of a top moved by a rational t is the character moved by t.
    The memo is keyed on the top as given.  On a miss the top is moved by -t
    to its anchor, where the rational part of its first factor in
    (node, Coord) order is d_i/2 (W_{k,x} anchors at x.rat), and expanded
    there through the same memo.  The translate holds the top as given, in
    Psi-form, and the anchored character, and enters the memo at its cold end,
    so that translates met once do not evict the anchored expansions.  A shift
    keeps the order of sites and rows (see ``monomials``): a translate formats
    its anchor's print plan at x + t, and moves its rows when ``terms`` is first read.
    """
    if bound is not None and bound < 0:
        raise ValueError("height bound must be >= 0")

    def compute():
        if not is_dominant(top):
            raise ValueError(f"fm_expand requires a dominant top, got {format_monomial(top)}")
        t = 0
        if top.exps:            # x.rat - d_i/2 of the first factor, off its order key
            i, _, off2, residue = _site_order(top.ordered()[0][0])
            t = residue + Fraction(off2 - cartan.d[i - 1], 2)
        if not t:
            return _fm_expand(cartan, top, bound, config)
        anchored = _translate(-t, top)[0]
        ch = _FM_CACHE.memo(("fm", cartan, anchored, bound, config),
                            lambda: _fm_expand(cartan, anchored, bound, config, t))
        moved = object.__new__(TruncatedCharacter)      # no terms yet: see __getattr__
        moved.__dict__.update(top=y_to_psi(cartan, top), height_bound=bound, _anchor=ch, _t=t)
        return moved
    return _FM_CACHE.memo(("fm", cartan, top, bound, config), compute)


def _fm_expand(cartan, top, bound, config, t=0, base=None):
    # Terms are keyed by their sorted site tuples, so the work dicts hash and
    # compare ints only.  The budget bounds the terms and, separately, their
    # factors.  Invariant: pending[v] == (ys, counts) for every queued v:
    # ys[j - 1] is node j's part of top * avector_to_y(cartan, v), a dict
    # {site: e} with no zero e, and counts[j - 1] is v's multiplicity explained
    # at node j.  A new term v * chain shares v's dicts but for the nodes the
    # chain's Y-form touches (chain_y: walked over the lane tables once per
    # chain): node i's, all negative, and its neighbours', all positive, each
    # merged into a copy.  A non-unit chain raises the height, so a term is new
    # iff it is not pending; the unit chain is skipped.  Terms are popped by
    # height in the order found; each height's rows are sorted once done, the
    # unit row is 1 and a multiplicity <= 0 raises, as TruncatedCharacter.make
    # requires.  An error formats its monomial at x + t, the caller's point.
    # With a base (see demazure_char_via_ses), no term beyond the bound is
    # queued; a node-i chain takes v beyond it by its length less the base
    # sites at i v lacks.
    budget, rank = config.term_budget, cartan.rank
    inside = frozenset(() if base is None else base.sites)
    at_node = _by_node((s, 1) for s in inside)
    base_at = [frozenset(at_node.get(j, ())) for j in cartan.nodes]
    at = _by_node(top.exps)
    pending = {(): ([at.pop(i, {}) for i in cartan.nodes], [0] * rank)}
    levels = {0: [()]}          # height -> pending terms, in the order found
    rows, chain_y = [], {}
    h, factors, n = 0, 0, 1     # n: terms found
    while levels:
        done = []
        for v in levels.pop(h, ()):
            ys, counts = pending.pop(v)
            mult = max(counts) if v else 1
            if mult <= 0:
                raise EngineError("engine fault: discovered monomial with no multiplicity")
            done.append((v, mult))
            for i, y in enumerate(ys, 1):
                deficit = mult - counts[i - 1]
                if deficit < 0:
                    raise EngineError("engine fault: node coverage exceeds multiplicity")
                if not (deficit and y):
                    continue
                if min(y.values()) < 0:
                    blocked = YMonomial(tuple(sorted(p for y in ys for p in y.items())),
                                        canonical=True)
                    raise EngineError(f"expansion blocked: monomial {format_monomial(blocked, t)} "
                                      f"has unexplained multiplicity at node {i} but is not "
                                      f"{i}-dominant")
                cap = None if bound is None else (bound - len(v) + len(inside.intersection(v))
                                                  + len(base_at[i - 1].difference(v)))
                for chain, c in _sl2_node_expansion(tuple(sorted(y.items())), cartan.d[i - 1],
                                                    cap, budget)[1:]:
                    v2 = tuple(sorted(v + chain))
                    entry = pending.get(v2)
                    if entry is None:
                        if inside and len(v2) - len(inside.intersection(v2)) > bound:
                            continue
                        dy = chain_y.get(chain)
                        if dy is None:
                            dy = chain_y[chain] = _by_node(
                                _walk(cartan, [(s, 1) for s in chain], 1, -1))
                        ys2 = ys.copy()
                        for j, part in dy.items():
                            y2 = ys2[j - 1] = ys[j - 1].copy()
                            for s, e in part.items():
                                if e := e + y2.get(s, 0):
                                    y2[s] = e
                                else:
                                    del y2[s]
                        entry = pending[v2] = (ys2, [0] * rank)
                        n += 1
                        factors += len(v2)
                        if n > budget or factors > budget:
                            raise EngineError(f"term budget {budget} exceeded during expansion "
                                              f"({n} terms, {factors} factors)")
                        levels.setdefault(h + len(chain), []).append(v2)
                    entry[1][i - 1] += c * deficit
        done.sort()
        rows += done
        h += 1
    return TruncatedCharacter(y_to_psi(cartan, top),
                              tuple([(AVector(v, canonical=True), c) for v, c in rows]), bound)


# ---------------------------------------------------------------------------
# Stabilized (asymptotic) characters.
# ---------------------------------------------------------------------------

def stabilize(cartan: CartanData, i: int, x, bound: int,
              config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Stable truncated normalized KR character lim_k nqc(W^(i)_{k,x}), with unit top.

    The limit converges (Hernandez--Jimbo, arXiv:1104.1891), and its
    truncation at height N is that of nqc(W^(i)_{N,x}): one expansion at
    k = N.  No shorter string gives it, since the i-chain
    A^-1_{i,x} ... A^-1_{i,x+(N-1)d_i} of height N is a term of nqc(W_k)
    only for k >= N.  That the truncation is the same for every k >= N is
    not proved here; tests/test_characters.py checks it against a search
    for two equal consecutive truncations, over types A to D and G and
    heights up to 8.
    """
    if bound < 0:
        raise ValueError("height bound must be >= 0")
    kr = fm_expand(cartan, _admit_kr(kr_top_y(cartan, i, bound, x, config), bound, config),
                   bound, config)
    return TruncatedCharacter(PsiMonomial.unit(), kr.terms, bound)


def asymptotic_char(cartan: CartanData, i: int, y, x, bound: int,
                    config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Character of the asymptotic module with top Psi_{i,y}/Psi_{i,x}."""
    y, x = coord(y), coord(x)
    stable = stabilize(cartan, i, x, bound, config)
    return TruncatedCharacter(PsiMonomial.gen(i, y) * PsiMonomial.gen(i, x, -1),
                              stable.terms, bound)


def prefundamental_char(cartan: CartanData, i: int, x, sign: str, bound: int,
                        config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Prefundamental characters: Psi_{i,x}^-1 with the stabilized ledger,
    or the one-dimensional Psi_{i,x}."""
    cartan.check_node(i)
    if sign not in ("+", "-"):
        raise ValueError("sign must be '+' or '-'")
    if bound < 0:
        raise ValueError("height bound must be >= 0")
    x = coord(x)
    if sign == "+":
        return TruncatedCharacter.make(PsiMonomial.gen(i, x), {AVector.unit(): 1}, bound)
    stable = stabilize(cartan, i, x, bound, config)
    return TruncatedCharacter(PsiMonomial.gen(i, x, -1), stable.terms, bound)


# ---------------------------------------------------------------------------
# Demazure characters via the short exact sequence.
# ---------------------------------------------------------------------------

def demazure_char_via_ses(cartan: CartanData, i: int, t: int, k: int, x,
                          bound: int | None = None,
                          config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """chi(D^(i,t)_{k,x}) as the exact difference of KR tensor products.

    chi(W_{k,x0}) chi(W_{k+t,x0+d_i}) - chi(W_{k-1,x0+d_i}) chi(W_{k+t+1,x0})
    at x0 = x - (k+1) d_i, so the kernel top sits at x.  Any negative
    coefficient is a hard failure: exactness of the sequence forces positivity.

    Each term of the difference is v0 v, v0 = prod_{m=1..k} A^-1_{i,x0+m d_i}
    the kernel top, so at a bound N it needs only the ledgers u with
    |u - v0| <= N, v0's k distinct sites each counted inside once.  They are
    an order ideal (a multiple of a ledger outside is outside), so the
    expansions, products and difference are exact on it, and the checks run.
    The four KR factors are expanded at their own coordinates and are not
    memoized; the kernel is.
    """
    if k < 1 or t < 0:
        raise ValueError("need k >= 1 and t >= 0")
    if bound is not None and bound < 0:
        raise ValueError("height bound must be >= 0")
    x = coord(x)
    return _FM_CACHE.memo(("ses", cartan, i, t, k, x, bound, config),
                          lambda: _demazure_char_via_ses(cartan, i, t, k, x, bound, config))


def _ses_sizes(k: int, t: int, bound: int | None) -> list:
    """The SES route's four KR strings, as kr_top_y counts them, then the chains each
    meets at its first pop: its node-i string, under a bounded expansion's cap bound + k."""
    lengths = (k, k + t, k - 1, k + t + 1)
    return [*((n, f"a KR string of {n} factors") for n in lengths),
            *(_chains(n if bound is None else min(n, bound + k)) for n in lengths)]


def _demazure_char_via_ses(cartan, i, t, k, x, bound, config):
    di = cartan.di(i)
    x0 = x - (k + 1) * di
    _check_budget(config, *(sizes := _ses_sizes(k, t, bound)))
    tops = [kr_top_y(cartan, i, n, base, config)
            for (n, _), base in zip(sizes, (x0, x0 + di, x0 + di, x0))]
    # the kernel top is w * prod_{m=1..k} A_{i,x0+m d_i}^-1
    v0 = _i_chain(cartan, i, x0 + di, k)
    a, b, c, d = (_fm_expand(cartan, top, bound, config, 0, None if bound is None else v0)
                  for top in tops)
    if a.top * b.top != c.top * d.top:
        raise EngineError("engine fault: SES tensor tops disagree")
    # One accumulator on site tuples: a*b added, c*d subtracted.  A key that
    # c*d adds is already a negative coefficient, so the budget on the
    # accumulator bounds each product exactly when the difference is valid.
    budget = config.term_budget
    diff = _ledger_acc(_sites(c.terms), _sites(d.terms), bound, budget,
                       _ledger_acc(_sites(a.terms), _sites(b.terms), bound, budget,
                                   base=v0.sites), -1, v0.sites)
    if min(diff.values()) < 0:
        raise EngineError("negative coefficient in SES difference: engine fault")
    if diff.get(v0.sites) != 1:
        raise EngineError("SES difference is missing its expected top term")
    rebased = {}
    for v, cc in diff.items():
        if cc:
            q = _remove(v, v0.sites)
            if q is None:
                raise EngineError(f"SES difference term {AVector(v, canonical=True)!r} "
                                  "does not contain the kernel top ledger")
            rebased[AVector(q, canonical=True)] = cc
    return TruncatedCharacter.make(a.top * b.top * avector_to_psi(cartan, v0), rebased, bound)
