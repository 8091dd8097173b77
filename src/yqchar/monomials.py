"""The monomial calculus of l-weights.

Three sparse Laurent-monomial types over the key set (node, coordinate):

* PsiMonomial -- elements of the group R generated by prefundamental
  weights Psi_{i,x} and their ratios;
* YMonomial   -- elements of the lattice P freely generated by the
  fundamental loop weights Y_{i,x};
* AVector     -- elements of the monoid Q_- recorded by the exponents of
  the inverted generalized simple roots A_{i,x}^{-1} (all exponents >= 1).

All types are immutable, canonical (no zero exponents, sorted keys) and
hashable.  Spectral coordinates are exact (see coords.Coord).

Storage: each (node, x) is one int *site* ``off2 << 32 | lane``: off2 =
floor(2 x.rat) counts half steps, and the lane interns (node, symbolic part,
rational residue x.rat - off2/2 in [0, 1/2)) in order of first use.  Only
this module reads a lane or a site's bits: ``_site`` makes a site, ``_unsite``
reads it back and ``format_monomial`` prints it (``textio`` parses the text);
off2 and the node are exact at any size, a half step is ``_HALF``.  Psi and Y
monomials store ``exps``, (site, exponent) pairs sorted by site.  An AVector
stores ``sites``, its sorted site multiset, so its height is ``len(sites)``
and a ledger product is ``tuple(sorted(a + b))``, one C merge.  Int order is
not Coord order: ``items()`` and ``ordered()`` give factors in (node, Coord)
order, for printing.  The one change of coordinates is ``_translate``, a
shift of every x by one rational t, which moves each site by a delta of its lane.
A shift keeps print order: (node, Coord) order compares the node, the
symbolic part, then the rational part, and a shift adds t to the last alone,
one to one; so rows keep their heights, exponents, ordered factors and order.
``_print_rows`` prints a ``_print_plan`` at x + t, as ``format_monomial(m, t)``
prints a monomial: each factor from its lane's text at t, no site moved.
``_factor_texts`` lists the plan's distinct factors at x + t; they fill the
plan's rows encoded once as JSON (``TruncatedCharacter._json_rows``), with
no join per row.
"""
from __future__ import annotations

import math
import threading
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from operator import itemgetter

from .cartan import CartanData, Weight
from .coords import Coord, coord, format_coord

__all__ = [
    "PsiMonomial", "YMonomial", "AVector",
    "expand_A_to_Psi",
    "weight_projection", "is_dominant",
    "psi_to_y", "y_to_psi", "avector_to_psi", "output_order", "format_monomial",
]

_HALF = 1 << 32             # a half step of the coordinate, added to a site
_LANE = _HALF - 1           # mask of the lane bits of a site
_LANES: list = []           # lane -> (node, sym, residue)
_LANE_IDS: dict = {}        # (node, sym, residue) -> lane
_LANE_LOCK = threading.Lock()
# Bound on the memos of single sites below.
_SITE_CACHE_SIZE = 4096


def _lane(i: int, sym: tuple, residue) -> int:
    key = (i, sym, residue)
    lane = _LANE_IDS.get(key)
    if lane is None:
        with _LANE_LOCK:
            if len(_LANES) > _LANE:
                raise OverflowError("more than 2**32 (node, coset) lanes")
            lane = _LANE_IDS.setdefault(key, len(_LANES))
            if lane == len(_LANES):
                _LANES.append(key)
    return lane


@lru_cache(maxsize=_SITE_CACHE_SIZE, typed=True)
def _site(i: int, x) -> int:
    """The site of (node i, coordinate x); a typed memo, so a float x is refused."""
    x = coord(x)
    n, d = x.rat.numerator, x.rat.denominator
    off2 = 2 * n // d       # floor(2 x.rat); the residue x.rat - off2/2 is (2n - off2 d) / 2d
    return off2 << 32 | _lane(i, x.sym, Fraction(2 * n - off2 * d, 2 * d))


def _unsite(s: int) -> tuple:
    """(node, Coord) of a site."""
    i, sym, residue = _LANES[s & _LANE]
    return i, Coord(residue + Fraction(s >> 32, 2), sym, canonical=True)


@lru_cache(maxsize=_SITE_CACHE_SIZE)
def _site_order(s: int) -> tuple:
    """A key of sites in (node, Coord) order: within a coset rat is off2 / 2
    plus the residue in [0, 1/2), so the residue is compared only at equal off2."""
    i, sym, residue = _LANES[s & _LANE]
    return i, sym, s >> 32, residue


def _by_node(exps) -> dict:
    """The exponents of (site, e) pairs summed per site, grouped by node: {node: {site: e}}."""
    out = {}
    for s, e in exps:
        part = out.setdefault(_LANES[s & _LANE][0], {})
        part[s] = part.get(s, 0) + e
    return out


def _canon(pairs, base=()) -> tuple:
    """Canonical exps of the product of canonical ``base`` and (site, e) pairs."""
    acc = dict(base)
    for s, e in pairs:
        acc[s] = acc.get(s, 0) + e
    return tuple(sorted([p for p in acc.items() if p[1]]))


def _sited(exps):
    """(site, e) pairs of ((node, coordinate), e) pairs."""
    return ((_site(i, x), e) for (i, x), e in exps)


class _Monomial:
    """What the three monomial types share; storage is per type."""

    __slots__ = ("_hash",)

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def unit(cls):
        """The unit: one instance per class, made at first use."""
        if "_unit" not in cls.__dict__:
            cls._unit = cls()
        return cls._unit

    @classmethod
    def gen(cls, i, x, e=1):
        return cls((((i, x), e),))

    def ordered(self) -> list:
        """(site, exponent) pairs in (node, Coord.sort_key) order."""
        return sorted(self.exps, key=lambda p: _site_order(p[0]))

    def items(self) -> tuple:
        """((node, Coord), exponent) pairs in (node, Coord.sort_key) order."""
        return tuple((_unsite(s), e) for s, e in self.ordered())

    def __pow__(self, n: int):
        return type(self)(tuple((k, e * n) for k, e in self.items()))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return format_monomial(self)


class _ExpMap(_Monomial):
    """Finitely supported map (node, coordinate) -> nonzero int, canonical form."""

    __slots__ = ("exps",)

    def __init__(self, exps=(), *, canonical=False):
        """``exps``: ((node, coordinate), exponent) pairs; ``canonical=True`` takes a tuple as built by ``_canon`` unchecked."""
        if not canonical:
            exps = _canon(_sited(exps))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash(exps))

    def is_unit(self) -> bool:
        return not self.exps

    def __mul__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot multiply {type(self).__name__} by {type(other).__name__}")
        if not other.exps:
            return self
        if not self.exps:
            return other
        return type(self)(_canon(other.exps, self.exps), canonical=True)

    def __eq__(self, other):
        return type(self) is type(other) and self.exps == other.exps

    __hash__ = _Monomial.__hash__


def _term_key(row):
    return len(row[0].sites), row[0].sites


def _print_plan(rows) -> tuple:
    """(sites, scale, keys, keyed) of rows whose first entry is an AVector: the
    distinct sites in (node, Coord) order, ranked as multiples of ``scale`` (a
    factor's key is the rank + exponent - 1), the distinct keys in order, and
    (positions in keys, row) per row in print order: by height, then by
    ordered factor lists."""
    rows = list(rows)
    vs = [r[0].sites for r in rows]
    sites = sorted(set().union(*vs), key=_site_order)
    scale = 1 + max(map(len, vs), default=0)
    rank = dict(zip(sites, range(0, scale * len(sites), scale))).__getitem__
    keyed = [(len(v), sorted(map(rank, v)), row) for v, row in zip(vs, rows)]
    for h, ks, _ in keyed:
        if len(set(ks)) < h:            # a repeated site: its rank once, + exponent - 1
            ks[:] = [k + e - 1 for k, e in Counter(ks).items()]
    keyed.sort(key=itemgetter(0, 1))
    keys = sorted(set().union(*[ks for _, ks, _ in keyed]))
    at = dict(zip(keys, range(len(keys)))).__getitem__
    return sites, scale, keys, [(list(map(at, ks)), row) for _, ks, row in keyed]


# Bound on the memos of factor texts and of lane texts (hits and misses: ROADMAP item 19).
# Both pay: job_p50_s rose 5.3% on identity_suite without the first, 5.7% on kr_complete
# without the second (10 pairs each, 1 of 10 better).
_TEXT_CACHE_SIZE = 4096


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _lane_text(head: str, lane: int, tn: int, td: int) -> tuple:
    """(``head[i,`` or ``Phi[i,q^``, 2 num, den, symbolic tail): residue + tn/td = num/den."""
    i, sym, r = _LANES[lane]
    return (f"{head}[{i}," + "q^" * (head == "Phi"), 2 * (r.numerator * td + tn * r.denominator),
            r.denominator * td, format_coord(1, 1, sym)[1:])


@lru_cache(maxsize=_TEXT_CACHE_SIZE)
def _factor_text(head: str, site: int, e: int, tn: int = 0, td: int = 1) -> str:
    """The factor at the site's x printed at x + tn/td = (2 num + off2 den) / (2 den)."""
    pre, n2, den, tail = _lane_text(head, site & _LANE, tn, td)
    g = math.gcd(n := n2 + (site >> 32) * den, d := 2 * den)
    cs = f"{n // g}{tail}" if g == d else f"{n // g}/{d // g}{tail}"
    cs = cs if n or not tail else format_coord(0, 1, _LANES[site & _LANE][1])
    return f"{pre}{cs}]" if e == 1 else f"{pre}{cs}]^{e}"


def format_monomial(m, t=0) -> str:
    """Canonical string form of m moved by the rational ``t``, each factor at
    x + t; at t = 0 the inverse of ``textio.parse_monomial`` on its output."""
    head = {"PsiMonomial": "Psi", "YMonomial": "Y", "AVector": "A",
            "MultiplicativeMonomial": "Phi"}[type(m).__name__]
    sign, tn, td = -1 if head == "A" else 1, t.numerator, t.denominator
    return " ".join([_factor_text(head, s, sign * e, tn, td) for s, e in m.ordered()]) or "1"


def _factor_texts(plan, t=0) -> list:
    """The texts of a ``_print_plan``'s distinct keys, in key order, each factor
    printed once at x + t (``_factor_text``): the rows moved by the rational t,
    no site moved."""
    sites, scale, keys, _ = plan
    tn, td = t.numerator, t.denominator
    return [_factor_text("A", sites[k // scale], -(k % scale + 1), tn, td) for k in keys]


def _print_rows(plan, t=0) -> list:
    """(row, text) pairs of a ``_print_plan`` at x + t (``_factor_texts``)."""
    text = _factor_texts(plan, t)
    return [(row, " ".join(map(text.__getitem__, ps)) or "1") for ps, row in plan[3]]


def output_order(rows) -> list:
    """(row, text) pairs in print order (see ``_print_plan``)."""
    rows = list(rows)       # none for a passing comparison or scan: nothing to rank
    return _print_rows(_print_plan(rows)) if rows else []


class PsiMonomial(_ExpMap):
    """Monomial in the prefundamental weights Psi_{i,x}."""


class YMonomial(_ExpMap):
    """Monomial in the fundamental loop weights Y_{i,x}."""


def _translate(t: Fraction, top, rows=()) -> tuple:
    """``top``, a Psi- or Y-monomial, and the (AVector, coefficient) ``rows``
    moved by the rational ``t``: (node, x) goes to (node, x + t), each distinct
    site once by its lane's delta, ``floor(2(res + t)) << 32`` plus the lane of
    (node, sym, res + t mod 1/2) less its own.  Returns (top, rows), the rows in
    (height, sites) order."""
    sites = {s for v, _ in rows for s in v.sites}.union(s for s, _ in top.exps)
    deltas, tn, td = {}, t.numerator, t.denominator
    for lane in {s & _LANE for s in sites}:
        i, sym, residue = _LANES[lane]
        n, d = residue.numerator * td + tn * residue.denominator, residue.denominator * td
        off2 = 2 * n // d   # as in _site, of res + t = n/d
        deltas[lane] = (off2 << 32) + _lane(i, sym, Fraction(2 * n - off2 * d, 2 * d)) - lane
    move = {s: s + deltas[s & _LANE] for s in sites}.__getitem__
    top = type(top)(tuple(sorted([(move(s), e) for s, e in top.exps])), canonical=True)
    rows = sorted([(AVector(tuple(sorted(map(move, v.sites))), canonical=True), c)
                   for v, c in rows], key=_term_key)
    return top, tuple(rows)


def _remove(a: tuple, b: tuple):
    """The sorted site multiset ``a`` less ``b``, or None if ``b`` is not in ``a``."""
    out = list(a)
    try:
        for s in b:
            out.remove(s)
    except ValueError:
        return None
    return tuple(out)


class AVector(_Monomial):
    """Product of A_{i,x}^{-1} factors with positive exponents (the A-ledger),
    stored as its sorted site multiset; ``height`` is the total exponent."""

    __slots__ = ("sites",)

    def __init__(self, exps=(), *, canonical=False):
        """As for the other types; ``canonical=True`` takes a sorted site tuple."""
        if not canonical:
            pairs = _canon(_sited(exps))
            if any(e < 0 for _, e in pairs):
                raise ValueError("AVector exponents must be nonnegative")
            exps = tuple(s for s, e in pairs for _ in range(e))
        object.__setattr__(self, "sites", exps)
        object.__setattr__(self, "_hash", hash(exps))

    @property
    def height(self) -> int:
        return len(self.sites)

    @property
    def exps(self) -> tuple:
        """(site, exponent) pairs sorted by site."""
        return tuple([(s, len(list(run))) for s, run in groupby(self.sites)])

    def is_unit(self) -> bool:
        return not self.sites

    def __mul__(self, other):
        if type(other) is not AVector:
            raise TypeError(f"cannot multiply AVector by {type(other).__name__}")
        return AVector(tuple(sorted(self.sites + other.sites)), canonical=True)

    def __eq__(self, other):
        return type(other) is AVector and self.sites == other.sites

    __hash__ = _Monomial.__hash__


# ---------------------------------------------------------------------------
# Expansions between the bases, on sites: x + s/2 at node j is a site of
# the lane (j, coset of x), s half steps up.
# ---------------------------------------------------------------------------

# Bound on the memoized offset tables below: one entry per Cartan type.
_OFFSETS_CACHE_SIZE = 64


@lru_cache(maxsize=_OFFSETS_CACHE_SIZE)
def _offsets(cartan: CartanData) -> tuple:
    """Per node i (at index i - 1): A_{i,x} in the Psi basis, A_{i,x} in the
    Y basis and Y_{i,x} in the Psi basis, each as (node, off2 offset from x,
    exponent) triples; then the same per lane, as site deltas.  With
    2 d_ij = d_i c_ij,

      A_{i,x} = prod_j Psi_{j,x+d_ij} / Psi_{j,x-d_ij}   (skip d_ij = 0)
              = Y_{i,x-d_i/2} Y_{i,x+d_i/2}
                * prod_{j: c_ji = -1} Y_{j,x}^-1
                * prod_{j: c_ji = -2} Y_{j,x+1/2}^-1 Y_{j,x-1/2}^-1
                * prod_{j: c_ji = -3} Y_{j,x+1}^-1 Y_{j,x}^-1 Y_{j,x-1}^-1,
      Y_{i,x} = Psi_{i,x+d_i/2} / Psi_{i,x-d_i/2}.
    """
    out = []
    for i in cartan.nodes:
        di = cartan.d[i - 1]
        a_psi = [(j, sign * di * cartan.cij(i, j), sign)
                 for j in cartan.nodes if cartan.cij(i, j) for sign in (1, -1)]
        # the -c_ji factors at node j are one coordinate unit apart, centred at x
        a_y = [(i, -di, 1), (i, di, 1)] + [
            (j, s, -1) for j in cartan.nodes
            for s in range(cartan.cij(j, i) + 1, -cartan.cij(j, i), 2)]
        out.append((tuple(a_psi), tuple(a_y), ((i, di, 1), (i, -di, -1))))
    # per basis, {lane: ((site delta, exponent), ...)}, filled as lanes are met
    return tuple(out), ({}, {}, {})


def _walk(cartan: CartanData, exps, basis: int, sign: int) -> list:
    """(site, e) pairs whose product over the (site, e) factors in ``exps`` is
    that of (expansion number ``basis`` of the site)^(sign e), see ``_offsets``;
    a site may repeat, with exponents that sum to zero."""
    by_node, by_lane = _offsets(cartan)
    tables = by_lane[basis]
    out = []
    for s, e in exps:
        lane = s & _LANE
        table = tables.get(lane)
        if table is None:
            i, sym, residue = _LANES[lane]
            table = tables[lane] = tuple((o * _HALF + _lane(j, sym, residue) - lane, f)
                                         for j, o, f in by_node[i - 1][basis])
        e *= sign
        out += [(s + d, f * e) for d, f in table]
    return out


def _i_chain(cartan: CartanData, i: int, x, k: int) -> AVector:
    """prod_{m=0..k-1} A^-1_{i,x+m d_i}: k sites on x's lane, 2 d_i half steps apart."""
    s, step = _site(i, x), 2 * cartan.d[i - 1] * _HALF
    return AVector(tuple(range(s, s + k * step, step)), canonical=True)


def _lane_sums(deltas, step) -> tuple:
    """Running sums of (site, delta) pairs along each class of sites: a lane, and
    off2 mod its step, ``step(lane)`` in site units (s is in class s % step(lane)).
    Returns the (site, sum) pairs at every site of a class from its first point
    to its last, 0 sums left out, and the (lowest, highest) point of each class
    whose sum does not come back to 0."""
    classes = {}
    for s, e in sorted(deltas):
        classes.setdefault(s % step(s & _LANE), []).append((s, e))
    out, left = [], []
    for c, ends in classes.items():
        by, run = step(c & _LANE), 0
        for q, e in ends:
            if run:
                out += [(p, run) for p in range(last, q, by)]
            run, last = run + e, q
        if run:
            left.append((ends[0][0], last))
    return out, left


def _i_chain_psi(cartan: CartanData, i: int, x, k: int) -> PsiMonomial:
    """``avector_to_psi(cartan, _i_chain(cartan, i, x, k))``, not walked over k sites:
    each Psi factor (p, e) of A^-1_{i,x} runs along p, p + step, ... (k sites), and
    node j's two lie c_ij steps apart on one lane, so their runs cancel but for
    min(|c_ij|, k) sites at each end, which ``_lane_sums`` over the run ends finds."""
    step, ends = 2 * cartan.d[i - 1] * _HALF, []
    for p, e in _walk(cartan, ((_site(i, x), 1),), 0, -1):
        ends += [(p, e), (p + k * step, -e)]
    return PsiMonomial(_canon(_lane_sums(ends, lambda lane: step)[0]), canonical=True)


def expand_A_to_Psi(cartan: CartanData, i: int, x) -> PsiMonomial:
    """A_{i,x} as a Psi-monomial (see ``_offsets``)."""
    cartan.check_node(i)
    return PsiMonomial(_canon(_walk(cartan, ((_site(i, x), 1),), 0, 1)), canonical=True)


def y_to_psi(cartan: CartanData, m: YMonomial) -> PsiMonomial:
    return PsiMonomial(_canon(_walk(cartan, m.exps, 2, 1)), canonical=True)


def avector_to_psi(cartan: CartanData, v: AVector) -> PsiMonomial:
    """The Psi-form of the Q_- element prod A_{i,x}^{-e}."""
    return PsiMonomial(_canon(_walk(cartan, v.exps, 0, -1)), canonical=True)


def avector_to_y(cartan: CartanData, v: AVector) -> YMonomial:
    """The Y-form of the Q_- element prod A_{i,x}^{-e} (a homomorphism)."""
    return YMonomial(_canon(_walk(cartan, v.exps, 1, -1)), canonical=True)


def psi_to_y(cartan: CartanData, m: PsiMonomial) -> YMonomial:
    """Factor a Psi-monomial in the lattice P into Y's.

    Y_{i,y} = Psi_{i,y+d_i/2} / Psi_{i,y-d_i/2}, so the exponent of Y_{i,y} is
    the sum of -e over the factors Psi_{i,x}^e with x + d_i/2 <= y in y's class
    mod d_i (one lane, off2 mod 2 d_i): ``_lane_sums`` of -e at x + d_i/2.
    Raises ValueError if m is not a product of Y's: a class sums to nonzero.
    """
    h = {s & _LANE: cartan.d[_LANES[s & _LANE][0] - 1] * _HALF for s, _ in m.exps}  # d_i / 2
    ys, left = _lane_sums([(s + h[s & _LANE], -e) for s, e in m.exps], lambda lane: 2 * h[lane])
    if left:
        # Name the class met first in (node, descending Coord) order, at its lowest Psi.
        (i, _), lo = max(((_unsite(hi - h[hi & _LANE]), lo - h[lo & _LANE]) for lo, hi in left),
                         key=lambda r: (-r[0][0], r[0][1].sort_key()))
        raise ValueError(f"monomial is not in the Y-lattice at node {i} "
                         f"(residual Psi_{{{i},{_unsite(lo)[1]}}})")
    return YMonomial(_canon(ys), canonical=True)


# ---------------------------------------------------------------------------
# Weight projection and dominance.
# ---------------------------------------------------------------------------

def weight_projection(cartan: CartanData, m) -> Weight:
    """The abelian group morphism R -> h^*.

    Each Psi_{i,x}^e contributes (e*x/d_i) varpi_i: the u^{-1} coefficient
    of log prod (u+x)^e is sum e*x (hbar = 1).  Y- and A-monomials are
    projected through their Psi-expansions.
    """
    if isinstance(m, YMonomial):
        m = y_to_psi(cartan, m)
    elif isinstance(m, AVector):
        m = avector_to_psi(cartan, m)
    acc = {i: Coord(0) for i in cartan.nodes}
    for (i, x), e in m.items():
        acc[i] = acc[i] + x * e
    return Weight(tuple(acc[i] / cartan.di(i) for i in cartan.nodes))


def is_dominant(m: YMonomial) -> bool:
    """All Y-exponents nonnegative (element of P_+)."""
    return all(e >= 0 for _, e in m.exps)
