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

Storage: ``exps`` is a sorted tuple of int 4-tuples (node, cid, off2, e).
(cid, off2) is the integer key of the coordinate (``coords.encode``: an
interned coset of x mod 1/2 and the count of half steps from it) and e
the nonzero exponent.  Products, hashing, equality and dict lookups so run
on ints, and a half step in a hot path is off2 +- 1.  The tuple is in
plain int order, not in Coord order: ``items()`` and ``exp()`` speak Coord
and give the factors in (node, Coord) order, for printing and cold callers.
"""
from __future__ import annotations

from functools import lru_cache
from operator import itemgetter

from .cartan import CartanData, Weight
from .coords import Coord, coord, decode, encode, shift_coset

__all__ = [
    "PsiMonomial", "YMonomial", "AVector",
    "expand_A_to_Psi", "expand_Y_to_Psi", "expand_A_to_Y",
    "weight_projection", "is_dominant", "is_right_negative",
    "psi_to_y", "y_to_psi", "avector_to_psi", "output_order",
]


class _ExpMap:
    """Finitely supported map (node, coordinate) -> nonzero int, canonical form."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=(), *, canonical=False):
        """``exps``: ((node, coordinate), exponent) pairs or a dict of them.
        ``canonical=True`` takes a canonical tuple of (node, cid, off2, e)
        instead (as built by ``_merge`` or ``_canon``) and skips all checks."""
        if not canonical:
            exps = _canon((i, *encode(x), e) for (i, x), e in
                          (exps.items() if isinstance(exps, dict) else exps))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash((type(self).__name__, exps)))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def unit(cls):
        return cls()

    @classmethod
    def gen(cls, i, x, e=1):
        return cls((((i, x), e),))

    def items(self) -> tuple:
        """((node, Coord), exponent) pairs in (node, Coord.sort_key) order."""
        ex = self.exps
        out = [((i, decode(c, o)), e) for i, c, o, e in ex]
        # Within one (node, coset) off2 order is Coord order; only a node
        # that spans several cosets needs a sort.
        if any(a[0] == b[0] and a[1] != b[1] for a, b in zip(ex, ex[1:])):
            out.sort(key=lambda kv: (kv[0][0], kv[0][1].sort_key()))
        return tuple(out)

    def exp(self, i, x) -> int:
        c, o = encode(x)
        for j, d, p, e in self.exps:
            if j == i and d == c and p == o:
                return e
        return 0

    def is_unit(self) -> bool:
        return not self.exps

    def __mul__(self, other):
        if type(other) is not type(self):
            raise TypeError(f"cannot multiply {type(self).__name__} by {type(other).__name__}")
        if not other.exps:
            return self
        if not self.exps:
            return other
        return type(self)(_merge(self.exps, other.exps), canonical=True)

    def __pow__(self, n: int):
        return type(self)(tuple((k, e * n) for k, e in self.items()))

    def inverse(self):
        return self ** -1

    def shift(self, a):
        """Replace every coordinate x by x + a (a group homomorphism)."""
        a = coord(a)
        if a.is_half_integer():     # same cosets, same order
            d = int(2 * a.rat)
            return type(self)(tuple((i, c, o + d, e) for i, c, o, e in self.exps),
                              canonical=True)
        moved = {c: shift_coset(c, a) for _, c, _, _ in self.exps}
        return type(self)(tuple(sorted((i, moved[c][0], o + moved[c][1], e)
                                       for i, c, o, e in self.exps)), canonical=True)

    def __eq__(self, other):
        return type(self) is type(other) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .textio import format_monomial
        return format_monomial(self)


def _canon(quads) -> tuple:
    """Canonical exps from (node, cid, off2, e) quads in any order, keys repeated."""
    acc = {}
    for i, c, o, e in quads:
        k = (i, c, o)
        acc[k] = acc.get(k, 0) + e
    return tuple(sorted((i, c, o, e) for (i, c, o), e in acc.items() if e))


def _merge(a: tuple, b: tuple) -> tuple:
    """Product of two canonical exponent tuples, in canonical form.

    One pass over both sorted tuples: equal keys add their exponents (and
    vanish at zero), the rest interleave in int order.  A product of two
    nonnegative maps stays nonnegative, so AVector needs no sign re-check.
    """
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        x = a[ia]
        y = b[ib]
        if x[0] == y[0] and x[1] == y[1] and x[2] == y[2]:
            e = x[3] + y[3]
            if e:
                out.append((x[0], x[1], x[2], e))
            ia += 1
            ib += 1
        elif x < y:         # keys differ, so the exponents never decide
            out.append(x)
            ia += 1
        else:
            out.append(y)
            ib += 1
    out += a[ia:]
    out += b[ib:]
    return tuple(out)


def _term_key(row):
    return row[0].height, row[0].exps


def output_order(rows) -> list:
    """Rows whose first entry is an AVector, sorted as they are printed: by
    height, then by factor lists compared in (node, Coord) order.

    Storage order is int order, which agrees with Coord order inside one
    coordinate coset.  Across cosets the distinct coordinates are ranked
    once and the ranks compared.
    """
    rows = list(rows)
    keys = {t[1:3] for r in rows for t in r[0].exps}
    if len({c for c, _ in keys}) < 2:
        return sorted(rows, key=_term_key)
    rank = {k: n for n, k in enumerate(sorted(keys, key=lambda k: decode(*k).sort_key()))}
    return sorted(rows, key=lambda r: (r[0].height, sorted(
        (i, rank[c, o], e) for i, c, o, e in r[0].exps)))


class PsiMonomial(_ExpMap):
    """Monomial in the prefundamental weights Psi_{i,x}."""


class YMonomial(_ExpMap):
    """Monomial in the fundamental loop weights Y_{i,x}."""


class AVector(_ExpMap):
    """Product of A_{i,x}^{-1} factors with positive exponents (the A-ledger).

    ``height`` is the total exponent, computed once.
    """

    __slots__ = ("height",)

    def __init__(self, exps=(), *, canonical=False):
        super().__init__(exps, canonical=canonical)
        if not canonical and any(t[3] < 0 for t in self.exps):
            raise ValueError("AVector exponents must be nonnegative")
        object.__setattr__(self, "height", sum(map(itemgetter(3), self.exps)))

    def _quotient(self, other: "AVector") -> tuple:
        return _merge(self.exps, tuple((i, c, o, -e) for i, c, o, e in other.exps))

    def contains(self, other: "AVector") -> bool:
        return all(t[3] > 0 for t in self._quotient(other))

    def divide(self, other: "AVector") -> "AVector":
        q = self._quotient(other)
        if any(t[3] < 0 for t in q):
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return AVector(q, canonical=True)



# ---------------------------------------------------------------------------
# Expansions between the bases, on storage keys: a coordinate x is
# (cid, o), and x + s/2 is (cid, o + s).
# ---------------------------------------------------------------------------

# Bound on the memoized offset tables below: one entry per Cartan type.
_OFFSETS_CACHE_SIZE = 64


@lru_cache(maxsize=_OFFSETS_CACHE_SIZE)
def _offsets(cartan: CartanData) -> tuple:
    """Per node i (at index i - 1): A_{i,x} in the Psi basis, A_{i,x} in the
    Y basis and Y_{i,x} in the Psi basis, each as (node, off2 offset from x,
    exponent) triples.  With 2 d_ij = d_i c_ij,

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
    return tuple(out)


def _expand(cartan: CartanData, exps: tuple, basis: int, sign: int) -> tuple:
    """Canonical exps of the product over the factors (i, x)^e in ``exps``
    of (expansion number ``basis`` of (i, x))^(sign e), see ``_offsets``."""
    table = _offsets(cartan)
    return _canon((j, c, o + s, sign * f * e) for i, c, o, e in exps
                  for j, s, f in table[i - 1][basis])


def _gen(cartan: CartanData, i: int, x) -> tuple:
    cartan.check_node(i)
    return ((i, *encode(x), 1),)


def expand_A_to_Psi(cartan: CartanData, i: int, x) -> PsiMonomial:
    """A_{i,x} as a Psi-monomial (see ``_offsets``)."""
    return PsiMonomial(_expand(cartan, _gen(cartan, i, x), 0, 1), canonical=True)


def expand_Y_to_Psi(cartan: CartanData, i: int, x) -> PsiMonomial:
    """Y_{i,x} = Psi_{i,x+d_i/2} / Psi_{i,x-d_i/2}."""
    return PsiMonomial(_expand(cartan, _gen(cartan, i, x), 2, 1), canonical=True)


def expand_A_to_Y(cartan: CartanData, i: int, x) -> YMonomial:
    """A_{i,x} as a Y-monomial (see ``_offsets``)."""
    return YMonomial(_expand(cartan, _gen(cartan, i, x), 1, 1), canonical=True)


def y_to_psi(cartan: CartanData, m: YMonomial) -> PsiMonomial:
    return PsiMonomial(_expand(cartan, m.exps, 2, 1), canonical=True)


def avector_to_psi(cartan: CartanData, v: AVector) -> PsiMonomial:
    """The Psi-form of the Q_- element prod A_{i,x}^{-e}."""
    return PsiMonomial(_expand(cartan, v.exps, 0, -1), canonical=True)


def avector_to_y(cartan: CartanData, v: AVector) -> YMonomial:
    """The Y-form of the Q_- element prod A_{i,x}^{-e} (a homomorphism)."""
    return YMonomial(_expand(cartan, v.exps, 1, -1), canonical=True)


def psi_to_y(cartan: CartanData, m: PsiMonomial) -> YMonomial:
    """Factor a Psi-monomial in the lattice P into Y's.

    Per node and per class of coordinates mod d_i (one coset, off2 mod
    2 d_i), solve the telescoping system e_{i,x} = c_{i,x-d_i/2} -
    c_{i,x+d_i/2} from the top down.  Raises ValueError if m is not a
    product of Y's.
    """
    classes = {}
    for i, c, o, e in m.exps:
        classes.setdefault((i, c, o % (2 * cartan.d[i - 1])), []).append((o, e))
    factors = []
    residual = []
    for (i, c, _), xs in classes.items():
        di = cartan.d[i - 1]
        carry = 0          # c_{i, x + d_i/2} for the position above
        prev = None
        for o, e in reversed(xs):       # descending
            if prev is not None and carry:
                # positions strictly between prev and o have e = 0
                factors += [(i, c, p - di, carry) for p in range(prev - 2 * di, o, -2 * di)]
            prev = o
            carry += e
            if carry:
                factors.append((i, c, o - di, carry))
        if carry:
            residual.append((i, decode(c, xs[-1][0]), decode(c, xs[0][0])))
    if residual:
        # Name the class met first in (node, descending Coord) order.
        i = min(r[0] for r in residual)
        _, _, x = max((r for r in residual if r[0] == i), key=lambda r: r[1].sort_key())
        raise ValueError(f"monomial is not in the Y-lattice at node {i} (residual Psi_{{{i},{x}}})")
    return YMonomial(_canon(factors), canonical=True)


# ---------------------------------------------------------------------------
# Weight projection, dominance, right-negativity.
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
    return all(t[3] >= 0 for t in m.exps)


def is_right_negative(m: YMonomial) -> bool:
    """Condition (RN): m != 1 and every positive Y-exponent at (i,x) is
    matched by a negative one at some (j,y) with y - x in (1/2)Z_{<0}.

    Differences with a symbolic part never qualify as half integers.
    """
    if m.is_unit():
        return False
    negatives = [y for (_, y), e in m.items() if e < 0]
    for (_, x), e in m.items():
        if e <= 0:
            continue
        ok = any((y - x).is_half_integer() and (y - x).rat < 0 for y in negatives)
        if not ok:
            return False
    return True
