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
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .cartan import CartanData, Weight
from .coords import Coord, coord

__all__ = [
    "PsiMonomial", "YMonomial", "AVector",
    "expand_A_to_Psi", "expand_Y_to_Psi", "expand_A_to_Y",
    "weight_projection", "is_dominant", "is_right_negative",
    "psi_to_y", "y_to_psi", "avector_to_psi",
]


class _ExpMap:
    """Finitely supported map (node, Coord) -> nonzero int, canonical form."""

    __slots__ = ("exps", "_hash")

    def __init__(self, exps=(), *, canonical=False):
        """``canonical=True`` trusts ``exps`` to be a canonical tuple already
        (as built by ``__mul__``) and skips coercion, sorting and checks."""
        if not canonical:
            items = {}
            for (i, x), e in (exps.items() if isinstance(exps, dict) else exps):
                k = (i, coord(x))
                e = items.get(k, 0) + e
                if e:
                    items[k] = e
                elif k in items:
                    del items[k]
            exps = tuple(sorted(items.items(),
                                key=lambda kv: (kv[0][0], kv[0][1].sort_key())))
        object.__setattr__(self, "exps", exps)
        object.__setattr__(self, "_hash", hash((type(self).__name__, exps)))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def unit(cls):
        return cls()

    @classmethod
    def gen(cls, i, x, e=1):
        return cls((((i, coord(x)), e),))

    def items(self):
        return self.exps

    def exp(self, i, x) -> int:
        x = coord(x)
        for (j, y), e in self.exps:
            if j == i and y == x:
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
        if n == 0:
            return type(self).unit()
        return type(self)(tuple((k, e * n) for k, e in self.exps))

    def inverse(self):
        return self ** -1

    def shift(self, a):
        """Replace every coordinate x by x + a (a group homomorphism)."""
        a = coord(a)
        return type(self)(tuple(((i, x + a), e) for (i, x), e in self.exps))

    def __eq__(self, other):
        return type(self) is type(other) and self.exps == other.exps

    def __hash__(self):
        return self._hash

    def __repr__(self):
        from .textio import format_monomial
        return format_monomial(self)


def _merge(a: tuple, b: tuple) -> tuple:
    """Product of two canonical exponent tuples, in canonical form.

    One pass over both sorted tuples: equal keys add their exponents (and
    vanish at zero), the rest interleave in (node, Coord.sort_key) order.
    A product of two nonnegative maps stays nonnegative, so AVector needs
    no sign re-check.
    """
    out = []
    ia = ib = 0
    na, nb = len(a), len(b)
    while ia < na and ib < nb:
        (i, x), e = a[ia]
        (j, y), f = b[ib]
        # Coord hashes are cached: comparing them first rejects unequal keys
        # without Fraction arithmetic.
        if i == j and hash(x) == hash(y) and x == y:
            if e + f:
                out.append(((i, x), e + f))
            ia += 1
            ib += 1
        elif i < j or (i == j and x.sort_key() < y.sort_key()):
            out.append(a[ia])
            ia += 1
        else:
            out.append(b[ib])
            ib += 1
    out += a[ia:]
    out += b[ib:]
    return tuple(out)


class PsiMonomial(_ExpMap):
    """Monomial in the prefundamental weights Psi_{i,x}."""


class YMonomial(_ExpMap):
    """Monomial in the fundamental loop weights Y_{i,x}."""


class AVector(_ExpMap):
    """Product of A_{i,x}^{-1} factors with positive exponents (the A-ledger)."""

    def __init__(self, exps=(), *, canonical=False):
        super().__init__(exps, canonical=canonical)
        if not canonical and any(e < 0 for _, e in self.exps):
            raise ValueError("AVector exponents must be nonnegative")

    def height(self) -> int:
        return sum(e for _, e in self.exps)

    def contains(self, other: "AVector") -> bool:
        return all(self.exp(i, x) >= e for (i, x), e in other.exps)

    def divide(self, other: "AVector") -> "AVector":
        if not self.contains(other):
            raise ValueError(f"{self!r} is not divisible by {other!r}")
        return AVector(self.exps + tuple((k, -e) for k, e in other.exps))


# ---------------------------------------------------------------------------
# Expansions between the bases.
# ---------------------------------------------------------------------------

def expand_A_to_Psi(cartan: CartanData, i: int, x) -> PsiMonomial:
    """A_{i,x} = prod_j Psi_{j,x+d_ij} / Psi_{j,x-d_ij} (skip d_ij = 0)."""
    x = coord(x)
    factors = []
    for j in cartan.nodes:
        dij = cartan.dij(i, j)
        if dij == 0:
            continue
        factors.append(((j, x + dij), 1))
        factors.append(((j, x - dij), -1))
    return PsiMonomial(tuple(factors))


def expand_Y_to_Psi(cartan: CartanData, i: int, x) -> PsiMonomial:
    """Y_{i,x} = Psi_{i,x+d_i/2} / Psi_{i,x-d_i/2}."""
    x = coord(x)
    h = cartan.di(i) / 2
    return PsiMonomial((((i, x + h), 1), ((i, x - h), -1)))


def expand_A_to_Y(cartan: CartanData, i: int, x) -> YMonomial:
    """A_{i,x} as a Y-monomial.

    A_{i,x} = Y_{i,x-d_i/2} Y_{i,x+d_i/2}
              * prod_{j: c_ji = -1} Y_{j,x}^-1
              * prod_{j: c_ji = -2} Y_{j,x+1/2}^-1 Y_{j,x-1/2}^-1
              * prod_{j: c_ji = -3} Y_{j,x+1}^-1 Y_{j,x}^-1 Y_{j,x-1}^-1.
    """
    x = coord(x)
    h = cartan.di(i) / 2
    factors = [((i, x - h), 1), ((i, x + h), 1)]
    for j in cartan.nodes:
        cji = cartan.cij(j, i)
        if cji == -1:
            factors.append(((j, x), -1))
        elif cji == -2:
            factors += [((j, x + Fraction(1, 2)), -1), ((j, x - Fraction(1, 2)), -1)]
        elif cji == -3:
            factors += [((j, x + 1), -1), ((j, x), -1), ((j, x - 1), -1)]
    return YMonomial(tuple(factors))


def y_to_psi(cartan: CartanData, m: YMonomial) -> PsiMonomial:
    out = PsiMonomial.unit()
    for (i, x), e in m.items():
        out = out * expand_Y_to_Psi(cartan, i, x) ** e
    return out


def avector_to_psi(cartan: CartanData, v: AVector) -> PsiMonomial:
    """The Psi-form of the Q_- element prod A_{i,x}^{-e}."""
    out = PsiMonomial.unit()
    for (i, x), e in v.items():
        out = out * expand_A_to_Psi(cartan, i, x) ** (-e)
    return out


# Bound on the memoized per-generator A -> Y expansions.  A complete KR
# character such as E6 n1 k2 or B4 n4 k3 meets under 30 distinct generators,
# so the bound holds those of dozens of expansions while a process running
# many unrelated ones keeps a flat footprint.
_A_TO_Y_CACHE_SIZE = 1024


@lru_cache(maxsize=_A_TO_Y_CACHE_SIZE)
def _a_to_y_power(cartan: CartanData, i: int, x: Coord, e: int) -> YMonomial:
    """A_{i,x}^-e as a Y-monomial."""
    return expand_A_to_Y(cartan, i, x) ** (-e)


def avector_to_y(cartan: CartanData, v: AVector) -> YMonomial:
    """The Y-form of the Q_- element prod A_{i,x}^{-e} (a homomorphism)."""
    out = YMonomial.unit()
    for (i, x), e in v.items():
        out = out * _a_to_y_power(cartan, i, x, e)
    return out


def psi_to_y(cartan: CartanData, m: PsiMonomial) -> YMonomial:
    """Factor a Psi-monomial in the lattice P into Y's.

    Per node and per (1/2)Z-coset of coordinates, solve the telescoping
    system e_{i,x} = c_{i,x-d_i/2} - c_{i,x+d_i/2} from the top down.
    Raises ValueError if m is not a product of Y's.
    """
    factors = []
    per_node = {}
    for (i, x), e in m.items():
        per_node.setdefault(i, {})[x] = e
    for i, exps in per_node.items():
        h = cartan.di(i) / 2
        # coset key: coordinate modulo d_i shifts (same symbolic part,
        # rational parts differing by a multiple of d_i)
        cosets = {}
        for x in sorted(exps, key=Coord.sort_key, reverse=True):
            for rep in cosets:
                diff = x - rep
                if diff.is_rational and (diff.rat / (2 * h)).denominator == 1:
                    cosets[rep].append(x)
                    break
            else:
                cosets[x] = [x]
        for xs in cosets.values():
            carry = 0          # c_{i, x + d_i/2} for the position above
            prev = None
            for x in xs:       # descending
                if prev is not None:
                    # positions strictly between prev and x have e = 0
                    steps = int((prev - x).rat / (2 * h))
                    if carry:
                        for s in range(1, steps):
                            factors.append(((i, prev - (2 * h) * s - h), carry))
                prev = x
                carry = exps[x] + carry
                if carry:
                    factors.append(((i, x - h), carry))
            if carry != 0:
                raise ValueError(
                    f"monomial is not in the Y-lattice at node {i} (residual Psi_{{{i},{xs[-1]}}})")
    return YMonomial(tuple(factors))


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
    return all(e >= 0 for _, e in m.items())


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
