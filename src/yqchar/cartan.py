"""Exact Cartan data for the finite-type simple Lie algebras.

Node numbering follows the Bourbaki convention:

  A_r : 1 - 2 - ... - r                                  all d_i = 1
  B_r : 1 - 2 - ... - (r-1) => r   (node r short)        d = (2,...,2,1)
  C_r : 1 - 2 - ... - (r-1) <= r   (node r long)         d = (1,...,1,2)
  D_r : 1 - ... - (r-2) < (r-1, r)                       all d_i = 1
  E_r : 1 - 3 - 4 - 5 - ... - r, with 2 attached to 4    all d_i = 1
  F_4 : 1 - 2 => 3 - 4   (3, 4 short)                    d = (2,2,1,1)
  G_2 : 1 <<= 2          (node 1 short)                  d = (1,3)

Here c[i][j] = 2(a_i,a_j)/(a_i,a_i), d_i = (a_i,a_i)/2 normalized to
{1,2,3} with gcd 1, and d_ij = (a_i,a_j)/2 = d_i*c_ij/2, so that
d_i*c_ij = d_j*c_ji = 2*d_ij.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import attrgetter

__all__ = ["LieType", "CartanData", "Weight", "build_cartan"]

# The largest rank of the series A-D: the Cartan matrix is dense, and a
# rank in the thousands costs a second and tens of MiB per type.
_MAX_RANK = 32
_RANK_RANGE = {
    "A": (1, _MAX_RANK), "B": (2, _MAX_RANK), "C": (2, _MAX_RANK), "D": (4, _MAX_RANK),
    "E": (6, 8), "F": (4, 4), "G": (2, 2),
}
# Bound on the memo of Cartan data: one entry per Lie type asked for.
_CARTAN_CACHE_SIZE = 64


def _frozen(cls):
    """``cls`` as ``dataclass(frozen=True)`` makes it, with no generated code: importing
    ``dataclasses`` and running its code cost each start about 13 ms on a 2-core box.  The
    fields are the class's annotations, their defaults its attributes.  An ``__init__`` or
    ``__hash__`` of ``cls`` is kept: a record built several times a job has a plain, faster
    ``__init__``.  Fields are set with ``object.__setattr__``; a ``__dict__`` write would
    slow every later read of them."""
    names = tuple(cls.__annotations__)
    known, defaults = frozenset(names), {n: cls.__dict__[n] for n in names if n in cls.__dict__}
    key, post_init = attrgetter(*names), getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        given = dict(zip(names, args), **kwargs)
        values = defaults | given
        if len(given) != len(args) + len(kwargs) or values.keys() != known:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}, got "
                            f"{len(args)} by position and {sorted(kwargs)} by keyword")
        for name in names:
            object.__setattr__(self, name, values[name])
        post_init(self)

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in names)})"

    def refuse(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    cls.__eq__, cls.__repr__, cls.__setattr__, cls.__delattr__ = __eq__, __repr__, refuse, refuse
    for name, made in (("__init__", __init__), ("__hash__", lambda self: hash(key(self)))):
        setattr(cls, name, cls.__dict__.get(name, made))
    return cls


@_frozen
class LieType:
    series: str
    rank: int

    def __post_init__(self):
        s = self.series
        if s not in _RANK_RANGE:
            raise ValueError(f"unknown series {s!r} (expected one of A-G)")
        lo, hi = _RANK_RANGE[s]
        if not lo <= self.rank <= hi:
            if s == "D" and self.rank == 3:
                raise ValueError("D3 is rejected; use the isomorphic A3")
            raise ValueError(f"illegal rank {self.rank} for series {s} "
                             f"(need rank in [{lo},{hi}])")

    @staticmethod
    def parse(text: str) -> "LieType":
        t = text.strip().upper()
        if len(t) < 2 or not t[1:].isdigit():
            raise ValueError(f"cannot parse Lie type {text!r} (expected e.g. 'A2', 'G2')")
        return LieType(t[0], int(t[1:]))

    def __str__(self):
        return f"{self.series}{self.rank}"


def _chain(r):
    """Off-diagonal -1 entries of a simply laced path 1-2-...-r."""
    return [(i, i + 1) for i in range(1, r)]


def _edges(lt: LieType):
    """Dynkin edges as (i, j, cij, cji) with 1-based nodes."""
    s, r = lt.series, lt.rank
    if s == "A":
        return [(i, j, -1, -1) for i, j in _chain(r)]
    if s == "B":
        e = [(i, j, -1, -1) for i, j in _chain(r - 1)]
        e.append((r - 1, r, -1, -2))
        return e
    if s == "C":
        e = [(i, j, -1, -1) for i, j in _chain(r - 1)]
        e.append((r - 1, r, -2, -1))
        return e
    if s == "D":
        e = [(i, j, -1, -1) for i, j in _chain(r - 2)]
        e += [(r - 2, r - 1, -1, -1), (r - 2, r, -1, -1)]
        return e
    if s == "E":
        pairs = [(1, 3), (3, 4), (2, 4)] + [(i, i + 1) for i in range(4, r)]
        return [(i, j, -1, -1) for i, j in pairs]
    if s == "F":
        return [(1, 2, -1, -1), (2, 3, -1, -2), (3, 4, -1, -1)]
    if s == "G":
        return [(1, 2, -3, -1)]
    raise AssertionError(s)


@_frozen
class CartanData:
    lie_type: LieType
    c: tuple          # rank x rank Cartan matrix, rows/cols 0-based
    d: tuple          # symmetrizers d_i in {1,2,3}, gcd 1

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def nodes(self):
        return range(1, self.rank + 1)

    def check_node(self, i: int) -> int:
        """The 0-based index of node i; ValueError outside 1..rank."""
        if not 1 <= i <= len(self.d):
            raise ValueError(f"node {i} out of range 1..{len(self.d)} for {self.lie_type}")
        return i - 1

    def cij(self, i: int, j: int) -> int:
        return self.c[self.check_node(i)][self.check_node(j)]

    def di(self, i: int) -> Fraction:
        return self._di[self.check_node(i)]

    def neighbours(self, i: int) -> tuple:
        """(j, c_ij, d_ij) for each node j with c_ij < 0, in node order."""
        return self._neighbours[self.check_node(i)]

    def __post_init__(self):
        """Tables that the engine reads, and a hash that it keys memos by, on every job."""
        object.__setattr__(self, "_hash", hash((self.lie_type, self.c, self.d)))
        object.__setattr__(self, "_di", tuple(map(Fraction, self.d)))
        object.__setattr__(self, "_neighbours", tuple(
            tuple((j, c, Fraction(c * di, 2)) for j, c in enumerate(row, 1) if c < 0)
            for row, di in zip(self.c, self.d)))

    def __hash__(self):
        return self._hash

    def validate(self):
        r = self.rank
        assert all(self.c[i][i] == 2 for i in range(r))
        assert all(self.c[i][j] in (0, -1, -2, -3)
                   for i in range(r) for j in range(r) if i != j)
        assert all(di in (1, 2, 3) for di in self.d)
        assert gcd(*self.d) == 1 if r > 1 else self.d == (1,)
        for i in range(r):
            for j in range(r):
                assert self.d[i] * self.c[i][j] == self.d[j] * self.c[j][i]


@lru_cache(maxsize=_CARTAN_CACHE_SIZE)
def build_cartan(lt: LieType) -> CartanData:
    """Cartan matrix and symmetrizers of a legal LieType (Bourbaki numbering).
    d is solved from the edge table, d_j = d_i*c_ij/c_ji in edge order, and
    scaled to least integers; validate() rejects an order that breaks this."""
    r = lt.rank
    c = [[2 if i == j else 0 for j in range(r)] for i in range(r)]
    d = [Fraction(1)] * r
    for i, j, cij, cji in _edges(lt):
        c[i - 1][j - 1] = cij
        c[j - 1][i - 1] = cji
        d[j - 1] = d[i - 1] * cij / cji
    scale = lcm(*(di.denominator for di in d))
    data = CartanData(lt, tuple(tuple(row) for row in c), tuple(int(di * scale) for di in d))
    data.validate()
    return data


@_frozen
class Weight:
    """Vector in the fundamental-weight basis (varpi-basis); coordinates are
    exact rationals or Coord values."""
    coords: tuple

    @staticmethod
    def fundamental(cartan: CartanData, i: int) -> "Weight":
        return Weight(tuple(Fraction(1) if j == i else Fraction(0) for j in cartan.nodes))

    @staticmethod
    def simple_root(cartan: CartanData, i: int) -> "Weight":
        """alpha_i expressed in the varpi-basis: alpha_j = sum_i c_ij varpi_i."""
        return Weight(tuple(Fraction(cartan.cij(j, i)) for j in cartan.nodes))
