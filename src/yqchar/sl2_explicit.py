"""Exact rank-one matrix modules, stored by band.

On the basis v_0, ..., v_{dim-1} the generator modes act by (hbar = 1):

    xp_n v_i = (-x+1-i)^n v_{i-1},
    xm_n v_i = (-x-i)^n (i+1)(k-i) v_{i+1},
    xi(u) v_i = (u+x-1)(u+x+k) / ((u+x+i-1)(u+x+i)) v_i,

with xi modes read off the exact u^{-1}-expansion of the eigenvalue
series.  Each mode is one super-, sub- or main diagonal, so a module stores
it as the tuple of its dim coefficients: ``xp[n][i]``, ``xm[n][i]`` and
``xi[n][i]`` are the coefficients of xp_n v_i, xm_n v_i and xi_n v_i
(``xp[n][0]`` and ``xm[n][dim-1]`` are 0, their targets lie outside the
basis).  Every entry is an int over the module's one ``den``, built in one pass over the
basis from ints over D = lcm(den x, den k), X = Dx and K = Dk.  The relation checker reads
the bands as stored and forms each side of each relation column by column, one list over
the bands with no dense matrix, compared over den squared; it holds O(modes * dim) ints.

Finite modules (k a nonnegative integer) close on dim = k+1 vectors;
truncated modules keep the first M vectors of the infinite tower, on which
the defining relations hold on a safe interior of the basis (the last two
columns may leak past the truncation).

Nothing here calls ``fm_expand``.  Extraction builds no module, reads no stored band and
decodes no site: it runs only the xi recurrence, on ints, against the series predicted by
the engine's A_1 row read off its sites (two int recurrences of exactly dim steps each).
"""
from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .cartan import LieType, _frozen, build_cartan
from .monomials import _HALF, AVector, PsiMonomial, _i_chain, _site, expand_A_to_Psi
from .characters import (
    DEFAULT_CONFIG, EngineConfig, Report, TruncatedCharacter, _check_budget,
    char_add, char_mul, compare_characters,
)

__all__ = [
    "Sl2Module", "build_module", "check_relations", "relation_instances", "relation_report",
    "extract_qchar", "three_term_sides", "verify_sl2_three_term",
]

SAFE_MARGIN = 2
_SL2 = build_cartan(LieType.parse("A1"))


# ---------------------------------------------------------------------------
# Eigenvalue series 1 + c1/u + c2/u^2 + ..., held as the ints S[n] = D^n c_n.
# ---------------------------------------------------------------------------

def _lift(a, D: int) -> int:
    """D a as an int; D must be a multiple of a's denominator."""
    q, r = divmod(D, a.denominator)
    if r:
        raise ValueError(f"series denominator {D} is not a multiple of that of {a}")
    return a.numerator * q


def _series_times(out: list, factors) -> list:
    """Multiply ``out`` (S[n] = D^n c_n) in place by prod (1 + a/u)^e = prod (u+a)^e / u^e
    over the int pairs (p, e) ``factors``, p = D a, and return it; O(len(out)) per e."""
    order = len(out) - 1
    for p, e in factors:
        for _ in range(abs(e)):
            if e > 0:       # times (1 + a/u): descending, so out[n-1] is still old
                for n in range(order, 0, -1):
                    out[n] += p * out[n - 1]
            else:           # divided by (1 + a/u): ascending, out[n-1] is already new
                for n in range(1, order + 1):
                    out[n] -= p * out[n - 1]
    return out


def _xi_series(X: int, K: int, D: int, dim: int, order: int):
    """Yield the xi(u) series S[0..order] of v_0, ..., v_{dim-1} over D, X = Dx, K = Dk, in
    one list stepped in place: (u+x+k)/(u+x) on v_0, times (u+x+i-1)/(u+x+i+1) to v_{i+1}."""
    S = [1] + [0] * order
    for i in range(dim):
        yield _series_times(S, ((X + (i - 2) * D if i else X + K, 1), (X + i * D, -1)))


# ---------------------------------------------------------------------------
# Modules.
# ---------------------------------------------------------------------------

@_frozen
class Sl2Module:
    kind: str                 # "finite" | "truncated"
    k: Fraction
    x: Fraction
    dim: int
    mode_bound: int           # n_max
    den: int                  # every band entry below is an int meaning entry / den
    xp: tuple                 # raising modes 0..n_max+1; xp[n][i]: xp_n v_i on v_{i-1}
    xm: tuple                 # lowering modes 0..n_max+1; xm[n][i]: xm_n v_i on v_{i+1}
    xi: tuple                 # Cartan modes 0..max(2 n_max, n_max+1); xi[n][i]: on v_i

    @property
    def safe_columns(self) -> range:
        """Basis columns on which operator identities are exactly checkable."""
        return range(self.dim - (0 if self.kind == "finite" else SAFE_MARGIN))


def _shape(kind: str, k, x, n_max: int, M: int | None, config: EngineConfig) -> tuple:
    """(k, x, dim, pm_modes, xi_modes, D, Dx, Dk), D = lcm(den x, den k), or the refusal."""
    k, x = Fraction(k), Fraction(x)
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if kind == "finite":
        if k.denominator != 1 or k < 0:
            raise ValueError("finite modules need integer k >= 0")
        dim = int(k) + 1
    elif kind == "truncated":
        if M is None or M < 3:
            raise ValueError("truncated modules need M >= 3 (no safe interior otherwise)")
        dim = M
    else:
        raise ValueError(f"unknown module kind {kind!r}")
    pm_modes, xi_modes = n_max + 2, max(2 * n_max, n_max + 1) + 1
    _check_budget(config, (dim * (2 * pm_modes + xi_modes), f"a {kind} module of dimension "
                           f"{dim} with {pm_modes} raising/lowering and {xi_modes} Cartan modes"))
    D = lcm(x.denominator, k.denominator)
    return k, x, dim, pm_modes, xi_modes, D, _lift(x, D), _lift(k, D)


def build_module(kind: str, k, x, n_max: int = 3, M: int | None = None,
                 config: EngineConfig = DEFAULT_CONFIG) -> Sl2Module:
    """Exact operator bands for the rank-one highest-weight module.

    The stored entries, dim * (2 (n_max+2) + xi modes), must fit in ``config.term_budget``;
    a larger module raises EngineError before any allocation.  At fixed x, M and n_max
    each entry is affine in k (xm_n v_i carries k - i, xi(u) the one factor u+x+k), so
    each relation instance ``check_relations`` tests is a polynomial of degree <= 2 in k.
    Entries are ints over den = D^P, P the Cartan mode count: xm_n and xi_n need D^(n+1)."""
    k, x, dim, pm_modes, xi_modes, D, X, K = _shape(kind, k, x, n_max, M, config)
    # Over D, x + j is (X + jD)/D and k - i is (K - iD)/D: xp_n v_i = (-X - (i-1)D)^n / D^n and
    # xm_n v_i = (-X - iD)^n (i+1)(K - iD) / D^(n+1).  scale[n] = den / D^n lifts either to den.
    scale = [D ** (xi_modes - n) for n in range(xi_modes + 1)]
    zeros = [0] * pm_modes
    cols = []
    for i, eig in enumerate(_xi_series(X, K, D, dim, xi_modes)):
        p, q, s = -X - (i - 1) * D, -X - i * D, (i + 1) * (K - i * D)
        up = [p ** n * scale[n] for n in range(pm_modes)] if i else zeros
        down = [q ** n * s * scale[n + 1] for n in range(pm_modes)] if i + 1 < dim else zeros
        cols.append((up, down, list(map(mul, eig[1:], scale[1:]))))
    xp, xm, xi = (tuple(zip(*family)) for family in zip(*cols))
    return Sl2Module(kind, k, x, dim, n_max, scale[0], xp, xm, xi)


# ---------------------------------------------------------------------------
# Relation checker.
# ---------------------------------------------------------------------------

def relation_report(checked: int, failures, note: str) -> Report:
    """Verdict of ``checked`` instances; failures: (relation, m, n, column, lhs, rhs)."""
    return Report(not failures, {
        "checked": checked, "note": note,
        "failures": [{"relation": r, "m": m, "n": n, "column": c, "lhs": str(a), "rhs": str(b)}
                     for r, m, n, c, a, b in failures]},
        tuple(f"  {r} m={m} n={n} col={c}: {a} != {b}" for r, m, n, c, a, b in failures),
        f" ({checked} relation instances)")


def relation_instances(n_max: int) -> int:
    """The number of relation instances ``check_relations`` runs up to n_max."""
    return 6 * (n_max + 1) ** 2 + 2 * (n_max + 1)


def check_relations(mod: Sl2Module, config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """Verify the rank-one defining relations exactly on the safe columns, up
    to the module's mode bound (a smaller bound needs a module built with it).

    With d_11 = 1 and hbar = 1:
      (C1) [xi_m, xi_n] = 0
      (C2) [xi_0, xp_n] = 2 xp_n ;  [xi_0, xm_n] = -2 xm_n
      (C3) [xp_m, xm_n] = xi_{m+n}
      (CD) [xi_{m+1}, xpm_n] - [xi_m, xpm_{n+1}] = +-(xi_m xpm_n + xpm_n xi_m)
      (DR) [xpm_{m+1}, xpm_n] - [xpm_m, xpm_{n+1}] = +-(xpm_m xpm_n + xpm_n xpm_m)
    The Serre relation is vacuous in rank one.  (C1) holds by construction on
    diagonal xi bands: its instances are counted, to match the dense reference,
    but cannot fail.

    Every relation is homogeneous, so each side of each instance is one band,
    formed column by column over the safe columns whose target row lies in the
    basis; the first disagreeing entry is reported.  Bands are read as stored,
    ints over D = ``mod.den``; each side is over D^2.  A commutator with xi_m is
    xi_m's eigenvalue differences times the band, an anticommutator its sums;
    these commutators and the same-family products are held for two mode rows
    at a time, so the check holds O(modes * dim) ints.  The work, instances times dim, must fit in
    ``config.term_budget``; a larger check raises EngineError before it starts.
    """
    n_max, dim, D = mod.mode_bound, mod.dim, mod.den
    _check_budget(config, (relation_instances(n_max) * dim,
                           f"{relation_instances(n_max)} relation instances on dimension {dim}"))
    stop = len(mod.safe_columns)
    failures, checked = [], 0
    # Column c sits at index c + 1 between two zeros: c - 1 and c + 1 read 0 past the basis.
    xp, xm, xi = ([(0, *b, 0) for b in bands] for bands in (mod.xp, mod.xm, mod.xi))

    def span(o):
        # the indices of the safe columns whose row c + o lies in the basis
        return range(max(1, 1 - o), min(stop, dim - o) + 1)

    def expect(rel, m, n, cols, lhs, rhs):
        nonlocal checked
        checked += 1
        if lhs != rhs:
            i = next(i for i, (a, b) in enumerate(zip(lhs, rhs)) if a != b)
            failures.append((rel, m, n, cols[i] - 1,
                             Fraction(lhs[i], D * D), Fraction(rhs[i], D * D)))

    mid = span(0)
    for m in range(n_max + 1):
        for n in range(n_max + 1):
            checked += 1        # (C1)
            a, b = xp[m], xm[n]
            expect("raising/lowering bracket", m, n, mid,
                   [a[j + 1] * b[j] - b[j - 1] * a[j] for j in mid],
                   [D * xi[m + n][j] for j in mid])
    # per sign: the family, its offset o, and on span(o) its bands, xi_m's differences and sums
    signs = []
    for sign, xs, o in ((1, xp, -1), (-1, xm, 1)):
        cols = span(o)
        signs.append((sign, "+" if sign > 0 else "-", xs, o, cols,
                      [b[cols.start:cols.stop] for b in xs],
                      [[h[j + o] - h[j] for j in cols] for h in xi[:n_max + 2]],
                      [[sign * (h[j + o] + h[j]) for j in cols] for h in xi[:n_max + 1]]))
    for n in range(n_max + 1):
        for sign, tag, _, _, cols, band, diff, _ in signs:
            expect(f"weight grading ({tag})", 0, n, cols,
                   [d * v for d, v in zip(diff[0], band[n])], [2 * sign * D * v for v in band[n]])
    for sign, tag, xs, o, cols, band, diff, total in signs:
        # same-family products on the columns of a side of offset 2 o: xs_a xs_b
        # reads xs_a at row c + o and xs_b at column c
        pair = span(2 * o)
        at = [b[pair.start + o:pair.stop + o] for b in xs]
        on = [b[pair.start:pair.stop] for b in xs]

        def row(r):
            # for every b, [xi_r, xs_b] on span(o), and xs_r xs_b and xs_b xs_r on
            # span(2 o); only rows m and m + 1 are held
            return ([[d * v for d, v in zip(diff[r], b)] for b in band],
                    [[p * q for p, q in zip(at[r], v)] for v in on],
                    [[p * q for p, q in zip(u, on[r])] for u in at])
        bracket, left, right = row(0)
        for m in range(n_max + 1):
            bracket1, left1, right1 = row(m + 1)
            for n in range(n_max + 1):
                expect(f"Cartan-Drinfeld ({tag})", m, n, cols,
                       [p - q for p, q in zip(bracket1[n], bracket[n + 1])],
                       [t * u for t, u in zip(total[m], band[n])])
                expect(f"same-sign Drinfeld ({tag})", m, n, pair,
                       [p - q - r + s for p, q, r, s in
                        zip(left1[n], right1[n], left[n + 1], right[n + 1])],
                       [sign * (p + q) for p, q in zip(left[n], right[n])])
            bracket, left, right = bracket1, left1, right1
    return relation_report(checked, failures, f"{mod.kind} k={mod.k} x={mod.x} dim={mod.dim}")


# ---------------------------------------------------------------------------
# Character extraction.
# ---------------------------------------------------------------------------

def extract_qchar(kind: str, k, x, n_max: int = 3, M: int | None = None,
                  config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """The character of ``build_module(kind, k, x, n_max, M, config)``, read off its
    Cartan action alone; the refusals and the budget (all dim * (2 (n_max+2) + xi modes)
    entries) are the module's.  Each v_i carries the chain A^-1_{1,x} ... A^-1_{1,x+i-1};
    top times the chain in Psi-form must give v_i's ``_xi_series`` exactly.  Both series
    are ints over D = lcm(den x, den k), compared as lists; no band is built or read.  The
    engine's A_1 row is read once, its offsets off its sites: no site goes back to a Coord."""
    k, x, dim, _, xi_modes, D, X, K = _shape(kind, k, x, n_max, M, config)
    top = PsiMonomial.gen(1, x + k) * PsiMonomial.gen(1, x, -1)     # the unit at k = 0
    S, s0 = [1] + [0] * xi_modes, _site(1, x)
    # A_{1,x}^-1 as pairs (D (x + o), -e), 2o half steps up x's lane; A_{1,x+i} is it moved by i
    step = [(X + (s - s0) // _HALF * D // 2, -e) for s, e in expand_A_to_Psi(_SL2, 1, x).exps]
    for i, col in enumerate(_xi_series(X, K, D, dim, xi_modes)):
        # S steps to v_i's series: the top's, then A_{1,x+i-1}^-1
        _series_times(S, [(p + (i - 1) * D, e) for p, e in step] if i else ((X + K, 1), (X, -1)))
        if S != col:
            raise ValueError(f"eigenvalue series of v_{i} does not match its ledger chain")
    # the sites of x, x+1, ...: x + i is 2i half steps up x's lane, so always sorted
    chain = _i_chain(_SL2, 1, x, dim).sites
    terms = {AVector(tuple(chain[:i]), canonical=True): 1 for i in range(dim)}
    return TruncatedCharacter.make(top, terms, None if kind == "finite" else dim - 1)


def three_term_sides(x, y, M: int, bound: int,
                     config: EngineConfig = DEFAULT_CONFIG) -> tuple:
    """[C^2_x][S^x_y] and [S^{x+1}_y] + [S^{x-1}_y] at height ``bound``, the four
    characters read off the explicit modules' Cartan action (not the symbolic engine)."""
    x, y = Fraction(x), Fraction(y)
    if not 0 <= bound <= M - 2:
        raise ValueError("need 0 <= bound <= M - 2")
    two = extract_qchar("finite", 1, x, n_max=0, config=config).truncate(bound)
    mid, up, dn = (extract_qchar("truncated", x + d - y, y, n_max=0, M=M, config=config)
                   .truncate(bound) for d in (0, 1, -1))
    return char_mul(two, mid, config), char_add(_SL2, up, dn, AVector.gen(1, x), config)


def verify_sl2_three_term(x, y, M: int, bound: int,
                          config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """[C^2_x][S^x_y] = [S^{x+1}_y] + [S^{x-1}_y] on ``three_term_sides``."""
    x, y = Fraction(x), Fraction(y)
    return compare_characters(*three_term_sides(x, y, M, bound, config),
                              note=f"explicit three-term x={x} y={y} N={bound}")
