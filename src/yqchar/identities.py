"""Verifiers for the character identities and support constraints.

The identity verifiers compute both sides through independent routes and
compare exactly; reports carry the full mismatch table.  The support kinds
scan one character, and factorization reports the Demazure self-check.
Also houses the additive-to-multiplicative convention translation.
"""
from __future__ import annotations

import json
from fractions import Fraction

from .cartan import CartanData, LieType, _frozen, build_cartan
from .coords import coord, narrow
from .monomials import (
    AVector, PsiMonomial, _ExpMap, _i_chain, _site, expand_A_to_Psi, format_monomial,
    output_order,
)
from .characters import (
    DEFAULT_CONFIG, EngineConfig, EngineError, Report, TruncatedCharacter, _check_budget,
    _comparison, _engine_y, _n_bases, _ses_sizes, asymptotic_char, char_mul, compare_characters,
    demazure_char_via_ses, demazure_weight, divide_series, fm_expand, kr_char, m_weight, stabilize,
)

__all__ = [
    "KINDS", "IdentitySpec", "json_object", "run_identity",
    "verify_tsystem", "tq_regime", "verify_tq", "verify_two_term", "verify_factorization",
    "check_kr_skeleton", "check_demazure_support", "check_m_support",
    "MultiplicativeMonomial", "to_multiplicative", "verify_multiplicative_tq",
]


# ---------------------------------------------------------------------------
# Identity instances (suite files).
# ---------------------------------------------------------------------------

# The fields each identity kind reads besides lie_type and i, in the order its
# verifier takes them; ``verify <kind>`` takes one flag for each (N is --height).
KINDS = {"tsystem": ("k", "t"), "tq": ("k", "x", "N"), "two_term": ("a", "b", "x", "y", "N"),
         "factorization": ("k", "x"), "kr_skeleton": ("k", "x"),
         "demazure_support": ("k", "x", "N"), "m_support": ("k", "x", "N")}


@_frozen
class IdentitySpec:
    """One verifiable identity instance; drives suite runs."""
    kind: str
    lie_type: str
    i: int = 1
    k: int | str | None = None      # None: tq_regime for "tq", 1 for the others
    t: int = 0
    x: str = "0"
    y: str = "0"
    a: str = "0"
    b: str = "0"
    N: int = 3

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown identity kind {self.kind!r}")
        if type(self.N) is not int or self.N < 1:
            raise ValueError(f"N must be an integer of at least 1, got {self.N!r}")
        if self.k is None:
            object.__setattr__(self, "k", 1 if self.kind != "tq" else tq_regime(
                build_cartan(LieType.parse(self.lie_type)), self.i, self.N))

    @staticmethod
    def from_json(obj, **defaults) -> "IdentitySpec":
        """The spec of a suite entry, which gives only fields its kind reads (an
        unknown kind is the spec's to refuse); ``defaults`` fills the rest."""
        fields = json_object(obj, "an identity spec", "identity", _FIELD_TYPES,
                             required=("kind", "lie_type"))
        kind = fields["kind"]
        if unread := sorted(set(fields) - {"kind", "lie_type", "i", *KINDS.get(kind, fields)}):
            raise ValueError(f"identity field(s) not read by kind {kind}: {', '.join(unread)}")
        return IdentitySpec(**(defaults | fields))


# The JSON types a suite entry may give each field.
_FIELD_TYPES = {"kind": (str, "a string"), "lie_type": (str, "a string"),
                **dict.fromkeys("itN", (int, "an integer")),
                **dict.fromkeys("kxyab", ((int, str), "an integer or a string"))}


def json_object(obj, whole: str, noun: str, types: dict, required=()) -> dict:
    """``obj``, checked to be a JSON object whose fields are known, present
    when ``required`` and of their JSON types.  ``types`` maps each field to
    (Python types, their name in a message); a boolean is never an integer.
    ``whole`` names the object and ``noun`` its fields in a refusal."""
    if not isinstance(obj, dict):
        raise ValueError(f"{whole} must be a JSON object, got {json.dumps(obj)}")
    unknown = sorted(set(obj) - set(types))
    if unknown:
        raise ValueError(f"unknown {noun} field(s): {', '.join(unknown)}")
    missing = [f for f in required if f not in obj]
    if missing:
        raise ValueError(f"missing {noun} field(s): {', '.join(missing)}")
    for name, value in obj.items():
        kinds, what = types[name]
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{noun} field {name} must be {what}, got {json.dumps(value)}")
    return obj


def run_identity(spec: IdentitySpec, config: EngineConfig = DEFAULT_CONFIG):
    """Run ``spec``'s verifier on the fields of its ``KINDS`` row, in row order:
    x and y read first, then k as an integer; a field the row omits is never
    read.  The verifier is looked up per call, so one rebound on the module runs."""
    verify = {"tsystem": verify_tsystem, "tq": verify_tq, "two_term": verify_two_term,
              "factorization": verify_factorization, "kr_skeleton": check_kr_skeleton,
              "demazure_support": check_demazure_support, "m_support": check_m_support}
    cartan = build_cartan(LieType.parse(spec.lie_type))
    row = {f: getattr(spec, f) for f in KINDS[spec.kind]}
    for f, read in (("x", coord), ("y", coord), ("k", lambda k: narrow(k, "k", integer=True))):
        if f in row:
            row[f] = read(row[f])
    return verify[spec.kind](cartan, spec.i, *row.values(), config=config)


# ---------------------------------------------------------------------------
# T-system via the short exact sequence.
# ---------------------------------------------------------------------------

def verify_tsystem(cartan: CartanData, i: int, k: int, t: int,
                   bound: int | None = None,
                   config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """Kernel character two ways: SES difference vs direct expansion.

    chi(W_{k,0}) chi(W_{k+t,d_i}) - chi(W_{k-1,d_i}) chi(W_{k+t+1,0}) must
    equal the directly expanded character of the kernel module, so the two
    routes are independent.
    """
    x0 = (k + 1) * cartan.di(i)
    via_ses = demazure_char_via_ses(cartan, i, t, k, x0, bound, config)
    top = _engine_y(cartan, demazure_weight(cartan, i, t, k, x0, config=config))
    direct = fm_expand(cartan, top, bound, config)
    return compare_characters(direct, via_ses,
                              note=f"kernel of {cartan.lie_type} i={i} k={k} t={t}: "
                                   "direct expansion vs SES difference")


# ---------------------------------------------------------------------------
# The three-term (TQ) identity via its normalized character formula.
# ---------------------------------------------------------------------------

def tq_rhs(cartan: CartanData, i: int, k: int, x, bound: int,
           config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """(1 + A^-1_{i,x}) * prod_{j: c_ij<0} stabilized normalized KR char
    at base x + d_ij - k d_i, with top the m-weight."""
    x = coord(x)
    rhs = TruncatedCharacter.make(m_weight(cartan, i, k, x),
                                  {AVector.unit(): 1, AVector.gen(i, x): 1}, bound)
    for j, _, dij in cartan.neighbours(i):
        rhs = char_mul(rhs, stabilize(cartan, j, x + dij - k * cartan.di(i), bound, config),
                       config)
    return rhs


def tq_lhs_direct(cartan: CartanData, i: int, k: int, x, bound: int,
                  config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Route R1: expand the m-weight directly (k must make it dominant)."""
    _check_realizable(cartan, i, k)
    _check_budget(config, _m_weight_size(cartan, i, k))
    return fm_expand(cartan, _engine_y(cartan, m_weight(cartan, i, k, x)), bound, config)


def _m_weight_size(cartan: CartanData, i: int, k: int) -> tuple:
    """Route R1's size: the m-weight's Y-form, 1 + sum_j k d_i / d_j factors."""
    n = 1 + sum(k * cartan.d[i - 1] // cartan.d[j - 1] for j, _, _ in cartan.neighbours(i))
    return n, f"{n} m-weight Y factors"


def tq_lhs_division(cartan: CartanData, i: int, k: int, x, bound: int,
                    config: EngineConfig = DEFAULT_CONFIG) -> TruncatedCharacter:
    """Route R2: SES kernel character divided by the KR characters that
    realize the complementary n-weight (exact series division).  Their
    weights times the m-weight must give the telescoped Demazure weight."""
    x = coord(x)
    _check_realizable(cartan, i, k)
    num = demazure_char_via_ses(cartan, i, 1, k, x, bound, config)
    m = m_weight(cartan, i, k, x)
    den = TruncatedCharacter.make(PsiMonomial.unit(), {AVector.unit(): 1}, bound)
    for j, base in _n_bases(cartan, i, k, x):
        den = char_mul(den, kr_char(cartan, j, k * cartan.d[i - 1] // cartan.d[j - 1], base,
                                    bound, config), config)
    if m * den.top != demazure_weight(cartan, i, 1, k, x, config=config):
        raise EngineError("KR factors and the m-weight do not assemble the Demazure weight")
    quot = divide_series(num.term_dict(), den.term_dict(), bound, config)
    return TruncatedCharacter.make(m, quot, bound)


def _check_k(k: int):
    """Refuse a k that is not an integer >= 1."""
    if not isinstance(k, int):
        raise ValueError(f"k must be an integer, got {k}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def _check_realizable(cartan: CartanData, i: int, k: int, N: int | None = None):
    """Refuse a k < 1 or one with no m-weight module and, given a height N, a
    k below the TQ regime.  At each neighbour j (c_ij < 0) the m-weight carries
    Psi_{j,x+d_ij}/Psi_{j,x+d_ij-k d_i}, a string of k d_i / d_j Y_j's, so
    d_j | k d_i.  The relation holds for the asymptotic module, the large-k
    limit, which height N sees only if each string is N long: k d_i >= N d_j."""
    _check_k(k)
    d = {j: cartan.d[j - 1] for j, _, _ in cartan.neighbours(i)}
    kd = k * cartan.d[i - 1]
    for j, dj in d.items():
        if kd % dj:
            raise ValueError(f"k={k} is not realizable at node {i}: d_{j}={dj} "
                             f"does not divide k*d_{i}={kd}")
    j = max(d, key=d.get, default=None)
    if N is not None and j and kd < N * d[j]:
        raise ValueError(f"k={k} is outside the TQ regime at node {i} for height {N}: "
                         f"need k*d_{i} >= {N}*d_{j} = {N * d[j]}; "
                         f"the least k is {tq_regime(cartan, i, N)}")


def tq_regime(cartan: CartanData, i: int, N: int) -> int:
    """The least k >= 1 that ``_check_realizable`` accepts at height N: the
    least k with k d_i >= N max d_j.  It is realizable, since symmetrizers
    take two values, 1 and r: a d_j > d_i is r, and divides k d_i = N r."""
    dmax = max((cartan.d[j - 1] for j, _, _ in cartan.neighbours(i)), default=0)
    return max(1, -(-N * dmax // cartan.d[i - 1]))


def verify_tq(cartan: CartanData, i: int, k: int, x, bound: int,
              config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """Three-term identity via the normalized character formula.

    Compares routes R1 (direct expansion of the m-weight) and R2 (SES
    kernel divided by the n-weight KR characters) with the product formula
    RHS, and with each other, at concrete k.  The relation is a theorem
    inside its hypotheses, k d_i >= N d_j at every neighbour j
    (``tq_regime``); a k below them is refused as a ValueError, not failed.
    """
    x = coord(x)
    _check_realizable(cartan, i, k, bound)
    # Each route's sizes, in the routes' order, before any runs: the RHS's stabilized KR
    # strings of length N, R1's m-weight, R2's SES kernel (its n-weight strings are <= k).
    rhs_size = [(bound, f"a KR string of {bound} factors")] if cartan.neighbours(i) else []
    _check_budget(config, *rhs_size, _m_weight_size(cartan, i, k), *_ses_sizes(k, 1, bound))
    rhs = tq_rhs(cartan, i, k, x, bound, config)
    r1 = tq_lhs_direct(cartan, i, k, x, bound, config)
    r2 = tq_lhs_division(cartan, i, k, x, bound, config)
    reports = {"R1 vs RHS": compare_characters(r1, rhs),
               "R2 vs RHS": compare_characters(r2, rhs),
               "R1 vs R2": compare_characters(r1, r2)}
    note = f"{cartan.lie_type} i={i} k={k} x={x} N={bound}"
    lines = [f"note: {note}"]
    for name, r in reports.items():
        lines += [f"[{name}]", "  " + r.to_text().replace("\n", "\n  ")]
    return Report(all(r.verdict for r in reports.values()),
                  {"note": note, "reports": {name: r.to_json() for name, r in reports.items()}},
                  tuple(lines))


# ---------------------------------------------------------------------------
# Two-term exchange identity.
# ---------------------------------------------------------------------------

def verify_two_term(cartan: CartanData, i: int, a, b, x, y, bound: int,
                    config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """[S(b/a)][S(y/x)] = [S(y/a)][S(b/x)] at truncation ``bound``."""
    a, b, x, y = coord(a), coord(b), coord(x), coord(y)
    lhs = char_mul(asymptotic_char(cartan, i, b, a, bound, config),
                   asymptotic_char(cartan, i, y, x, bound, config), config)
    rhs = char_mul(asymptotic_char(cartan, i, y, a, bound, config),
                   asymptotic_char(cartan, i, b, x, bound, config), config)
    return compare_characters(lhs, rhs,
                              note=f"two-term exchange {cartan.lie_type} i={i}")


# ---------------------------------------------------------------------------
# Monomial-level factorization m * n = d.
# ---------------------------------------------------------------------------

def verify_factorization(cartan: CartanData, i: int, k: int, x,
                         config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """m * n against the t=1 Demazure weight, read off the weight's self-check (m * n at t=1)."""
    _check_k(k)
    d = format_monomial(demazure_weight(cartan, i, 1, k, x, config=config))
    return _comparison(f"m*n vs Demazure weight, k={k}", d, d, ())


# ---------------------------------------------------------------------------
# Support scans.
# ---------------------------------------------------------------------------

def _support_report(scanned: int, found, note: str) -> Report:
    """Verdict of a scan of ``scanned`` terms with (term, reason) violations."""
    rows = [(t, r) for (_, r), t in output_order(found)]
    return Report(not rows, {"scanned": scanned, "note": note,
                             "violations": [{"avector": v, "reason": r} for v, r in rows]},
                  (f"note: {note}", *(f"  {v}: {r}" for v, r in rows)),
                  f" ({scanned} terms scanned)")


def _skeleton_sites(cartan: CartanData, i: int, k: int, x) -> list:
    """Allowed off-node factors of a KR l-weight: (j, x + d_ij + m) for each
    neighbour j and 0 <= m < min(k, -c_ij)."""
    return [(j, x + dij + m) for j, cij, dij in cartan.neighbours(i)
            for m in range(min(k, -cij))]


def _unsupported(terms, allowed, reason: str, lead=None) -> list:
    """(term, reason) for each term but the unit and ``lead`` that has no
    factor A^-1_{j,z} with (j, z) in ``allowed``: a site-set intersection."""
    sites = {_site(j, z) for j, z in allowed}
    return [(v, reason) for v, _ in terms
            if v.sites and v != lead and sites.isdisjoint(v.sites)]


def check_kr_skeleton(cartan: CartanData, i: int, k: int, x,
                      bound: int | None = None,
                      config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """Structure of KR l-weights: the multiplicity-one i-chain, and every
    other term divisible by A^-1_{i,x} times an allowed off-node factor."""
    x = coord(x)
    char = kr_char(cartan, i, k, x, bound, config)
    chain = _i_chain(cartan, i, x, k).sites
    chains = {tuple(chain[:l + 1]) for l in range(k)}
    lead = _site(i, x)
    off = [(v, c) for v, c in char.terms if v.sites not in chains]
    found = [(v, f"i-chain multiplicity {c} != 1")
             for v, c in char.terms if v.sites in chains and c != 1]
    found += _unsupported(off, [(i, x)], "missing leading A-factor at the KR node")
    found += _unsupported([t for t in off if lead in t[0].sites],
                          _skeleton_sites(cartan, i, k, x), "no allowed off-node A-factor")
    return _support_report(len(char.terms), found,
                           f"KR skeleton {cartan.lie_type} i={i} k={k} x={x}")


def _far_scan(what: str, cartan: CartanData, i: int, k: int, x, char, allowed) -> Report:
    """Every ledger of ``char`` but 1 and A^-1_{i,x} has an A^-1_{j,z}, (j, z) in ``allowed``."""
    found = _unsupported(char.terms, allowed, "no allowed far-cluster A-factor", AVector.gen(i, x))
    return _support_report(len(char.terms), found, f"{what} {cartan.lie_type} i={i} k={k} x={x}")


def check_demazure_support(cartan: CartanData, i: int, k: int, x, bound: int,
                           config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """t=1 kernel-module support: every non-top ledger is A^-1_{i,x} or is
    divisible by some A^-1_{i',x-k d_i+z} with (i'=i, z=-d_i) or
    (c_ii'<0, z a half integer in [-3/2, 1/2])."""
    _check_k(k)
    x = coord(x)
    di = cartan.di(i)
    char = demazure_char_via_ses(cartan, i, 1, k, x, bound, config)
    base = x - k * di
    allowed = [(i, base - di)] + [(j, base + Fraction(n, 2))
                                  for j, _, _ in cartan.neighbours(i) for n in range(-3, 2)]
    return _far_scan("kernel support", cartan, i, k, x, char, allowed)


def check_m_support(cartan: CartanData, i: int, k: int, x, bound: int,
                    config: EngineConfig = DEFAULT_CONFIG) -> Report:
    """m-weight module support: every non-top ledger is A^-1_{i,x} or is
    divisible by some A^-1_{j,x+d_ij-k d_i} with c_ij<0."""
    x = coord(x)
    char = tq_lhs_direct(cartan, i, k, x, bound, config)
    allowed = [(j, x + dij - k * cartan.di(i)) for j, _, dij in cartan.neighbours(i)]
    return _far_scan("m-weight support", cartan, i, k, x, char, allowed)


# ---------------------------------------------------------------------------
# Additive <-> multiplicative translation.
# ---------------------------------------------------------------------------

class MultiplicativeMonomial(_ExpMap):
    """Monomial in the Phi_{i,q^a}, keyed by the exponent a (q stays formal)."""


def to_multiplicative(m: PsiMonomial) -> MultiplicativeMonomial:
    """Exponent-preserving relabeling Psi_{i,a} -> Phi_{i,q^a}."""
    return MultiplicativeMonomial(m.exps, canonical=True)


def _phi(i, a, e=1):
    return MultiplicativeMonomial.gen(i, a, e)


def verify_multiplicative_tq(cartan: CartanData, i: int, x, y, k) -> Report:
    """Translated additive three-term instance vs the quantum display.

    The additive side is read off the engine: the m-weight m, the class
    cl = Psi_{i,x}/Psi_{i,y} and the relation's two summands s(+1) = m cl
    and s(-1) = s(+1) A_{i,x}^-1.  The quantum side is built independently
    from its own exponent algebra (a = q^x, c = q^y, q_i = q^{d_i},
    q_ij = q^{d_ij}); the four monomials of both sides must be identical.
    """
    x, y, k = coord(x), coord(y), coord(k)
    di = cartan.di(i)
    m = m_weight(cartan, i, k, x)
    cl = PsiMonomial.gen(i, x) * PsiMonomial.gen(i, y, -1)
    additive = [m, cl, m * cl, m * cl * expand_A_to_Psi(cartan, i, x) ** -1]

    def quantum():
        m = _phi(i, x + di) * _phi(i, x, -1)
        for j, _, dij in cartan.neighbours(i):
            m = m * _phi(j, x + dij) * _phi(j, x + dij - k * di, -1)
        cl = _phi(i, x) * _phi(i, y, -1)
        def s(sign):
            out = _phi(i, x + sign * di) * _phi(i, y, -1)
            for j, _, dij in cartan.neighbours(i):
                out = out * _phi(j, x + sign * dij) * _phi(j, x + dij - k * di, -1)
            return out
        return [m, cl, s(1), s(-1)]

    # rows of a character comparison, with the unit "1" as term and tops
    rows = [("1", format_monomial(add), format_monomial(qm))
            for add, qm in zip(additive, quantum()) if to_multiplicative(add).exps != qm.exps]
    return _comparison(f"multiplicative translation {cartan.lie_type} i={i}", "1", "1", rows)
