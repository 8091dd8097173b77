"""Identity verifiers, support scans, and the multiplicative translation."""
import io
import re
from fractions import Fraction

import pytest

import yqchar.cli as cli
import yqchar.identities as identities
from yqchar.cartan import LieType, build_cartan
from yqchar.coords import coord
from yqchar.monomials import AVector, PsiMonomial, YMonomial, y_to_psi
from yqchar.characters import (
    EngineConfig, EngineError, TruncatedCharacter, compare_characters, demazure_char_via_ses,
    demazure_weight, n_weight,
)
from yqchar.identities import (
    KINDS, IdentitySpec, MultiplicativeMonomial, check_demazure_support,
    check_kr_skeleton, check_m_support, run_identity, to_multiplicative,
    tq_lhs_direct, tq_lhs_division, tq_regime, tq_rhs, verify_factorization,
    verify_multiplicative_tq, verify_tq, verify_tsystem, verify_two_term,
)
from yqchar.textio import format_monomial

A1 = build_cartan(LieType.parse("A1"))
A2 = build_cartan(LieType.parse("A2"))
B2 = build_cartan(LieType.parse("B2"))
G2 = build_cartan(LieType.parse("G2"))


# -- resource bounds -----------------------------------------------------------

# Paths that build a k-long object, each with the largest k its budget of 40
# admits: the SES kernel's longest KR string, k + t + 1 (at t = 36, so that its
# node-sl2 chains fit too), the Demazure weight's k roots, and the m-weight's
# Y-form of 1 + sum_j k d_i / d_j factors.
TIGHT = EngineConfig(term_budget=40)
K_LIMITS = {
    "demazure_char_via_ses": (lambda k: demazure_char_via_ses(A2, 1, 36, k, 0, 2, TIGHT), 3),
    "demazure_weight": (lambda k: demazure_weight(A2, 1, 1, k, 0, TIGHT), 40),
    "verify_factorization": (lambda k: verify_factorization(A2, 1, k, 0, TIGHT), 40),
    "verify_tsystem": (lambda k: verify_tsystem(A2, 1, k, 36, 2, TIGHT), 3),
    "tq_lhs_direct": (lambda k: tq_lhs_direct(A2, 1, k, 0, 2, TIGHT), 39),
    "tq_lhs_direct_G2_long": (lambda k: tq_lhs_direct(G2, 2, k, 0, 2, TIGHT), 13),
    "check_m_support": (lambda k: check_m_support(A2, 1, k, 0, 2, TIGHT), 39),
}


@pytest.mark.parametrize("name", K_LIMITS)
def test_a_k_beyond_the_budget_is_refused_before_it_is_built(name):
    run, limit = K_LIMITS[name]
    assert run(limit) is not None
    with pytest.raises(EngineError, match=r"^term budget 40 exceeded by "):
        run(limit + 1)
    with pytest.raises(EngineError, match=r"^term budget 40 exceeded by "):
        run(10 ** 8)


# verify_tq refuses from its parameters before any route runs, with the message
# of the first route that would refuse: the RHS's stabilized strings of length
# N, R1's m-weight Y factors, then R2's kernel strings k, k + 1, k - 1, k + 2
# and the k(k+1)/2 chains of its first node-sl2 string.
@pytest.mark.parametrize("ct, k, N, budget, message", [
    (A2, 7, 7, 6, "a KR string of 7 factors"),
    (A2, 5, 2, 5, "6 m-weight Y factors"),
    (A2, 4, 2, 5, "a KR string of 6 factors"),
    (A2, 999999, 2, 10 ** 6, "a KR string of 1000001 factors"),
    (G2, 3, 1, 4, "a KR string of 5 factors"),
    (A1, 6, 3, 7, "a KR string of 8 factors"),
    (A2, 9, 2, 44, "the chains of a node-sl2 string of length 9"),
])
def test_tq_refuses_its_parameters_before_any_route(monkeypatch, ct, k, N, budget, message):
    def route(*args):
        raise AssertionError("a route ran")
    for name in ("tq_rhs", "tq_lhs_direct", "tq_lhs_division"):
        monkeypatch.setattr(identities, name, route)
    config = EngineConfig(term_budget=budget)
    with pytest.raises(EngineError, match=f"^term budget {budget} exceeded by {message}$"):
        verify_tq(ct, 1, k, "1/3", N, config)


# -- spec objects ------------------------------------------------------------

def test_identity_spec_json_round_trip():
    # through the fields its kind reads; the others of the spec are refused
    spec = IdentitySpec(kind="tq", lie_type="B2", i=2, k=6, x="1/2", N=3)
    fields = dict(vars(spec))
    with pytest.raises(ValueError, match=r"^identity field\(s\) not read by kind tq: a, b, t, y$"):
        IdentitySpec.from_json(fields)
    assert IdentitySpec.from_json({f: fields[f] for f in ("kind", "lie_type", "i", *KINDS["tq"])}) \
        == spec
    assert IdentitySpec.from_json({"kind": "tsystem", "lie_type": "A1"}).k == 1


def test_identity_spec_rejects_unknown_fields():
    with pytest.raises(ValueError, match=r"unknown identity field\(s\): hieght, n$"):
        IdentitySpec.from_json({"kind": "tq", "lie_type": "A1", "n": 3, "hieght": 4})


def test_identity_spec_validation():
    with pytest.raises(ValueError):
        IdentitySpec(kind="nonsense", lie_type="A1")
    with pytest.raises(ValueError):
        IdentitySpec(kind="tq", lie_type="A1", N=0)


def test_run_identity_dispatches_every_kind():
    specs = [
        IdentitySpec(kind="tsystem", lie_type="A1", k=2, t=1),
        IdentitySpec(kind="tq", lie_type="A1", k=6, N=2),
        IdentitySpec(kind="two_term", lie_type="A1", a="0", b="2", x="5", y="3", N=2),
        IdentitySpec(kind="factorization", lie_type="B2", i=1, k=3),
        IdentitySpec(kind="kr_skeleton", lie_type="A2", k=2),
        IdentitySpec(kind="demazure_support", lie_type="A2", k=2, N=2),
        IdentitySpec(kind="m_support", lie_type="A2", k=6, N=2),
    ]
    for spec in specs:
        assert run_identity(spec).verdict, spec.kind


def test_a_field_its_kind_does_not_read_is_never_parsed():
    # a two_term spec reads no k, and a tsystem spec no x
    assert run_identity(IdentitySpec(kind="two_term", lie_type="A1", k="1//2", a="0", b="2",
                                     x="5", y="3", N=2)).verdict
    assert run_identity(IdentitySpec(kind="tsystem", lie_type="A1", k=2, t=1, x="1//2")).verdict


def _off_lattice(monkeypatch, name):
    """Rebind the weight ``name`` in ``identities`` to one times Psi_{i,x+1/3},
    which no product of Y's at node i gives."""
    real = getattr(identities, name)

    def shifted(cartan, i, *rest, **kw):
        return real(cartan, i, *rest, **kw) * PsiMonomial.gen(i, coord(rest[-1]) + Fraction(1, 3))
    monkeypatch.setattr(identities, name, shifted)


@pytest.mark.parametrize("name,argv", [
    ("m_weight", ["verify", "tq", "--type", "B2", "--node", "1", "--k", "2", "--height", "2"]),
    ("m_weight", ["verify", "m-support", "--type", "A2", "--node", "1", "--k", "3",
                  "--x", "x", "--height", "2"]),
    ("demazure_weight", ["verify", "tsystem", "--type", "B2", "--node", "1", "--k", "1",
                         "--t", "1"]),
])
def test_an_engine_weight_off_the_y_lattice_is_an_engine_error(monkeypatch, name, argv):
    _off_lattice(monkeypatch, name)
    out, err = io.StringIO(), io.StringIO()
    assert cli.dispatch(argv, out, err) == 3, err.getvalue()
    assert out.getvalue() == ""
    assert re.fullmatch(r"engine error: monomial is not in the Y-lattice at node \d "
                        r"\(residual Psi_\{\d,.*\}\), in a weight the engine built\n",
                        err.getvalue())


def test_an_unrealizable_k_is_refused_before_its_m_weight_is_built(monkeypatch):
    _off_lattice(monkeypatch, "m_weight")
    with pytest.raises(ValueError, match="d_1=2 does not divide"):
        tq_lhs_direct(B2, 2, 3, 0, 2)
    out, err = io.StringIO(), io.StringIO()
    assert cli.dispatch(["verify", "m-support", "--type", "C2", "--node", "1", "--k", "3"],
                        out, err) == 2
    assert err.getvalue() == "error: k=3 is not realizable at node 1: d_2=2 does not divide " \
                             "k*d_1=3\n"


# -- kernel characters via two routes ----------------------------------------

@pytest.mark.parametrize("ct,i,k,t", [
    (A1, 1, 1, 0), (A1, 1, 2, 1), (A2, 1, 2, 1), (A2, 2, 1, 0), (B2, 2, 2, 0),
])
def test_tsystem_instances(ct, i, k, t):
    assert verify_tsystem(ct, i, k, t).verdict


def test_tsystem_truncated():
    assert verify_tsystem(G2, 1, 1, 1, bound=2).verdict


# -- three-term identity -----------------------------------------------------

def test_tq_routes_sl2():
    assert 6 >= tq_regime(A1, 1, 3)
    rep = verify_tq(A1, 1, 6, 0, 3)
    assert rep.verdict
    assert rep.to_json()["reports"]["R1 vs RHS"]["verdict"] == "pass"
    assert "pass" in rep.to_text() and rep.to_json()["verdict"] == "pass"


def test_tq_routes_b2_both_nodes():
    assert verify_tq(B2, 1, 6, 0, 2).verdict
    assert verify_tq(B2, 2, 6, 0, 2).verdict


def test_tq_routes_agree_individually():
    rhs = tq_rhs(A2, 1, 6, 0, 3)
    r1 = tq_lhs_direct(A2, 1, 6, 0, 3)
    r2 = tq_lhs_division(A2, 1, 6, 0, 3)
    assert r1.top == r2.top == rhs.top
    assert r1.terms == r2.terms == rhs.terms


def test_tq_reaches_height_seven_in_g2():
    # route R2's SES kernel keeps only the ledgers within N of its top; its
    # KR expansions at the full height N + k = 28 exceed the default budget
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(["verify", "tq", "--type", "G2", "--node", "1", "--height", "7"], out, err)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue().startswith("verdict: pass\nnote: G2 i=1 k=21 x=0 N=7\n")


def test_tq_division_needs_divisible_k():
    # node 2 of B2 needs k in 2Z to realize the long-node KR factor
    with pytest.raises(ValueError, match="d_1=2 does not divide"):
        tq_lhs_division(B2, 2, 3, 0, 2)


@pytest.mark.parametrize("route", [tq_lhs_division, verify_tq, check_m_support])
@pytest.mark.parametrize("k", [coord("k"), coord("2+k"), Fraction(5, 2)])
def test_a_k_that_is_not_an_int_is_a_value_error(route, k):
    # the m-weight module exists for integer k only; a symbolic k used to
    # crash with a TypeError on k*d_i % d_j
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k}")):
        route(B2, 2, k, 0, 2)


@pytest.mark.parametrize("k", [Fraction(13, 2), Fraction(-1, 3), "13/2"])
def test_a_suite_k_that_is_not_integral_is_refused(k):
    # int() would truncate 13/2 to 6 and check a k that was not asked for
    with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
        run_identity(IdentitySpec(kind="tq", lie_type="A2", i=1, k=k, N=3))
    assert run_identity(IdentitySpec(kind="tq", lie_type="A2", i=1, k=Fraction(6), N=3)) \
        == run_identity(IdentitySpec(kind="tq", lie_type="A2", i=1, k="6", N=3))


def _realizable(ct, i, k):
    return all(k * ct.d[i - 1] % ct.d[j - 1] == 0 for j in ct.nodes if ct.cij(i, j) < 0)


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D4", "E6",
                                  "F4", "G2"])
def test_tq_regime_boundary_is_tight(name):
    """At height 2 the relation holds at tq_regime, and at the largest
    realizable k below it the direct route already differs from the RHS;
    verify_tq refuses that k and names the least one."""
    ct, N = build_cartan(LieType.parse(name)), 2
    for i in ct.nodes:
        k0 = tq_regime(ct, i, N)
        assert _realizable(ct, i, k0)
        assert verify_tq(ct, i, k0, 0, N).verdict, (name, i, k0)
        below = [k for k in range(1, k0) if _realizable(ct, i, k)]
        if below:
            k = below[-1]
            assert not compare_characters(tq_lhs_direct(ct, i, k, 0, N),
                                          tq_rhs(ct, i, k, 0, N)).verdict, (name, i, k)
            with pytest.raises(ValueError, match=rf"^k={k} is outside the TQ regime .*"
                                                 rf"; the least k is {k0}$"):
                verify_tq(ct, i, k, 0, N)


def test_tq_regime_values():
    assert [tq_regime(A1, 1, N) for N in (1, 2, 5)] == [1, 1, 1]
    assert [tq_regime(A2, 1, N) for N in (1, 2, 5)] == [1, 2, 5]
    # B2: d = (2, 1).  Node 1 needs 2k >= N; node 2 needs k >= 2N and k even.
    assert [tq_regime(B2, 1, N) for N in (1, 2, 3, 4)] == [1, 1, 2, 2]
    assert [tq_regime(B2, 2, N) for N in (1, 3, 4)] == [2, 6, 8]
    # G2: d = (1, 3).  Node 1 needs k >= 3N and 3 | k; node 2 needs 3k >= N.
    assert [tq_regime(G2, 1, N) for N in (1, 2)] == [3, 6]
    assert [tq_regime(G2, 2, N) for N in (1, 3, 4)] == [1, 1, 2]


def test_tq_spec_defaults_k_to_the_regime():
    assert IdentitySpec(kind="tq", lie_type="B2", i=2, N=4).k == 8
    assert IdentitySpec(kind="tq", lie_type="A2", N=3).k == 3
    assert IdentitySpec(kind="m_support", lie_type="B2", i=2, N=4).k == 1
    assert IdentitySpec.from_json({"kind": "tq", "lie_type": "G2"}).k == 9


# -- two-term exchange -------------------------------------------------------

def test_two_term_symbolic_sl2():
    assert verify_two_term(A1, 1, "a", "b", "x", "y", 3).verdict


def test_two_term_trivial_when_pairs_coincide():
    rep = verify_two_term(A1, 1, "x", "y", "x", "y", 2)
    doc = rep.to_json()
    assert rep.verdict and doc["lhs_top"] == doc["rhs_top"] and doc["mismatches"] == []


def test_two_term_g2():
    assert verify_two_term(G2, 1, "a", "b", "x", "y", 2).verdict


# -- factorization -----------------------------------------------------------

@pytest.mark.parametrize("ct,i", [(A1, 1), (A2, 1), (B2, 1), (B2, 2), (G2, 1), (G2, 2)])
def test_factorization(ct, i):
    for k in (1, 2, 5):
        assert verify_factorization(ct, i, k, "x").verdict


# -- support scans -----------------------------------------------------------

@pytest.mark.parametrize("ct,i", [(A2, 1), (A2, 2), (B2, 1), (B2, 2)])
def test_kr_skeleton(ct, i):
    for k in (1, 2, 3):
        rep = check_kr_skeleton(ct, i, k, 0)
        assert rep.verdict, rep.to_text()
        assert rep.to_json()["scanned"] >= k + 1


def test_kr_skeleton_report_shape():
    rep = check_kr_skeleton(A2, 1, 2, "1/2")
    assert rep.to_json()["violations"] == []
    assert "pass" in rep.to_text()


def test_demazure_support():
    for ct, i, k in ((A1, 1, 2), (A2, 1, 2), (B2, 2, 2)):
        rep = check_demazure_support(ct, i, k, 0, 3)
        assert rep.verdict, rep.to_text()


def test_m_support():
    for ct, i in ((A1, 1), (A2, 1), (B2, 1), (B2, 2)):
        rep = check_m_support(ct, i, 6, 0, 3)
        assert rep.verdict, rep.to_text()


def _av(*pairs):
    return AVector(tuple(((j, coord(z)), 1) for j, z in pairs))


# No real input makes a scan fail, so its violation output is reached by
# laying faulty terms over the character the scan reads: terms with no
# allowed factor, an i-chain term of multiplicity 2, terms without the lead
# factor, and (passing) terms that carry an allowed factor.
_FAULTS = [
    ("kr_char", check_kr_skeleton, (B2, 1, 2, "x"),
     {_av((1, "x")): 2, _av((2, "x+5")): 1, _av((1, "x"), (2, "x+7")): 1,
      _av((2, "x-9"), (1, "x+1/3")): 3, _av((1, "x"), (2, "x-1"), (2, "x+20")): 1},
     "KR skeleton B2 i=1 k=2 x=x", 18,
     [("A[1,x]^-1", "i-chain multiplicity 2 != 1"),
      ("A[2,5+x]^-1", "missing leading A-factor at the KR node"),
      ("A[1,x]^-1 A[2,7+x]^-1", "no allowed off-node A-factor"),
      ("A[1,1/3+x]^-1 A[2,-9+x]^-1", "missing leading A-factor at the KR node")]),
    ("demazure_char_via_ses", check_demazure_support, (B2, 2, 2, "x", 3),
     {_av((1, "x+1")): 1, _av((2, "x"), (2, "x+4")): 1, _av((1, "x-9/2"), (2, "x-2")): 2,
      _av((1, "x-2"), (2, "x+9")): 1},
     "kernel support B2 i=2 k=2 x=x", 21,
     [("A[1,1+x]^-1", "no allowed far-cluster A-factor"),
      ("A[1,-9/2+x]^-1 A[2,-2+x]^-1", "no allowed far-cluster A-factor"),
      ("A[2,x]^-1 A[2,4+x]^-1", "no allowed far-cluster A-factor")]),
    ("tq_lhs_direct", check_m_support, (B2, 1, 3, "x", 3),
     {_av((2, "x-3")): 1, _av((1, "x"), (1, "x+2")): 1, _av((2, "x-7"), (1, "x+11")): 1},
     "m-weight support B2 i=1 k=3 x=x", 15,
     [("A[2,-3+x]^-1", "no allowed far-cluster A-factor"),
      ("A[1,x]^-1 A[1,2+x]^-1", "no allowed far-cluster A-factor")]),
]


@pytest.mark.parametrize("source,scan,args,extra,note,scanned,violations", _FAULTS,
                         ids=["kr_skeleton", "demazure_support", "m_support"])
def test_support_scan_reports_injected_faults(monkeypatch, source, scan, args, extra,
                                              note, scanned, violations):
    real = getattr(identities, source)

    def faulty(*a, **kw):
        ch = real(*a, **kw)
        return TruncatedCharacter.make(ch.top, {**ch.term_dict(), **extra}, ch.height_bound)
    monkeypatch.setattr(identities, source, faulty)
    rep = scan(*args)
    assert rep.to_text() == "\n".join(
        [f"verdict: fail ({scanned} terms scanned)", f"note: {note}"]
        + [f"  {v}: {r}" for v, r in violations])
    assert rep.to_json() == {
        "verdict": "fail", "scanned": scanned, "note": note,
        "violations": [{"avector": v, "reason": r} for v, r in violations]}


# -- closed forms of the neighbour data ---------------------------------------

def _table_skeleton_zset(cartan, i, ip, k, x):
    """Allowed off-node coordinates at node ip, as the case table that the
    closed form of ``identities._skeleton_sites`` replaced."""
    c = cartan.cij(i, ip)
    if c == 0:
        return ()
    if c == -1 or k == 1:
        return (x + Fraction(c * cartan.d[i - 1], 2),)
    if c == -2:
        return (x - 1, x)
    if k == 2:
        return (x - Fraction(3, 2), x - Fraction(1, 2))
    return (x - Fraction(3, 2), x - Fraction(1, 2), x + Fraction(1, 2))


def _table_n_bases(cartan, i, k, x):
    """(j, base) of the n-weight's strings, as the case table that
    ``characters._n_bases`` replaced."""
    out = []
    for j in cartan.nodes:
        cij = cartan.cij(i, j)
        if cij == -2:
            out += [(j, x - k)]
        elif cij == -3:
            out += [(j, x + Fraction(1, 2) - k), (j, x - Fraction(1, 2) - k)]
    return out


@pytest.mark.parametrize("name", ["A1", "A2", "A3", "A5", "B2", "B3", "B4", "C2", "C3",
                                  "C4", "D4", "D5", "E6", "E7", "E8", "F4", "G2"])
def test_closed_forms_equal_the_case_tables(name):
    ct = build_cartan(LieType.parse(name))
    for i in ct.nodes:
        assert ct.neighbours(i) == tuple((j, ct.cij(i, j), ct.di(i) * ct.cij(i, j) / 2)
                                         for j in ct.nodes if ct.cij(i, j) < 0)
        for k in range(1, 8):
            for x in (coord(0), coord("x"), coord("1/3"), coord(k - Fraction(7, 2))):
                assert identities._skeleton_sites(ct, i, k, x) == [
                    (ip, z) for ip in ct.nodes if ip != i
                    for z in _table_skeleton_zset(ct, i, ip, k, x)]
                bases = identities._n_bases(ct, i, k, x)
                assert bases == _table_n_bases(ct, i, k, x)
                n = PsiMonomial.unit()
                for j, b in bases:
                    n = n * PsiMonomial.gen(j, b + k) * PsiMonomial.gen(j, b, -1)
                assert n_weight(ct, i, k, x) == n
                if all(k * ct.d[i - 1] % ct.d[j - 1] == 0 for j, _, _ in ct.neighbours(i)):
                    # the self-check of route R2
                    assert identities.m_weight(ct, i, k, x) * n == \
                        identities.demazure_weight(ct, i, 1, k, x)


def test_a_wrong_kr_weight_fails_the_demazure_self_check(monkeypatch):
    # every KR character R2 divides by comes back with a wrong top, so the
    # product of the denominator's tops misses the Demazure weight
    def wrong_top(*a):
        ch = real(*a)
        return TruncatedCharacter(ch.top * PsiMonomial.gen(1, 0), ch.terms, ch.height_bound)
    real = identities.kr_char
    monkeypatch.setattr(identities, "kr_char", wrong_top)
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(["verify", "tq", "--type", "B2", "--node", "2"], out, err)
    assert (code, out.getvalue(), err.getvalue()) == (
        3, "", "engine error: KR factors and the m-weight do not assemble the Demazure "
               "weight\n")


# -- multiplicative translation ----------------------------------------------

def test_translation_preserves_exponents():
    m = PsiMonomial.gen(1, "x", 2) * PsiMonomial.gen(2, "-1/2", -1)
    t = to_multiplicative(m)
    assert isinstance(t, MultiplicativeMonomial)
    assert t.exps == m.exps
    assert format_monomial(t) == "Phi[1,q^x]^2 Phi[2,q^-1/2]^-1"


def test_translation_of_y_expansion():
    for ct, i in ((A1, 1), (B2, 1), (G2, 2)):
        d = ct.di(i)
        t = to_multiplicative(y_to_psi(ct, YMonomial.gen(i, "a")))
        want = MultiplicativeMonomial.gen(i, coord("a") + d / 2) \
            * MultiplicativeMonomial.gen(i, coord("a") - d / 2, -1)
        assert t == want


@pytest.mark.parametrize("ct,i", [(A1, 1), (A2, 1), (B2, 1), (B2, 2), (G2, 1), (G2, 2)])
def test_multiplicative_tq_structural_match(ct, i):
    rep = verify_multiplicative_tq(ct, i, "x", "y", "k")
    assert rep.verdict, rep.to_text()


def test_multiplicative_tq_reports_a_moved_exponent(monkeypatch):
    real = identities.to_multiplicative
    x1 = coord("x") - 1

    def moved(m):
        # of the four monomials, only the minus term carries Psi_{1,x-1}
        out = real(m)
        return out * MultiplicativeMonomial.gen(1, x1) if (1, x1) in dict(m.items()) else out
    monkeypatch.setattr(identities, "to_multiplicative", moved)
    rep = verify_multiplicative_tq(A2, 1, "x", "y", "k")
    lhs = "Psi[1,-1+x] Psi[1,y]^-1 Psi[2,-1/2-k+x]^-1 Psi[2,1/2+x]"
    rhs = "Phi[1,q^-1+x] Phi[1,q^y]^-1 Phi[2,q^-1/2-k+x]^-1 Phi[2,q^1/2+x]"
    assert rep.to_text() == ("verdict: fail\nnote: multiplicative translation A2 i=1\n"
                             f"  1: lhs={lhs} rhs={rhs}")
    assert rep.to_json() == {
        "verdict": "fail", "note": "multiplicative translation A2 i=1",
        "lhs_top": "1", "rhs_top": "1",
        "mismatches": [{"avector": "1", "lhs": lhs, "rhs": rhs}]}


def test_multiplicative_tq_fails_when_the_A_expansion_drops_a_factor(monkeypatch):
    real = identities.expand_A_to_Psi
    monkeypatch.setattr(identities, "expand_A_to_Psi",
                        lambda *a: PsiMonomial(real(*a).items()[1:]))
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(["translate", "--to", "multiplicative", "--check-tq",
                         "--type", "A2", "--node", "1"], out, err)
    # the one mismatched row is s(-1), the only one that reads A_{1,x}; its
    # additive side has lost the factor Psi_{1,x-1}
    lhs = "Psi[1,y]^-1 Psi[2,-1/2-k+x]^-1 Psi[2,1/2+x]"
    rhs = "Phi[1,q^-1+x] Phi[1,q^y]^-1 Phi[2,q^-1/2-k+x]^-1 Phi[2,q^1/2+x]"
    assert (code, out.getvalue(), err.getvalue()) == (
        1, "verdict: fail\nnote: multiplicative translation A2 i=1\n"
           f"  1: lhs={lhs} rhs={rhs}\n", "")
