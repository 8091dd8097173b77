"""The frozen records: value equality and hashing (the memo keys), defaults,
keyword construction, immutability and the exact refusals of construction."""
from fractions import Fraction

import pytest

import yqchar.characters as characters
from yqchar.cartan import CartanData, LieType, Weight, build_cartan
from yqchar.characters import EngineConfig, Report, TruncatedCharacter, fm_expand, kr_top_y
from yqchar.cli import CliConfig
from yqchar.identities import IdentitySpec
from yqchar.monomials import AVector, PsiMonomial
from yqchar.sl2_explicit import build_module

B2 = build_cartan(LieType.parse("B2"))


def _twins():
    """(name, a, an equal record built apart, an unequal record) per record type."""
    c, d = ((2, -1), (-2, 2)), (2, 1)
    return [
        ("LieType", LieType("B", 2), LieType(series="B", rank=2), LieType("C", 2)),
        ("CartanData", CartanData(LieType("B", 2), c, d), CartanData(LieType("B", 2), c, d),
         build_cartan(LieType("C", 2))),
        ("EngineConfig", EngineConfig(7), EngineConfig(term_budget=7), EngineConfig(8)),
        ("Weight", Weight((Fraction(1), Fraction(0))), Weight(coords=(1, 0)),
         Weight((Fraction(0), Fraction(1)))),
        ("IdentitySpec", IdentitySpec("tsystem", "A1", 1, 2), IdentitySpec(
            kind="tsystem", lie_type="A1", k=2), IdentitySpec("tsystem", "A1", 1, 3)),
    ]


@pytest.mark.parametrize("name, a, twin, other", _twins(), ids=[t[0] for t in _twins()])
def test_records_are_values(name, a, twin, other):
    assert a is not twin and a == twin and hash(a) == hash(twin)
    assert {a: 1}[twin] == 1
    assert a != other and not a == other
    assert a != tuple(vars(a).values()) and a.__eq__(object()) is NotImplemented
    assert repr(a).startswith(f"{name}(")


def test_cartan_data_keeps_its_stored_hash():
    assert B2 == build_cartan(LieType("B", 2)) and B2._hash == hash(B2)
    assert hash(B2) == hash((B2.lie_type, B2.c, B2.d))


# One of each record, with one of its fields.
_ONE_OF_EACH = [
    (LieType("A", 2), "rank"), (B2, "c"), (EngineConfig(), "term_budget"),
    (Weight((1,)), "coords"), (IdentitySpec("tq", "A1"), "k"), (CliConfig(), "output_format"),
    (Report(True, {}), "verdict"), (build_module("finite", 1, 0, n_max=0), "den"),
    (TruncatedCharacter.make(PsiMonomial.unit(), [(AVector.unit(), 1)], 0), "top"),
]


@pytest.mark.parametrize("record", [r for r, _ in _ONE_OF_EACH], ids=lambda r: type(r).__name__)
def test_a_record_holds_every_field_it_declares(record):
    # equality, hashing and repr read the declared fields; a constructor must set them all
    assert set(type(record).__annotations__) <= set(vars(record))
    assert record == record and repr(record)


@pytest.mark.parametrize("record, field", _ONE_OF_EACH)
def test_a_record_field_cannot_be_set_or_deleted(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is not None


def test_defaults_and_keywords():
    assert EngineConfig() == EngineConfig(term_budget=1_000_000) == characters.DEFAULT_CONFIG
    cfg = CliConfig()
    assert (cfg.default_height_bound, cfg.term_budget, cfg.output_format) == (3, 1_000_000, "text")
    assert CliConfig(term_budget=5, output_format="json").engine() == EngineConfig(5)
    spec = IdentitySpec(kind="two_term", lie_type="A2", a="1", b="2")
    assert (spec.i, spec.k, spec.t, spec.x, spec.y, spec.a, spec.b, spec.N) == \
        (1, 1, 0, "0", "0", "1", "2", 3)
    report = Report(False, {"checked": 4})
    assert (report.lines, report.tally, report.checked) == ((), "", 4)
    assert Report(verdict=True, fields={}, tally=" t") == Report(True, {}, (), " t")


@pytest.mark.parametrize("build, message", [
    (lambda: LieType("Z", 2), "unknown series 'Z' (expected one of A-G)"),
    (lambda: LieType("D", 3), "D3 is rejected; use the isomorphic A3"),
    (lambda: LieType("E", 5), "illegal rank 5 for series E (need rank in [6,8])"),
    (lambda: CliConfig(term_budget=0),
     "config field term_budget must be an integer of at least 1, got 0"),
    (lambda: CliConfig(output_format="xml"), "output_format must be 'text' or 'json'"),
    (lambda: IdentitySpec(kind="nope", lie_type="A1"), "unknown identity kind 'nope'"),
    (lambda: IdentitySpec(kind="tq", lie_type="A1", N=0), "N must be an integer of at least 1, got 0"),
])
def test_construction_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize("budget", [0, -3, "7", True, 2.0, None])
def test_engine_config_refuses_a_budget_that_is_not_a_positive_int(budget):
    with pytest.raises(ValueError) as info:
        EngineConfig(budget)
    assert str(info.value) == \
        f"term_budget must be an integer of at least 1, got {budget!r}"
    assert EngineConfig(1).term_budget == 1


@pytest.mark.parametrize("field", ["default_height_bound", "term_budget"])
@pytest.mark.parametrize("value", [0, -3, "3", True, 2.5, None])
def test_cli_config_refuses_a_count_that_is_not_a_positive_int(field, value):
    with pytest.raises(ValueError) as info:
        CliConfig(**{field: value})
    assert str(info.value) == \
        f"config field {field} must be an integer of at least 1, got {value!r}"
    assert getattr(CliConfig(**{field: 1}), field) == 1


@pytest.mark.parametrize("N", [0, -3, "3", True, 2.5, None])
def test_identity_spec_refuses_a_height_that_is_not_a_positive_int(N):
    for kind in ("tq", "tsystem"):    # before tq reads N for its regime k
        with pytest.raises(ValueError) as info:
            IdentitySpec(kind=kind, lie_type="A1", N=N)
        assert str(info.value) == f"N must be an integer of at least 1, got {N!r}"
    assert IdentitySpec(kind="tq", lie_type="A1", N=1).N == 1


def test_identity_spec_k_defaults_to_the_tq_regime():
    assert IdentitySpec(kind="tq", lie_type="B2", i=2).k == 6
    assert IdentitySpec(kind="tq", lie_type="B2", i=2, N=4).k == 8
    assert IdentitySpec(kind="tq", lie_type="B2", i=2, k=3).k == 3
    assert IdentitySpec(kind="tsystem", lie_type="B2").k == 1


def test_a_translate_equals_its_landed_form(monkeypatch):
    monkeypatch.setattr(characters, "_FM_CACHE", characters._TermBoundedCache(10_000))
    top = kr_top_y(B2, 1, 2, "1/3")
    direct = characters._fm_expand(B2, top, None, EngineConfig())
    moved = fm_expand(B2, top)
    assert moved._anchor is not None and "terms" not in vars(moved)
    assert moved == direct and hash(moved) == hash(direct)      # the compare lands it
    assert moved._anchor is None and vars(moved)["terms"] == direct.terms
    assert moved == TruncatedCharacter(direct.top, direct.terms, None)
    assert moved != moved.truncate(1)
