"""The benchmark tracer's tables name functions and classes that exist, and
``run_identity`` reaches each verifier through its module attribute, which
is what the tracer rebinds.  A rename that left the tracer without its spans
fails here."""
import importlib
import importlib.util
import pathlib

import pytest

import yqchar.identities as identities
from yqchar.cartan import LieType, build_cartan
from yqchar.characters import EngineConfig
from yqchar.coords import coord
from yqchar.identities import KINDS, IdentitySpec, run_identity

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_and_counted_name_exists():
    tracer = _tracer()
    missing = [f"{m}.{name}" for table in (tracer.TRACED, tracer.COUNTED)
               for m, names in table.items() for name in names
               if not hasattr(importlib.import_module(f"yqchar.{m}"), name)]
    assert missing == []


# Each kind's verifier, and the arguments it gets after the Cartan data and
# node from the spec below: x and y as coordinates, k as an int, the rest as given.
X = coord("1/2")
VERIFIERS = {
    "tsystem": ("verify_tsystem", (2, 0)),
    "tq": ("verify_tq", (2, X, 2)),
    "two_term": ("verify_two_term", ("0", "0", X, coord(0), 2)),
    "factorization": ("verify_factorization", (2, X)),
    "kr_skeleton": ("check_kr_skeleton", (2, X)),
    "demazure_support": ("check_demazure_support", (2, X, 2)),
    "m_support": ("check_m_support", (2, X, 2)),
}


def test_every_kind_has_a_verifier():
    assert VERIFIERS.keys() == KINDS.keys()


@pytest.mark.parametrize("kind", VERIFIERS)
def test_run_identity_calls_the_verifier_bound_on_the_module(monkeypatch, kind):
    calls = []

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return "ran"
    name, fields = VERIFIERS[kind]
    monkeypatch.setattr(identities, name, spy)
    config = EngineConfig(123)
    assert run_identity(IdentitySpec(kind, "A2", 1, k="2", x="1/2", N=2), config) == "ran"
    assert calls == [((build_cartan(LieType.parse("A2")), 1, *fields), {"config": config})]
