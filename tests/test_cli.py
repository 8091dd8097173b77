"""Command-line interface: exit codes, formats, determinism."""
import io
import json
from pathlib import Path

import pytest

import yqchar.cli as cli
from yqchar.characters import CharacterReport, TruncatedCharacter
from yqchar.monomials import AVector, PsiMonomial


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(argv, out, err)
    return code, out.getvalue(), err.getvalue()


# -- qchar -------------------------------------------------------------------

def test_qchar_kr_text():
    code, out, err = run(["qchar", "kr", "--type", "A1", "--node", "1", "--k", "2"])
    assert code == 0 and err == ""
    assert "top: Psi[1,0]^-1 Psi[1,2]" in out
    assert "A[1,0]^-1 A[1,1]^-1" in out


def test_qchar_kr_json_schema():
    code, out, _ = run(["qchar", "kr", "--type", "A2", "--node", "1",
                        "--k", "1", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "yqchar/1"
    assert doc["result"]["top"] == "Psi[1,0]^-1 Psi[1,1]"
    assert len(doc["result"]["terms"]) == 3


def test_qchar_demazure_asymptotic_prefundamental_m_n():
    for argv in (
        ["qchar", "demazure", "--type", "A1", "--node", "1", "--k", "2", "--t", "1"],
        ["qchar", "asymptotic", "--type", "A1", "--node", "1", "--y", "k", "--x", "0"],
        ["qchar", "prefundamental", "--type", "B2", "--node", "2", "--sign", "-"],
        ["qchar", "m", "--type", "B2", "--node", "1", "--k", "k", "--x", "1/2"],
        ["qchar", "n", "--type", "G2", "--node", "1", "--k", "k"],
    ):
        code, out, err = run(argv)
        assert code == 0 and out and err == "", argv


def test_output_is_deterministic():
    argv = ["qchar", "kr", "--type", "B2", "--node", "2", "--k", "3",
            "--format", "json"]
    assert run(argv) == run(argv)


# -- verify ------------------------------------------------------------------

def test_verify_commands_pass():
    for argv in (
        ["verify", "tsystem", "--type", "A1", "--node", "1", "--k", "2", "--t", "1"],
        ["verify", "tq", "--type", "A1", "--node", "1", "--k", "6", "--height", "2"],
        ["verify", "two-term", "--type", "A1", "--node", "1",
         "--a", "a", "--b", "b", "--x", "x", "--y", "y", "--height", "2"],
        ["verify", "factorization", "--type", "B2", "--node", "2", "--k", "3"],
        ["verify", "kr-skeleton", "--type", "A2", "--node", "1", "--k", "2"],
        ["verify", "demazure-support", "--type", "A2", "--node", "1",
         "--k", "2", "--height", "2"],
        ["verify", "m-support", "--type", "A2", "--node", "1",
         "--k", "6", "--height", "2"],
    ):
        code, out, err = run(argv)
        assert code == 0 and "pass" in out and err == "", argv


def test_verify_suite(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"kind": "tsystem", "lie_type": "A1", "k": 1, "t": 1},
        {"kind": "factorization", "lie_type": "A2", "i": 1, "k": 2},
    ]))
    code, out, _ = run(["verify", "suite", str(suite)])
    assert code == 0 and out.count("---") == 2
    code, out, _ = run(["verify", "suite", str(suite), "--format", "json"])
    doc = json.loads(out)
    assert code == 0 and doc["verdict"] == "pass" and len(doc["results"]) == 2


def test_verification_failure_exits_one(monkeypatch):
    unit = TruncatedCharacter.make(PsiMonomial.unit(), {AVector.unit(): 1}, 0)
    failing = CharacterReport(False, unit, unit, (), "forced failure")
    monkeypatch.setattr(cli, "run_identity", lambda spec, cfg: failing)
    code, out, _ = run(["verify", "tsystem", "--type", "A1", "--node", "1", "--k", "1"])
    assert code == 1 and "fail" in out


# -- error handling ----------------------------------------------------------

def test_usage_errors_exit_two(tmp_path):
    assert run(["qchar", "kr", "--type", "Z9", "--node", "1"])[0] == 2
    assert run(["translate", "--to", "multiplicative"])[0] == 2
    assert run(["translate", "--to", "multiplicative", "--monomial", "Psi[1,"])[0] == 2
    assert run(["no-such-command"])[0] == 2
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"output_format": "xml"}))
    assert run(["qchar", "kr", "--type", "A1", "--node", "1",
                "--config", str(bad)])[0] == 2


def test_engine_exhaustion_exits_three(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"term_budget": 2}))
    code, _, err = run(["qchar", "kr", "--type", "A1", "--node", "1",
                        "--k", "5", "--config", str(cfg)])
    assert code == 3 and "engine error" in err


def test_help_exits_zero():
    assert run(["--help"])[0] == 0


def test_reused_parser_keeps_no_state_between_calls():
    argv = ["verify", "tq", "--type", "B2", "--node", "2", "--k", "6",
            "--height", "2", "--format", "json"]
    first = run(argv)
    assert first[0] == 0
    assert run(["verify", "tq", "--type", "B2", "--k", "6"])[0] == 2   # no --node
    assert run(argv) == first
    assert cli._parser() is cli._parser()


# -- rep-check ---------------------------------------------------------------

def test_rep_check_commands():
    code, out, _ = run(["rep-check", "relations", "--kind", "truncated",
                        "--k", "7/3", "--x", "1/2", "--M", "6", "--modes", "2"])
    assert code == 0 and "pass" in out
    code, out, _ = run(["rep-check", "qchar", "--kind", "finite", "--k", "3"])
    assert code == 0 and "top: Psi[1,0]^-1 Psi[1,3]" in out
    code, out, _ = run(["rep-check", "three-term", "--x", "2", "--y", "0",
                        "--M", "8", "--height", "3", "--format", "json"])
    assert code == 0 and json.loads(out)["result"]["verdict"] == "pass"


# -- translate ---------------------------------------------------------------

def test_translate_monomial():
    code, out, _ = run(["translate", "--to", "multiplicative",
                        "--monomial", "Psi[1,1/2+x] /Psi[1,-1/2+x]"])
    assert code == 0
    assert out.strip() == "Phi[1,q^-1/2+x]^-1 Phi[1,q^1/2+x]"


def test_translate_check_tq():
    code, out, _ = run(["translate", "--to", "multiplicative", "--check-tq",
                        "--type", "G2", "--node", "2"])
    assert code == 0 and "pass" in out


# -- config ------------------------------------------------------------------

def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "yqchar.__version__"}


def test_cli_config_validation():
    with pytest.raises(ValueError):
        cli.CliConfig(default_height_bound=0)
    with pytest.raises(ValueError):
        cli.CliConfig(output_format="yaml")
    assert cli.CliConfig().engine().term_budget == 1_000_000
