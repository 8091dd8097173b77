"""Command-line interface: exit codes, formats, determinism."""
import contextlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import yqchar.characters as characters
import yqchar.cli as cli
import yqchar.coords as coords
import yqchar.monomials as monomials
from yqchar.characters import _FM_CACHE, Report, TruncatedCharacter
from yqchar.coords import coord
from yqchar.monomials import PsiMonomial


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


def test_a_symbolic_k_over_n_prints_without_a_unit_coefficient():
    code, out, _ = run(["qchar", "m", "--type", "G2", "--node", "1", "--k", "k/3", "--x", "x"])
    assert code == 0
    assert out == "Psi[1,x]^-1 Psi[1,1+x] Psi[2,-3/2-k/3+x]^-1 Psi[2,-3/2+x]\n"


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


def test_suite_header_names_k_only_for_kinds_that_read_it(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"kind": "two_term", "lie_type": "A1", "x": "1/2", "N": 2},
        {"kind": "tsystem", "lie_type": "A1", "k": 2, "t": 1},
    ]))
    assert run(["verify", "suite", str(suite)]) == (0, "\n".join([
        "--- two_term A1 i=1", "verdict: pass", "note: two-term exchange A1 i=1",
        "--- tsystem A1 i=1 k=2", "verdict: pass",
        "note: kernel of A1 i=1 k=2 t=1: direct expansion vs SES difference", ""]), "")


def test_verify_suite_with_a_failing_entry(tmp_path, monkeypatch):
    # one failing entry fails the whole suite, in both formats
    failing = Report(False, {"note": "forced failure"}, ("note: forced failure",))
    real = cli.run_identity
    monkeypatch.setattr(cli, "run_identity",
                        lambda spec, cfg: failing if spec.kind == "tq" else real(spec, cfg))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"kind": "tq", "lie_type": "A2", "i": 1, "k": 3, "N": 2},
        {"kind": "factorization", "lie_type": "A2", "i": 1, "k": 2},
    ]))
    assert run(["verify", "suite", str(suite)]) == (1, "\n".join([
        "--- tq A2 i=1 k=3", "verdict: fail", "note: forced failure",
        "--- factorization A2 i=1 k=2", "verdict: pass",
        "note: m*n vs Demazure weight, k=2", ""]), "")
    fact = "Psi[1,0]^-1 Psi[1,1] Psi[2,-5/2]^-1 Psi[2,-1/2]"
    doc = {"schema": "yqchar/1", "verdict": "fail", "results": [
        {"verdict": "fail", "note": "forced failure"},
        {"verdict": "pass", "note": "m*n vs Demazure weight, k=2",
         "lhs_top": fact, "rhs_top": fact, "mismatches": []}]}
    assert run(["verify", "suite", str(suite), "--format", "json"]) == \
        (1, json.dumps(doc, sort_keys=True) + "\n", "")


def test_suite_entry_below_the_tq_regime_is_a_usage_error(tmp_path):
    # A2 i=1 at k=1, N=2 lies below the TQ regime k >= N: refused, not failed
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([
        {"kind": "factorization", "lie_type": "A2", "i": 1, "k": 2},
        {"kind": "tq", "lie_type": "A2", "i": 1, "k": 1, "N": 2},
    ]))
    err = ("error: k=1 is outside the TQ regime at node 1 for height 2: "
           "need k*d_1 >= 2*d_2 = 2; the least k is 2\n")
    for fmt in ("text", "json"):
        assert run(["verify", "suite", str(suite), "--format", fmt]) == (2, "", err)


def test_suite_tq_entry_without_k_runs_at_the_regime(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"kind": "tq", "lie_type": "B2", "i": 2, "N": 3}]))
    code, out, err = run(["verify", "suite", str(suite)])
    assert (code, err) == (0, "")
    assert out.startswith("--- tq B2 i=2 k=6\nverdict: pass\nnote: B2 i=2 k=6 x=0 N=3\n")


def test_suite_entry_without_n_takes_the_config_height(tmp_path):
    # one default height: a suite entry reads the config's as the verb does
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"default_height_bound": 5}))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"kind": "tq", "lie_type": "A2", "i": 1}]))
    code, out, err = run(["verify", "suite", str(suite), "--config", str(cfg)])
    assert (code, err) == (0, "")
    assert out.startswith("--- tq A2 i=1 k=5\nverdict: pass\nnote: A2 i=1 k=5 x=0 N=5\n")
    code, out, _ = run(["verify", "tq", "--type", "A2", "--node", "1", "--config", str(cfg)])
    assert code == 0 and out.startswith("verdict: pass\nnote: A2 i=1 k=5 x=0 N=5\n")


def test_verify_tq_regime_from_the_command_line():
    tq = ["verify", "tq", "--type", "B2", "--node", "2", "--height", "4"]
    assert run([*tq, "--k", "6"]) == (2, "", "error: k=6 is outside the TQ regime at node 2 "
                                             "for height 4: need k*d_2 >= 4*d_1 = 8; "
                                             "the least k is 8\n")
    code, out, err = run([*tq, "--k", "8"])
    assert (code, err) == (0, "") and out.startswith("verdict: pass\n")
    # without --k, verify tq runs at the least k of the regime
    code, out, err = run(["verify", "tq", "--type", "A2", "--node", "1"])
    assert (code, err) == (0, "")
    assert out.startswith("verdict: pass\nnote: A2 i=1 k=3 x=0 N=3\n")
    # every other verb keeps k = 1
    code, out, _ = run(["verify", "m-support", "--type", "A2", "--node", "1"])
    assert code == 0 and "k=1 " in out


def test_verification_failure_exits_one(monkeypatch):
    failing = Report(False, {"note": "forced failure"}, ("note: forced failure",))
    monkeypatch.setattr(cli, "run_identity", lambda spec, cfg: failing)
    code, out, _ = run(["verify", "tsystem", "--type", "A1", "--node", "1", "--k", "1"])
    assert code == 1 and "fail" in out


# -- error handling ----------------------------------------------------------

def test_usage_errors_exit_two(tmp_path):
    assert run(["qchar", "kr", "--type", "Z9", "--node", "1"])[0] == 2
    assert run(["translate", "--to", "multiplicative"])[0] == 2
    assert run(["translate", "--to", "multiplicative", "--monomial", "Psi[1,"])[0] == 2
    assert run(["no-such-command"])[0] == 2
    assert run(["rep-check", "three-term", "--height", "-1"]) == \
        (2, "", "error: need 0 <= bound <= M - 2\n")
    bad = tmp_path / "cfg.json"
    bad.write_text(json.dumps({"output_format": "xml"}))
    assert run(["qchar", "kr", "--type", "A1", "--node", "1",
                "--config", str(bad)])[0] == 2


@pytest.mark.parametrize("fault, err", [
    (TypeError("engine bug"), "internal error: TypeError: engine bug\n"),
    (KeyError("lane"), "internal error: KeyError: 'lane'\n"),
    (ZeroDivisionError("division by zero"),
     "internal error: ZeroDivisionError: division by zero\n"),
])
def test_a_fault_inside_the_engine_exits_three(monkeypatch, fault, err):
    # an exception no input raises is an internal fault, never a usage error
    # (exit 2) or a failed verification (exit 1)
    def fm_expand(*args):
        raise fault
    monkeypatch.setattr(cli, "fm_expand", fm_expand)
    assert run(["qchar", "kr", "--type", "A1", "--node", "1"]) == (3, "", err)


def _cycle(self):
    payload = {"avector": "1"}
    payload["self"] = payload
    return payload


def test_a_payload_that_holds_itself_is_an_internal_fault(monkeypatch, tmp_path):
    # every JSON document is encoded without the circular check: a payload
    # with a cycle, which no to_json builds, is a fault (exit 3), not the
    # usage error (exit 2) that the check's ValueError would read as
    suite = tmp_path / "suite.json"
    suite.write_text('[{"kind": "tsystem", "lie_type": "A1", "i": 1, "k": 1, "t": 0}]')
    monkeypatch.setattr(TruncatedCharacter, "to_json", _cycle)
    monkeypatch.setattr(Report, "to_json", _cycle)
    for argv in (["qchar", "kr", "--type", "A1", "--node", "1", "--format", "json"],
                 ["verify", "suite", str(suite), "--format", "json"]):
        code, out, err = run(argv)
        assert (code, out) == (3, ""), argv
        assert err.startswith("internal error: RecursionError: "), argv


def test_a_warm_kr_job_at_a_new_point_builds_no_weight_grammar_or_encoder(monkeypatch):
    # the job reads its plain x in one step, builds the KR string on its sites,
    # reads the shift to the memoized anchor off the lane table, and encodes
    # with the module's one encoder
    argv = ["qchar", "kr", "--type", "A4", "--node", "1", "--k", "3", "--format", "json"]
    assert run(argv + ["--x=1/7"])[0] == 0
    calls = Counter()

    def spy(module, name):
        fn = getattr(module, name, None)

        def counted(*args, **kwargs):
            calls[f"{module.__name__}.{name}"] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counted, raising=False)

    class Encoder(json.JSONEncoder):
        def __init__(self, *args, **kwargs):
            calls["JSONEncoder"] += 1
            super().__init__(*args, **kwargs)
    for module, name in ((characters, "kr_weight"), (characters, "psi_to_y"),
                         (monomials, "psi_to_y"), (coords, "_parse_term"),
                         (characters, "_unsite")):
        spy(module, name)
    monkeypatch.setattr(json, "JSONEncoder", Encoder)
    hits = _FM_CACHE.hits
    code, out, err = run(argv + ["--x=-403/7"])
    assert (code, err) == (0, "") and len(json.loads(out)["result"]["terms"]) == 35
    assert _FM_CACHE.hits == hits + 1           # the anchor, met warm
    assert dict(calls) == {}


class _ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


PASSING_TQ = ["verify", "tq", "--type", "A2", "--node", "1", "--k", "6", "--height", "3"]


def test_a_failed_write_exits_three_and_a_missing_file_two(tmp_path):
    # a closed output pipe is a fault, neither a verdict nor a usage error, and
    # its line goes to err; an input file that cannot be read is a usage error
    err = io.StringIO()
    assert cli.dispatch(PASSING_TQ, _ClosedPipe(), err) == 3
    assert err.getvalue() == "internal error: BrokenPipeError: [Errno 32] Broken pipe\n"
    for argv in (PASSING_TQ + ["--config", str(tmp_path / "missing.json")],
                 ["verify", "suite", str(tmp_path / "missing.json")]):
        code, out, err = run(argv)
        assert (code, out) == (2, "") and "No such file or directory" in err


def _console(argv, unbuffered, stdout_closed, stderr_closed):
    """(exit code, stdout, stderr) of the console entry run on ``argv``, each of
    its streams either read here or a pipe whose read end is closed."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run(
            [sys.executable, "-c", "from yqchar.cli import main; main()", *argv],
            stdout=write if stdout_closed else subprocess.PIPE,
            stderr=write if stderr_closed else subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write)
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("unbuffered", ("1", ""))
@pytest.mark.parametrize("argv, stdout_closed, stderr_closed", [
    (PASSING_TQ, True, False), (PASSING_TQ, True, True),
    (["qchar", "kr", "--type", "Z9", "--node", "1"], False, True),
    (["verify", "tq", "--help"], True, False),
    (["verify", "tq", "--type", "B2", "--k", "6"], False, True)])
def test_a_closed_pipe_exits_three_with_no_traceback(argv, stdout_closed, stderr_closed,
                                                     unbuffered):
    # a passing run with stdout closed, alone or with stderr, a usage error
    # with stderr closed, and argparse's own help and usage text: exit 3,
    # never 0, 1 (an uncaught traceback), 2 (a usage error) or 120 (a failed
    # flush at exit), and the line on stderr if it is open
    code, _, err = _console(argv, unbuffered, stdout_closed, stderr_closed)
    assert code == 3
    if not stderr_closed:
        assert err == b"internal error: BrokenPipeError: [Errno 32] Broken pipe\n"


@pytest.mark.parametrize("unbuffered", ("1", ""))
def test_help_reaches_an_open_pipe(unbuffered):
    # dispatch passes argparse's --help text on and flushes it
    code, out, err = _console(PASSING_TQ[:2] + ["--help"], unbuffered, False, False)
    assert (code, err) == (0, b"") and out.startswith(b"usage: yqchar verify tq [-h]")
    assert b"--height HEIGHT" in out and out.endswith(b"\n")


def test_unrealizable_k_is_a_usage_error():
    # the m-weight factor at a neighbour j is a string of Y_j's only when
    # d_j divides k d_i; the check names k, i, j and d_j before any expansion
    for argv, msg in (
        (["verify", "tq", "--type", "G2", "--node", "1", "--k", "4", "--x=1/2",
          "--height", "3"], "k=4 is not realizable at node 1: d_2=3 does not divide k*d_1=4"),
        (["verify", "m-support", "--type", "C2", "--node", "1", "--k", "3",
          "--x=x-1000000000000000000001/2", "--height", "1"],
         "k=3 is not realizable at node 1: d_2=2 does not divide k*d_1=3"),
        (["verify", "tq", "--type", "B2", "--node", "2", "--k", "3", "--height", "2"],
         "k=3 is not realizable at node 2: d_1=2 does not divide k*d_2=3"),
    ):
        assert run(argv) == (2, "", f"error: {msg}\n"), argv


@pytest.mark.parametrize("argv, k", [
    (["verify", "m-support", "--type", "A1", "--node", "1", "--k", "-5", "--height", "2"], -5),
    (["verify", "m-support", "--type", "A2", "--node", "1", "--k", "-2", "--height", "2"], -2),
    (["verify", "tq", "--type", "A1", "--node", "1", "--k", "0", "--height", "1"], 0),
    (["verify", "demazure-support", "--type", "A2", "--node", "1", "--k", "0", "--height", "2"],
     0),
    (["verify", "factorization", "--type", "A2", "--node", "1", "--k", "-2"], -2),
])
def test_a_k_below_one_is_refused_by_the_m_weight_verifiers(argv, k):
    # A1's m-weight does not read k, and A2's at k < 1 is no dominant top; the
    # kernel and factorization verifiers take no t, so their refusal names k only
    assert run(argv) == (2, "", f"error: k must be >= 1, got {k}\n")


def test_negative_height_is_a_usage_error_on_engine_paths():
    before = set(_FM_CACHE._data), _FM_CACHE.misses
    for argv in (["qchar", "kr", "--type", "A2", "--node", "1", "--k", "2", "--height", "-1"],
                 ["qchar", "demazure", "--type", "A2", "--node", "1", "--k", "2", "--t", "1",
                  "--height", "-1"],
                 ["qchar", "prefundamental", "--type", "A2", "--node", "1", "--sign", "+",
                  "--height", "-1"],
                 ["qchar", "prefundamental", "--type", "A2", "--node", "1", "--sign", "-",
                  "--height", "-1"]):
        assert run(argv) == (2, "", "error: height bound must be >= 0\n")
    # refused before the memo is consulted: nothing looked up, nothing stored
    assert (set(_FM_CACHE._data), _FM_CACHE.misses) == before


def test_suite_entry_with_unknown_field_is_a_usage_error(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([{"kind": "tq", "lie_type": "B2", "i": 2, "k": 6,
                                  "height": 4}]))
    assert run(["verify", "suite", str(suite)]) == \
        (2, "", "error: unknown identity field(s): height\n")


@pytest.mark.parametrize("entry, err", [
    ({"kind": "tsystem", "lie_type": "A2", "i": 1, "k": 2, "t": 1, "N": 1},
     "identity field(s) not read by kind tsystem: N"),
    ({"kind": "factorization", "lie_type": "A2", "i": 1, "k": 2, "t": 5, "y": "zz", "N": 9},
     "identity field(s) not read by kind factorization: N, t, y"),
    ({"kind": "tsystem", "lie_type": "A2", "i": 1, "k": 2, "t": 1, "x": "1/0"},
     "identity field(s) not read by kind tsystem: x"),
])
def test_a_suite_entry_gives_only_the_fields_its_kind_reads(tmp_path, entry, err):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([entry]))
    for fmt in ("text", "json"):
        assert run(["verify", "suite", str(suite), "--format", fmt]) == (2, "", f"error: {err}\n")
    # without them it passes: the caller's default N is no field of the entry
    unread = err.rsplit(": ", 1)[1].split(", ")
    suite.write_text(json.dumps([{f: v for f, v in entry.items() if f not in unread}]))
    code, out, _ = run(["verify", "suite", str(suite)])
    assert code == 0 and "verdict: pass" in out


@pytest.mark.parametrize("argv, err", [
    (["verify", "tq", "--type", "A2", "--node", "1", "--k=nan"],
     "error: k must be an integer, got 'nan'\n"),
    (["qchar", "demazure", "--type", "A2", "--node", "1", "--k", "1/2"],
     "error: k must be an integer, got '1/2'\n"),
    (["translate", "--to", "multiplicative", "--monomial", "Psi[3,1/0]"],
     "error: bad coordinate '1/0' (at position 0)\n"),
    (["translate", "--to", "multiplicative", "--monomial", "Psi[1,x] Psi[1,x-y/0]"],
     "error: bad coordinate 'x-y/0' (at position 9)\n"),
    (["qchar", "kr", "--type", "A1", "--node", "1", "--x=x-y-1/0"],
     "error: bad rational '1/0' at position 4\n"),
    (["qchar", "kr", "--type", "A2000", "--node", "1"],
     "error: illegal rank 2000 for series A (need rank in [1,32])\n"),
])
def test_usage_errors_name_the_input_once(argv, err):
    assert run(argv) == (2, "", err)


@pytest.mark.parametrize("config, err", [
    ({"stabilization_k_ceiling": 16}, "unknown config field(s): stabilization_k_ceiling"),
    ({"term_budget": 5, "zeta": 1, "alpha": 2}, "unknown config field(s): alpha, zeta"),
])
def test_config_with_unknown_field_is_a_usage_error(tmp_path, config, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["qchar", "kr", "--type", "A1", "--node", "1", "--config", str(cfg)]) == \
        (2, "", f"error: {err}\n")


@pytest.mark.parametrize("config, err", [
    ({"term_budget": 0},
     "error: config field term_budget must be an integer of at least 1, got 0\n"),
    ({"default_height_bound": 0},
     "error: config field default_height_bound must be an integer of at least 1, got 0\n"),
])
def test_a_config_bound_below_one_is_refused_by_its_field(tmp_path, config, err):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert run(["qchar", "kr", "--type", "A1", "--node", "1", "--config", str(cfg)]) == \
        (2, "", err)


@pytest.mark.parametrize("config, err", [
    ([1], "a config file must be a JSON object, got [1]"),
    (None, "a config file must be a JSON object, got null"),
    ("x", 'a config file must be a JSON object, got "x"'),
    ({"term_budget": "x"}, 'config field term_budget must be an integer, got "x"'),
    ({"term_budget": True}, "config field term_budget must be an integer, got true"),
    ({"term_budget": 1000.0}, "config field term_budget must be an integer, got 1000.0"),
    ({"default_height_bound": True},
     "config field default_height_bound must be an integer, got true"),
    ({"default_height_bound": 2.5},
     "config field default_height_bound must be an integer, got 2.5"),
    ({"output_format": ["json"]}, 'config field output_format must be a string, got ["json"]'),
])
def test_config_of_the_wrong_shape_is_a_usage_error(tmp_path, config, err):
    # a config file gets the typed field check of a suite entry, on every verb
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    for argv in (["qchar", "kr", "--type", "A1", "--node", "1"],
                 ["qchar", "asymptotic", "--type", "A1", "--node", "1", "--y", "y"],
                 ["rep-check", "three-term", "--x", "2"]):
        assert run([*argv, "--config", str(cfg)]) == (2, "", f"error: {err}\n"), argv


@pytest.mark.parametrize("entry, err", [
    ({"lie_type": "B2", "i": 2}, "missing identity field(s): kind"),
    ({"kind": "tq"}, "missing identity field(s): lie_type"),
    ({"k": 3}, "missing identity field(s): kind, lie_type"),
])
def test_suite_entry_without_kind_or_type_is_a_usage_error(tmp_path, entry, err):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps([entry]))
    assert run(["verify", "suite", str(suite)]) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("suite, err", [
    ([{"kind": "tq", "lie_type": 5}], "identity field lie_type must be a string, got 5"),
    ({"kind": "tq", "lie_type": "A2"}, "a suite file must hold a JSON list of identity specs"),
    ([5], "an identity spec must be a JSON object, got 5"),
    ([{"kind": "tq", "lie_type": "A2", "i": "1"}],
     'identity field i must be an integer, got "1"'),
    ([{"kind": "tsystem", "lie_type": "A2", "t": "1"}],
     'identity field t must be an integer, got "1"'),
    ([{"kind": "tq", "lie_type": "A2", "N": "3"}],
     'identity field N must be an integer, got "3"'),
    ([{"kind": "tsystem", "lie_type": "A1", "k": True}],
     "identity field k must be an integer or a string, got true"),
    ([{"kind": "two_term", "lie_type": "A1", "x": None}],
     "identity field x must be an integer or a string, got null"),
])
def test_suite_of_the_wrong_shape_is_a_usage_error(tmp_path, suite, err):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(suite))
    for fmt in ("text", "json"):
        assert run(["verify", "suite", str(path), "--format", fmt]) == (2, "", f"error: {err}\n")


def test_a_suite_file_that_is_not_json_is_named():
    assert run(["verify", "suite", "/dev/null"]) == (
        2, "", "error: suite file /dev/null is not JSON: "
               "Expecting value: line 1 column 1 (char 0)\n")


def test_a_config_file_that_is_not_json_is_named(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{term_budget: 5}")
    assert run(["qchar", "kr", "--type", "A1", "--node", "1", "--config", str(cfg)]) == (
        2, "", f"error: config file {cfg} is not JSON: Expecting property name "
               "enclosed in double quotes: line 1 column 2 (char 1)\n")


def _deeply_nested(path):
    path.write_text("[" * 100_000 + "]" * 100_000)
    return path


def test_a_suite_file_nested_too_deeply_is_named(tmp_path):
    suite = _deeply_nested(tmp_path / "suite.json")
    assert run(["verify", "suite", str(suite)]) == (
        2, "", f"error: suite file {suite} is nested too deeply\n")


def test_a_config_file_nested_too_deeply_is_named(tmp_path):
    cfg = _deeply_nested(tmp_path / "cfg.json")
    assert run(["qchar", "kr", "--type", "A1", "--node", "1", "--config", str(cfg)]) == (
        2, "", f"error: config file {cfg} is nested too deeply\n")


def test_stabilized_characters_are_bounded_by_the_term_budget():
    # the stable length is the height, so any height answers up to the budget
    code, out, _ = run(["qchar", "asymptotic", "--type", "A1", "--node", "1", "--y", "y",
                        "--x", "0", "--height", "17"])
    assert code == 0 and len(out.splitlines()) == 3 + 18
    for argv, msg in (
        (["qchar", "asymptotic", "--type", "A1", "--node", "1", "--height", "100000"],
         "the chains of a node-sl2 string of length 100000"),
        (["qchar", "prefundamental", "--type", "B2", "--node", "2", "--height", "2000000"],
         "a KR string of 2000000 factors"),
    ):
        assert run(argv) == (3, "", f"engine error: term budget 1000000 exceeded by {msg}\n")


def test_engine_exhaustion_exits_three(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"term_budget": 2}))
    code, _, err = run(["qchar", "kr", "--type", "A1", "--node", "1",
                        "--k", "5", "--config", str(cfg)])
    assert code == 3 and "engine error" in err


def test_complete_kr_characters_are_bounded_by_stored_factors(tmp_path):
    # W_k of A1 stores k (k + 1) / 2 factors in k + 1 terms: k = 10000 is
    # refused before its first node-sl2 string is built, k beyond the
    # budget before its Y-string is built
    for k in ("10000", "2000000"):
        code, out, err = run(["qchar", "kr", "--type", "A1", "--node", "1", "--k", k])
        assert code == 3 and out == ""
        assert err.startswith("engine error: term budget 1000000") and err.count("\n") == 1
    # a truncated character of the same module stays cheap
    code, out, _ = run(["qchar", "kr", "--type", "A1", "--node", "1", "--k", "10000",
                        "--height", "2"])
    assert code == 0 and out.count("A[1,") == 3
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"term_budget": 29}))
    argv = ["qchar", "kr", "--type", "A2", "--node", "1", "--k", "3", "--config", str(cfg)]
    code, _, err = run(argv)    # 10 terms, 30 factors
    assert code == 3 and "(10 terms, 30 factors)" in err
    cfg.write_text(json.dumps({"term_budget": 30}))
    assert run(argv)[0] == 0


def test_help_exits_zero():
    assert run(["--help"])[0] == 0


def test_help_goes_to_out(capsys):
    code, out, err = run(["--help"])
    assert code == 0 and "usage: yqchar" in out and err == ""
    assert capsys.readouterr() == ("", "")


def test_usage_error_goes_to_err(capsys):
    code, out, err = run(["verify", "tq", "--type", "B2", "--k", "6"])
    assert code == 2 and out == "" and "--node" in err
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", [
    ["rep-check", "relations", "--k", "1" + "0" * 400],
    ["rep-check", "qchar", "--kind", "truncated", "--k", "1/3", "--M", "100000000000"],
    ["rep-check", "relations", "--modes", "1000000000000"],
    ["rep-check", "three-term", "--x", "2", "--M", "100000000000"],
    ["rep-check", "relations", "--k", "8", "--modes", "1000"],
])
def test_huge_matrix_modules_exit_three(argv):
    code, out, err = run(argv)
    assert code == 3 and out == ""
    assert err.startswith("engine error: term budget") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["qchar", "kr", "--type", "A2", "--node", "0"],
    ["qchar", "kr", "--type", "B2", "--node=-1"],
    ["qchar", "kr", "--type", "A2", "--node", "3"],
    ["qchar", "kr", "--type", "A2", "--node", "3", "--k", "0"],
    ["qchar", "prefundamental", "--type", "A2", "--node", "3", "--sign", "+"],
    ["verify", "tq", "--type", "A2", "--node", "4", "--k", "2"],
    ["qchar", "kr", "--type", "A2", "--node", "1", "--x", "1/0"],
    ["qchar", "m", "--type", "A2", "--node", "1", "--k", "k/0"],
    ["rep-check", "relations", "--x", "1/0"],
    ["rep-check", "three-term", "--y", "2/0"],
])
def test_bad_node_or_zero_denominator_exits_two(argv):
    code, out, err = run(argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_reused_parser_keeps_no_state_between_calls():
    argv = ["verify", "tq", "--type", "B2", "--node", "2", "--k", "6",
            "--height", "2", "--format", "json"]
    first = run(argv)
    assert first[0] == 0
    assert run(["verify", "tq", "--type", "B2", "--k", "6"])[0] == 2   # no --node
    assert run(argv) == first
    assert cli._parser() is cli._parser()


# -- one text, one meaning ---------------------------------------------------
# parse_coord reads every coordinate and module parameter; a verb that needs
# an integer or a rational narrows that reading and refuses anything else.

_A2 = ("--type", "A2", "--node", "1")


@pytest.mark.parametrize("argv, same_as", [
    (["qchar", "kr", *_A2, "--k", "4/2"], ["qchar", "kr", *_A2, "--k", "2"]),
    (["qchar", "m", *_A2, "--k", "4/2"], ["qchar", "m", *_A2, "--k", "2"]),
    (["verify", "tq", *_A2, "--k", "4/2", "--height", "2"],
     ["verify", "tq", *_A2, "--k", "2", "--height", "2"]),
    (["qchar", "m", *_A2, "--k", "1_0"], ["qchar", "m", *_A2, "--k", "_0"]),
    (["qchar", "kr", *_A2, "--x", "2e-x"], ["qchar", "kr", *_A2, "--x=-x+2e"]),
    (["rep-check", "qchar", "--k", "4/2", "--x", " 1/2"],
     ["rep-check", "qchar", "--k", "2", "--x", "1/2"]),
])
def test_one_text_reads_alike_in_every_verb(argv, same_as):
    got = run(argv)
    assert got[0] == 0 and got == run(same_as)


@pytest.mark.parametrize("argv, err", [
    (["qchar", "kr", *_A2, "--k", "1_0"], "k must be an integer, got '1_0'"),
    (["verify", "tq", *_A2, "--k", "1_0", "--height", "2"], "k must be an integer, got '1_0'"),
    (["qchar", "kr", *_A2, "--k=+2"], "empty coordinate term at position 0"),
    (["qchar", "m", *_A2, "--k=+2"], "empty coordinate term at position 0"),
    (["verify", "tq", *_A2, "--k=+2"], "empty coordinate term at position 0"),
    (["rep-check", "qchar", "--x", "1e5"],
     "exponent notation '1e5' at position 0 is not a coordinate"),
    (["rep-check", "relations", "--x=1e300"],
     "exponent notation '1e300' at position 0 is not a coordinate"),
    (["rep-check", "qchar", "--k", "x"], "--k must be rational, got 'x'"),
    (["rep-check", "relations", "--kind", "truncated", "--k", "1_0"],
     "--k must be rational, got '1_0'"),
    (["rep-check", "three-term", "--x", "y"], "--x must be rational, got 'y'"),
    (["rep-check", "three-term", "--y", "k/2"], "--y must be rational, got 'k/2'"),
    (["qchar", "kr", *_A2, "--x", "1e5"],
     "exponent notation '1e5' at position 0 is not a coordinate"),
    (["qchar", "kr", *_A2, "--x", "2E-3"],
     "exponent notation '2E-3' at position 0 is not a coordinate"),
])
def test_a_text_outside_a_verbs_domain_is_refused_in_its_words(argv, err):
    assert run(argv) == (2, "", f"error: {err}\n")


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


def test_rep_check_three_term_reads_the_config_height(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"default_height_bound": 2}))
    three = ["rep-check", "three-term", "--x", "2", "--config", str(cfg)]
    assert run(three) == (0, "verdict: pass\nnote: explicit three-term x=2 y=0 N=2\n", "")
    assert run([*three, "--height", "4"])[1].endswith(" N=4\n")


# -- translate ---------------------------------------------------------------

def test_translate_monomial():
    code, out, _ = run(["translate", "--to", "multiplicative",
                        "--monomial", "Psi[1,1/2+x] /Psi[1,-1/2+x]"])
    assert code == 0
    assert out.strip() == "Phi[1,q^-1/2+x]^-1 Phi[1,q^1/2+x]"


@pytest.mark.parametrize("argv", [
    ["--monomial", "Psi[0,1] /Psi[99,x]"],
    ["--monomial", "Psi[1,x] /Psi[3,x]"],
    ["--monomial", "Psi[4,x]", "--type", "A3"],
    ["--monomial", "Psi[1,x]", "--type", "Q3"],
])
def test_translate_checks_nodes_against_the_type(argv):
    code, out, err = run(["translate", "--to", "multiplicative", *argv])
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_translate_reads_nodes_of_the_given_type():
    code, out, _ = run(["translate", "--to", "multiplicative", "--monomial",
                        "Psi[3,x] /Psi[1,0]", "--type", "A3"])
    assert code == 0 and out == "Phi[1,q^0]^-1 Phi[3,q^x]\n"


def test_translate_expands_a_mixed_product_into_psi():
    code, out, _ = run(["translate", "--to", "multiplicative", "--monomial", "Y[1,0] A[2,1]"])
    assert code == 0 and out == ("Phi[1,q^-1/2]^-1 Phi[1,q^1/2]^2 Phi[1,q^3/2]^-1 "
                                 "Phi[2,q^0]^-1 Phi[2,q^2]\n")


def test_translate_check_tq():
    code, out, _ = run(["translate", "--to", "multiplicative", "--check-tq",
                        "--type", "G2", "--node", "2"])
    assert code == 0 and "pass" in out


# -- argv fuzz ---------------------------------------------------------------
# Every leaf with every flag it takes, at small values and malformed ones,
# sometimes with a flag it does not take: whatever the argv, dispatch returns
# a documented exit code, and no input reaches a fault inside the engine.

_COORDS = ("0", "1/2", "-3/2", "x", "k", "x-1")
_BAD_COORDS = ("1/0", "nan", "")
_TYPES = ("A1", "A2", "A3", "B2", "C2", "G2", "B3", "C3", "D4")
# (well-formed values, malformed or out-of-range values) of each value flag;
# each malformed pool holds "--", which argparse reads in --f=-- as no value.
# config.json is a config document drawn from _CONFIG.
_VALUES = {flag: (good, bad + ("--",)) for flag, (good, bad) in {
    "--type": (_TYPES, ("D3", "Z9", "")),
    "--node": (("1", "2"), ("-1", "0", "3", "4")),
    "--k": (("0", "1", "2", "3", "4"), ("-1", "x", "1/2") + _BAD_COORDS),
    "--t": (("0", "1", "2", "3", "4"), ("-1",)),
    "--height": (("0", "1", "2", "3", "4"), ("-1",)),
    "--x": (_COORDS, _BAD_COORDS), "--y": (_COORDS, _BAD_COORDS),
    "--a": (_COORDS, _BAD_COORDS), "--b": (_COORDS, _BAD_COORDS),
    "--M": (("3", "4"), ("-1", "0", "1", "2")),
    "--modes": (("0", "1", "2", "3", "4"), ("-1",)),
    "--format": (("text", "json"), ("xml",)),
    "--sign": (("+", "-"), ("0",)),
    "--kind": (("finite", "truncated"), ("dense",)),
    "--to": (("multiplicative",), ("additive",)),
    "--monomial": (("Psi[1,x]", "Psi[1,1/2] /Psi[2,k]^2"),
                   ("Y[1,0]", "A[1,0]^-1", "Psi[1,", "Psi[3,1/0]", "")),
    "--config": (("config.json",), ("missing.json", "")),
}.items()}
_REQUIRED = ("--type", "--node", "--to")
_MOSTLY = st.sampled_from((True,) * 9 + (False,))
# Each leaf with its flags, read from the CLI's own table, and two words that
# name no leaf.
_VERBS = {path: tuple(f for f in row[0] if f[:2] == "--") for path, row in cli._LEAVES.items()}
_VERBS |= {("qchar",): (), ("no-such-command",): ()}
# JSON values of the wrong type for any field
_JUNK = st.sampled_from((True, False, None, 1.5, [], {}))
_SPEC_VALUES = {
    "kind": st.sampled_from(("tsystem", "tq", "two_term", "factorization", "kr_skeleton",
                             "demazure_support", "m_support", "bogus")) | _JUNK,
    "lie_type": st.sampled_from(_TYPES + _VALUES["--type"][1]) | st.integers(0, 5) | _JUNK,
    "i": st.integers(-1, 4) | st.sampled_from(("1", "2")) | _JUNK,
    "k": st.integers(-1, 4) | st.sampled_from(_COORDS) | _JUNK,
    "t": st.integers(-1, 4) | st.sampled_from(("0", "1")) | _JUNK,
    "N": st.integers(-1, 4) | st.sampled_from(("2", "3")) | _JUNK,
    "x": st.sampled_from(_COORDS + _BAD_COORDS) | st.integers(-1, 2) | _JUNK,
    "height": st.integers(0, 4),
}
_SPEC = st.fixed_dictionaries({}, optional=_SPEC_VALUES)
# a suite file: mostly a list of objects, sometimes with other items in
# the list, sometimes a top-level object or scalar
_SUITE = st.one_of(
    st.lists(_SPEC, max_size=2), st.lists(_SPEC, max_size=2),
    st.lists(_SPEC | st.integers(0, 5) | st.text(max_size=2) | _JUNK, max_size=2),
    _SPEC, st.integers(0, 5), _JUNK)
# a config file: mostly (two branches of three) an object with a term budget
# of 20,000, which keeps the complete (unbounded) characters a few flags can
# ask for to a few ms, else one with a bad budget; its other fields sometimes
# of the wrong JSON type (a bool for an int among them) or unknown; sometimes
# another JSON value
_CONFIG_VALUES = {
    "default_height_bound": st.integers(-1, 4) | st.sampled_from(("2",)) | _JUNK,
    "output_format": st.sampled_from(("text", "json", "xml")) | _JUNK,
    "stabilization_k_ceiling": st.integers(0, 16),
}
_CONFIG = st.one_of(
    *[st.fixed_dictionaries({"term_budget": budget}, optional=_CONFIG_VALUES) for budget in (
        st.just(20_000), st.just(20_000), st.sampled_from((0, 5, "20000", 2.0e4)) | _JUNK)],
    st.lists(st.integers(0, 5), max_size=2), st.integers(0, 5), _JUNK)


@st.composite
def _argv(draw):
    verb = draw(st.sampled_from(sorted(_VERBS)))
    flags = list(_VERBS[verb])
    if draw(st.integers(0, 9)) == 0:
        flags.append(draw(st.sampled_from(sorted(_VALUES) + ["--check-tq"])))
    argv = []
    for flag in flags:
        if draw(_MOSTLY if flag in _REQUIRED else st.booleans()):
            if flag == "--check-tq":
                argv.append(flag)
                continue
            good, bad = _VALUES[flag]
            pool = good if good and draw(_MOSTLY) else bad
            argv.append(f"{flag}={draw(st.sampled_from(pool))}")
    suite = draw(_SUITE) if verb == ("verify", "suite") else None
    return verb, argv, suite


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    # a small term budget keeps the complete (unbounded) characters a few
    # flags can ask for, such as a G2 kernel at k = t = 4, to a few ms
    path = tmp_path_factory.mktemp("fuzz")
    (path / "budget.json").write_text(json.dumps({"term_budget": 20_000}))
    return path


@settings(max_examples=400, deadline=None, derandomize=True)
@given(_argv(), _CONFIG)
def test_argv_fuzz_exits_with_a_documented_code(fuzz_dir, drawn, config):
    verb, flags, suite = drawn
    (fuzz_dir / "config.json").write_text(json.dumps(config))
    flags = [f.replace("=config.json", f"={fuzz_dir / 'config.json'}") for f in flags]
    argv = [*verb, "--config", str(fuzz_dir / "budget.json"), *flags]
    if suite is not None:
        (fuzz_dir / "suite.json").write_text(json.dumps(suite))
        argv.insert(2, str(fuzz_dir / "suite.json"))
    code, out, err = run(argv)
    assert code in (0, 1, 2, 3), (argv, suite, config)
    assert (err == "") == (code in (0, 1)), (argv, suite, config, err)
    # a usage error is told in the tool's own words, not Python's
    for python in ("__init__()", "invalid literal", "Invalid literal",
                   "not supported between instances", "is not iterable"):
        assert python not in err, (argv, suite, config, err)
    assert err.count("at position") <= 1, (argv, suite, config, err)
    # no input reaches a fault inside the engine
    assert "internal error" not in err, (argv, suite, config, err)


# -- the leaf table ----------------------------------------------------------
# dispatch reads an argv against its leaf's row of cli._LEAVES and falls back
# to the argparse tree; either way it must read, print and exit as the tree
# alone does.

def _parsed(parse, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            got = vars(parse(argv))
        except SystemExit as ex:
            got = ("exit", ex.code)
    return got, out.getvalue(), err.getvalue()


def _parse(argv):
    """The namespace of ``argv`` before dispatch checks it: ``cli._read``'s, or where
    it declines, the argparse tree's, with its help, usage errors and exit codes."""
    return cli._read(argv) or cli._parser().parse_args(argv)


def _same_parse(argv):
    assert _parsed(_parse, argv) == _parsed(cli._parser().parse_args, argv), argv


# Words that _argv never draws: an empty value, a value to --check-tq, a
# value of "--", abbreviated flags, -h, "--" and a stray word.
_ODD = ("--x=", "--k=", "--check-tq=1", "--x=--", "--ty=A2", "--no", "--hei=2", "-h", "--",
        "extra", "-1")


@st.composite
def _wide_argv(draw):
    """An argv of _argv in more word forms: a flag given again with another
    value, a value as the word after its flag (so a value word may start with
    "-", as in --node -1), an odd word anywhere, a flag without a value at the
    end."""
    verb, words, suite = draw(_argv())
    if words and draw(st.integers(0, 2)) == 0:
        flag = draw(st.sampled_from(words)).partition("=")[0]
        values = sum(_VALUES.get(flag, ((),)), ())
        words.append(f"{flag}={draw(st.sampled_from(values))}" if values else flag)
    argv = []
    for word in words:
        flag, eq, value = word.partition("=")
        argv += [flag, value] if eq and draw(st.booleans()) else [word]
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_ODD)))
    if draw(st.integers(0, 5)) == 0:
        argv.append(draw(st.sampled_from(sorted(_VALUES))))
    return verb, argv, suite


@settings(max_examples=600, deadline=None, derandomize=True)
@given(_wide_argv())
def test_the_leaf_parses_a_fuzzed_argv_as_the_tree_does(drawn):
    verb, flags, suite = drawn
    argv = [*verb, "--config", "budget.json", *flags]
    if suite is not None:
        argv.insert(2, "suite.json")
    _same_parse(argv)


@pytest.mark.parametrize("argv", [
    ["qchar", "kr", "--type", "A2", "--node", "1", "--bogus", "1"],
    ["verify", "tq", "--type", "A2", "--node", "1", "--height", "2", "extra"],
    ["qchar", "kr", "--type=A2", "--node=1", "--", "extra"],
    ["qchar", "kr", "--ty", "A2", "--no", "1"],
    ["verify", "tq", "--help"],
    ["qchar", "kr", "--type", "A2", "--node", "1", "-h", "--bogus"],
    ["verify", "--", "tq", "--type", "A2", "--node", "1", "--height", "2"],
    [],
    ["verify", "suite"],
    ["qchar", "kr", "--x", "-3/2", "--type", "A2", "--node", "1"],
    ["qchar", "kr", "--x=-3/2", "--type", "A2", "--node", "1"],
    ["translate"],
    ["translate", "--to", "multiplicative", "--check-tq", "--help"],
    ["verify", "suite", "a.json", "b.json"],
    ["verify", "suite", "--", "-a.json"],
    ["qchar"],
    ["--help", "qchar", "kr"],
    ["qchar", "--help"],
    ["qchar", "kr", "--help=x"],
    ["qchar", "kr", "--type", "A2", "--node", "1", "--node", "2", "--format=yaml"],
    ["qchar", "kr", "--type", "A2", "--node", " 3"],
    ["qchar", "kr", "--type", "A2", "--node", "3_0"],
    ["qchar", "kr", "--type", "A2", "--node", "-1"],
    ["qchar", "kr", "--type", "A2", "--node=1", "--x", ""],
    ["qchar", "kr", "--type", "A2", "--node=1", "--x=--"],
    ["qchar", "kr", "--type", "A2", "--node=1", "--x", "--"],
    ["qchar", "kr", "--type", "A2", "--node=1", "--x"],
    ["qchar", "kr", "--type", "A2", "--node=x"],
    ["qchar", "prefundamental", "--type", "A2", "--node=1", "--sign", "0"],
    ["qchar", "prefundamental", "--type", "A2", "--node=1", "--sign", "-"],
    ["qchar", "kr", "--type", "A2", "--node=1", "--x", "-"],
    ["translate", "--to", "multiplicative", "--check-tq=1"],
    ["translate", "--to", "multiplicative", "--check-tq", "yes"],
    ["translate", "--to=multiplicative", "--check-tq", "--check-tq"],
    ["verify", "suite", "a.json", "--format", "json"],
    ["verify", "suite", "suite_file=a.json"],
    ["verify", "suite", "suite_file", "a.json"],
])
def test_the_leaf_parses_an_edge_argv_as_the_tree_does(argv):
    _same_parse(argv)


def test_every_leaf_has_its_own_parser():
    # the tree holds one leaf parser per row of the table, in its order, with
    # the row's flags in order, its required flags and its very defaults
    from test_cli_flags import _leaves
    leaves = dict(_leaves(cli._parser()))
    assert list(leaves) == [" ".join(path) for path in cli._LEAVES] and len(leaves) == 18
    for path, (flags, args, required) in cli._LEAVES.items():
        p = leaves[" ".join(path)]
        actions = p._actions[1:]    # after -h
        assert [(a.option_strings or [a.dest])[0] for a in actions] == list(flags), path
        assert [a.dest for a in actions if a.required] == required, path
        assert all(p.get_default(name) is value for name, value in args.items()), path


# The values of the required flags, for a leaf's minimal argv.
REQUIRED = {"--type": "A2", "--node": "1", "--to": "multiplicative"}


def _minimal(path):
    """The shortest argv of the leaf ``path``: its required flags."""
    flags = cli._LEAVES[path][0]
    return [*path, *(w for f, kw in flags.items() if kw.get("required") for w in (f, REQUIRED[f]))]


def test_dispatch_prints_what_the_leaf_handler_returns():
    mono = PsiMonomial.gen(1, coord("1/2")) * PsiMonomial.gen(2, coord("x"), -1)
    assert cli._LEAVES["verify", "suite"][1]["run"] is None
    for path, (_, args, _) in cli._LEAVES.items():
        if path == ("verify", "suite"):
            continue
        assert callable(handler := args["run"]), path
        args["run"] = lambda args, eng, N: mono
        try:
            assert run(_minimal(path)) == (0, "Psi[1,1/2] Psi[2,x]^-1\n", ""), path
        finally:
            args["run"] = handler


def _well_formed(path, suite):
    """A shortest argv of the leaf ``path`` that runs: its required flags, with
    --check-tq to translate and the file ``suite`` to verify suite."""
    return _minimal(path) + {("translate",): ["--check-tq"], ("verify", "suite"): [suite]}.get(
        path, [])


# Each buffer and redirect is logged; a redirect fails while armed.
_GUARD = """
import contextlib, io, json, sys
import yqchar.cli as cli
StringIO, made, armed = io.StringIO, [], [True]
class Buffer(StringIO):
    def __init__(self):
        made.append("StringIO")
        super().__init__()
def guard(redirect):
    def guarded(stream):
        made.append(redirect.__name__)
        if armed[0]:
            raise AssertionError(f"{redirect.__name__} around a command that the table reads")
        return redirect(stream)
    return guarded
io.StringIO = Buffer
contextlib.redirect_stdout = guard(contextlib.redirect_stdout)
contextlib.redirect_stderr = guard(contextlib.redirect_stderr)
codes = [cli.dispatch(argv, StringIO(), StringIO()) for argv in json.loads(sys.argv[1])]
built = cli._parser.cache_info().misses, "argparse" in sys.modules, made[:]
armed[0] = False
err = StringIO()
code = cli.dispatch(["qchar", "kr", "--type", "A2"], StringIO(), err)
print(json.dumps([codes, built, code, cli._parser.cache_info().misses, made, err.getvalue()]))
"""


def test_a_well_formed_command_builds_no_argparse_tree():
    # in a fresh interpreter: one command of each leaf with a handler, then a usage error
    argvs = [_well_formed(path, None) for path, (_, args, _) in cli._LEAVES.items() if args["run"]]
    src = str(Path(cli.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", _GUARD, json.dumps(argvs)], check=True,
                          env=os.environ | {"PYTHONPATH": path}, capture_output=True, text=True,
                          timeout=120)
    codes, built, code, misses, made, err = json.loads(done.stdout)
    assert len(argvs) == 17 and codes == [0] * 17, (argvs, codes)
    assert built == [0, False, []]      # no tree, buffer or redirect; argparse not even imported
    # a usage error builds the tree, once, and passes on argparse's text from two buffers
    assert (code, misses) == (2, 1)
    assert sorted(made) == ["StringIO", "StringIO", "redirect_stderr", "redirect_stdout"]
    assert err.startswith("usage: yqchar qchar kr [-h] --type TYPE --node NODE")
    assert err.endswith("error: the following arguments are required: --node\n")


# Each value flag of each leaf, which --f=-- leaves without a value.
_VALUE_FLAGS = [(path, f) for path, (flags, _, _) in cli._LEAVES.items()
                for f, kw in flags.items() if f[:2] == "--" and "action" not in kw]


@pytest.mark.parametrize("path, flag", _VALUE_FLAGS,
                         ids=[" ".join((*path, flag)) for path, flag in _VALUE_FLAGS])
def test_a_value_flag_given_as_dash_dash_is_a_usage_error_that_names_it(tmp_path, path, flag):
    # argparse stores [] for --f=--, skipping the flag's type and choices: it
    # is refused before the config is loaded or any handler reads it
    (suite := tmp_path / "suite.json").write_text(json.dumps([]))
    code, out, err = run(_well_formed(path, str(suite)) + [f"{flag}=--"])
    assert (code, out, err) == (2, "", f"error: argument {flag}: expected one argument\n")
    assert len(_VALUE_FLAGS) == 117


# -- config ------------------------------------------------------------------

def test_version_has_one_source():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
    assert "version" not in meta["project"] and "version" in meta["project"]["dynamic"]
    assert meta["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "yqchar.__version__"}


@pytest.mark.parametrize("config", (["--config="], ["--config", ""]))
def test_an_empty_config_path_is_a_file_that_cannot_be_read(config):
    code, out, err = run(["qchar", "kr", "--type", "A2", "--node", "1", *config])
    assert (code, out, err) == (2, "", "error: [Errno 2] No such file or directory: ''\n")


def test_cli_config_validation():
    with pytest.raises(ValueError):
        cli.CliConfig(default_height_bound=0)
    with pytest.raises(ValueError):
        cli.CliConfig(output_format="yaml")
    assert cli.CliConfig().engine().term_budget == 1_000_000
