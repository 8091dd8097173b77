"""Command-line front end: characters, identity suites, matrix checks.

Exit codes: 0 all requested checks pass / output produced; 1 verification
failure; 2 usage error; 3 term budget exceeded or an internal fault.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json
import os
import sys

from .cartan import LieType, _frozen, build_cartan
from .coords import coord, narrow
from .characters import (
    EngineConfig, EngineError, Report, asymptotic_char, demazure_char_via_ses,
    fm_expand, kr_top_y, m_weight, n_weight, prefundamental_char,
)
from .identities import (
    KINDS, IdentitySpec, json_object, run_identity, to_multiplicative, verify_multiplicative_tq,
)
from .sl2_explicit import build_module, check_relations, extract_qchar, verify_sl2_three_term
from .textio import format_monomial, parse_monomial

__all__ = ["main", "dispatch", "CliConfig"]
_FORMATS = ("text", "json")     # --format's choices, and a config file's output_format's


@_frozen
class CliConfig:
    default_height_bound: int = IdentitySpec.N
    term_budget: int = EngineConfig.term_budget
    output_format: str = "text"

    def __post_init__(self):
        for name in ("default_height_bound", "term_budget"):
            if (value := getattr(self, name)) < 1:
                raise ValueError(f"config field {name} must be at least 1, got {value}")
        if self.output_format not in _FORMATS:
            raise ValueError("output_format must be 'text' or 'json'")

    def engine(self) -> EngineConfig:
        return EngineConfig(self.term_budget)


# The JSON type of each CliConfig field in a config file.
_CONFIG_TYPES = {"default_height_bound": (int, "an integer"),
                 "term_budget": (int, "an integer"), "output_format": (str, "a string")}


def _read_json(path: str, what: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as ex:
            raise ValueError(f"{what} {path} is not JSON: {ex}") from None
        except RecursionError:
            raise ValueError(f"{what} {path} is nested too deeply") from None


def _load_config(path: str | None, fmt: str | None) -> CliConfig:
    fields = json_object(_read_json(path, "config file"), "a config file", "config",
                         _CONFIG_TYPES) if path else {}
    if fmt and fields.get("output_format", fmt) in _FORMATS:  # else the file's is refused
        fields = fields | {"output_format": fmt}
    return CliConfig(**fields)


@functools.cache
def _parser() -> tuple[argparse.ArgumentParser, dict]:
    # The tree, and a table from each leaf's path, e.g. ("verify", "tq"), to
    # the leaf's parser.  Built on first use and reused: a parser keeps no
    # state between calls, and building the tree costs more than most commands.
    top, leaves = argparse.ArgumentParser(prog="yqchar", description=__doc__), {}
    sub = top.add_subparsers(dest="command", required=True)
    plain, height = dict(default="0"), dict(type=int, default=None)
    # The flags that several verbs share; N is --height, as in IdentitySpec.
    shared = {"type": dict(required=True, help="Lie type, e.g. A2, G2"),
              "node": dict(type=int, required=True),
              "k": dict(default="1", help="integer or symbolic coordinate"),
              "t": dict(type=int, default=0),
              "x": dict(default="0", help="spectral coordinate, e.g. -3/2, k, 1/2+k"),
              "y": plain, "a": plain, "b": plain,
              "N": dict(height, help="truncation height (default from config)")}

    def leaf(group, name, run=None, names="", table=shared, help=None, **own):
        """Add subcommand ``name`` to ``group`` and return it.  Its flags are
        those of ``table`` named in ``names`` (N is --height), each replaced
        by ``own`` where it names one, then the rest of ``own``, then
        --format and --config.  Its namespace holds ``run``, the handler that
        dispatch calls as run(args, engine config, N) for the object to print,
        a height and, as the tree's does, the command and what of its path
        (its prog after yqchar)."""
        p, names = group.add_parser(name, help=help), names.split()
        for f, kw in ({f: table[f] for f in names} | own).items():
            p.add_argument("--height" if f == "N" else f"--{f}", **kw)
        p.add_argument("--format", choices=_FORMATS, default=None)
        p.add_argument("--config", default=None, help="JSON CliConfig file")
        leaves[path := tuple(p.prog.split()[1:])] = p
        p.set_defaults(run=run, height=None, **dict(zip(("command", "what"), path)))
        return p

    # A handler looks up engine names in this module when it runs, so a rebound
    # name is the one called; it reads --type before any coordinate, k or y before x.
    cartan = lambda a: build_cartan(LieType.parse(a.type))
    int_k = lambda a: narrow(a.k, "k", integer=True)
    q = sub.add_parser("qchar", help="compute a character").add_subparsers(
        dest="what", required=True)
    complete = dict(height, help="truncation height (default: the complete character)")
    leaf(q, "kr", lambda a, eng, N: fm_expand(
        c := cartan(a), kr_top_y(c, a.node, int_k(a), coord(a.x), eng), a.height, eng),
        "type node k x N", N=complete)
    leaf(q, "demazure", lambda a, eng, N: demazure_char_via_ses(
        cartan(a), a.node, a.t, int_k(a), coord(a.x), a.height, eng),
        "type node k t x N", N=complete)
    leaf(q, "asymptotic", lambda a, eng, N: asymptotic_char(
        cartan(a), a.node, coord(a.y), coord(a.x), N, eng), "type node x y N")
    leaf(q, "prefundamental", lambda a, eng, N: prefundamental_char(
        cartan(a), a.node, coord(a.x), a.sign, N, eng),
        "type node x N", sign=dict(choices=("+", "-"), default="-"))
    leaf(q, "m", lambda a, eng, N: m_weight(cartan(a), a.node, coord(a.k), coord(a.x)),
         "type node k x")
    leaf(q, "n", lambda a, eng, N: n_weight(cartan(a), a.node, coord(a.k), coord(a.x)),
         "type node k x")

    v = sub.add_parser("verify", help="verify an identity").add_subparsers(
        dest="what", required=True)
    # a missing --k is left to IdentitySpec: 1, or the least k of the TQ regime
    lazy_k = shared | {"k": dict(shared["k"], default=None)}
    for kind, fields in KINDS.items():
        leaf(v, kind.replace("_", "-"), lambda a, eng, N, kind=kind: run_identity(IdentitySpec(
            kind, a.type, a.node, N=N, **{f: getattr(a, f) for f in KINDS[kind] if f != "N"}),
            eng), " ".join(("type", "node", *fields)), lazy_k)
    leaf(v, "suite", help="run a JSON list of identity specs").add_argument("suite_file")

    r = sub.add_parser("rep-check", help="explicit rank-one matrix checks").add_subparsers(
        dest="what", required=True)
    rational = dict(plain, help="rational, e.g. -3/2")
    size = dict(type=int, default=8)
    # --k, then --x, then the module's own checks
    module = lambda a, eng: (a.kind, narrow(a.k, "--k"), narrow(a.x, "--x"), a.modes,
                             a.M if a.kind == "truncated" else None, eng)
    for name, run in (("relations", lambda a, eng, N: check_relations(build_module(*module(a, eng)), eng)),
                      ("qchar", lambda a, eng, N: extract_qchar(*module(a, eng)))):
        leaf(r, name, run, kind=dict(choices=("finite", "truncated"), default="finite"),
             k=dict(default="1", help="rational, e.g. -3/2; an integer >= 0 for --kind finite"),
             x=rational, M=dict(size, help="basis size of a truncated module"),
             modes=dict(type=int, default=3, help="mode bound n_max"))
    leaf(r, "three-term", lambda a, eng, N: verify_sl2_three_term(
        narrow(a.x, "--x"), narrow(a.y, "--y"), a.M, N, eng),
        x=rational, y=rational, M=dict(size, help="basis size of its three truncated towers"),
        N=shared["N"])

    def relabel(a, eng, N):
        if a.check_tq:
            return verify_multiplicative_tq(cartan(a), a.node, *map(coord, "xyk"))
        if not a.monomial:
            raise ValueError("translate needs --monomial or --check-tq")
        return to_multiplicative(parse_monomial(a.monomial, cartan(a), kind="Psi"))
    leaf(sub, "translate", relabel, help="additive to multiplicative relabeling",
         to=dict(choices=("multiplicative",), required=True),
         monomial=dict(default=None, help="Psi monomial string"),
         type=dict(default="A2"), node=dict(type=int, default=1)).add_argument(
        "--check-tq", action="store_true",
        help="compare the translated three-term instance with the "
             "independently built multiplicative display")
    return top, leaves


def _emit(obj, cfg: CliConfig, out) -> int:
    """Print ``obj``, a character, a report or a monomial, in the configured
    format; exit 1 for a failing report, else 0."""
    if cfg.output_format == "json":
        payload = obj.to_json() if hasattr(obj, "to_json") else {"monomial": format_monomial(obj)}
        text = json.dumps({"schema": "yqchar/1", "result": payload}, sort_keys=True)
    else:
        text = obj.to_text() if hasattr(obj, "to_text") else format_monomial(obj)
    print(text, file=out, flush=True)
    return 1 if isinstance(obj, Report) and not obj.verdict else 0


def _parse(argv) -> argparse.Namespace:
    """Parse with the leaf's own parser; with the tree if no leaf parses argv whole."""
    tree, leaves = _parser()
    path = tuple(argv[:2]) if tuple(argv[:2]) in leaves else tuple(argv[:1])
    if path in leaves:
        args, extras = leaves[path].parse_known_args(argv[len(path):])
        if not extras:
            return args
    return tree.parse_args(argv)


def dispatch(argv, out=sys.stdout, err=sys.stderr) -> int:
    # argparse drops a failed write of its own, so it writes to buffers, passed on here
    said = io.StringIO(), io.StringIO()
    try:
        try:
            with contextlib.redirect_stdout(said[0]), contextlib.redirect_stderr(said[1]):
                args = _parse(argv)
        except SystemExit as ex:
            for text, stream in zip(said, (out, err)):
                print(text.getvalue(), end="", file=stream, flush=True)
            return 0 if ex.code == 0 else 2
        cfg = _load_config(args.config, args.format)
        eng = cfg.engine()
        N = cfg.default_height_bound if args.height is None else args.height
        if args.run:  # every leaf but verify suite, which prints its own document
            return _emit(args.run(args, eng, N), cfg, out)
        if not isinstance(entries := _read_json(args.suite_file, "suite file"), list):
            raise ValueError("a suite file must hold a JSON list of identity specs")
        specs = [IdentitySpec.from_json(o, N=cfg.default_height_bound) for o in entries]
        reports = [run_identity(s, eng) for s in specs]
        ok = all(r.verdict for r in reports)
        if cfg.output_format == "json":
            print(json.dumps({"schema": "yqchar/1", "results": [r.to_json() for r in reports],
                              "verdict": "pass" if ok else "fail"}, sort_keys=True),
                  file=out, flush=True)
        else:
            for s, r in zip(specs, reports):
                k = f" k={s.k}" if "k" in KINDS[s.kind] else ""
                print(f"--- {s.kind} {s.lie_type} i={s.i}{k}", file=out)
                _emit(r, cfg, out)
        return 0 if ok else 1
    # The exit code of each failure: a bad input 2, an engine limit or fault 3.
    except BrokenPipeError as ex:   # a closed output pipe: a fault, not a usage error
        print(f"internal error: {type(ex).__name__}: {ex}", file=err)
        return 3
    except EngineError as ex:
        print(f"engine error: {ex}", file=err)
        return 3
    except (ValueError, OSError) as ex:
        print(f"error: {ex}", file=err)
        return 2
    except Exception as ex:
        print(f"internal error: {type(ex).__name__}: {ex}", file=err)
        return 3


def main() -> None:
    try:
        code = dispatch(sys.argv[1:])
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:   # a closed pipe: exit 3 at once, not 1 (a traceback) or 120 (exit's flush)
        os._exit(3)
    sys.exit(code)


if __name__ == "__main__":
    main()
