"""Command-line front end: characters, identity suites, matrix checks.

Exit codes: 0 all requested checks pass / output produced; 1 verification
failure; 2 usage error; 3 term budget exceeded or an internal fault.
"""
from __future__ import annotations

import contextlib
import functools
import io
import json
import os
import sys
from types import SimpleNamespace

from .cartan import LieType, _frozen, build_cartan
from .coords import coord, narrow
from .characters import (
    EngineConfig, EngineError, Report, _admit_kr, asymptotic_char, demazure_char_via_ses,
    fm_expand, kr_top_y, m_weight, n_weight, prefundamental_char,
)
from .identities import (
    KINDS, IdentitySpec, json_object, run_identity, to_multiplicative, verify_multiplicative_tq,
)
from .sl2_explicit import build_module, check_relations, extract_qchar, verify_sl2_three_term
from .textio import format_monomial, parse_monomial

__all__ = ["main", "dispatch", "CliConfig"]
_FORMATS = ("text", "json")     # --format's choices, and a config file's output_format's
# The one encoder of every JSON document: to_json builds a fresh tree, so no cycle is looked for.
_JSON = json.JSONEncoder(sort_keys=True, check_circular=False)


@_frozen
class CliConfig:
    default_height_bound: int = IdentitySpec.N
    term_budget: int = EngineConfig.term_budget
    output_format: str = "text"

    def __post_init__(self):
        for name in ("default_height_bound", "term_budget"):
            if type(value := getattr(self, name)) is not int or value < 1:
                raise ValueError(f"config field {name} must be an integer of at least 1, "
                                 f"got {value!r}")
        if self.output_format not in _FORMATS:
            raise ValueError("output_format must be 'text' or 'json'")

    def engine(self) -> EngineConfig:
        return EngineConfig(self.term_budget)


_CONFIG_TYPES = {"default_height_bound": (int, "an integer"),   # each field's JSON type in a file
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
                         _CONFIG_TYPES) if path is not None else {}
    if fmt and fields.get("output_format", fmt) in _FORMATS:  # else the file's is refused
        fields = fields | {"output_format": fmt}
    return CliConfig(**fields)


# The flags that several verbs share, as add_argument keywords; N is --height, as in IdentitySpec.
_PLAIN, _HEIGHT = dict(default="0"), dict(type=int, default=None)
_SHARED = {"type": dict(required=True, help="Lie type, e.g. A2, G2"),
           "node": dict(type=int, required=True),
           "k": dict(default="1", help="integer or symbolic coordinate"),
           "t": dict(type=int, default=0),
           "x": dict(default="0", help="spectral coordinate, e.g. -3/2, k, 1/2+k"),
           "y": _PLAIN, "a": _PLAIN, "b": _PLAIN,
           "N": dict(_HEIGHT, help="truncation height (default from config)")}
_FORMAT_CONFIG = {"--format": dict(choices=_FORMATS, default=None),
                  "--config": dict(default=None, help="JSON CliConfig file")}
# The one table of the CLI: each leaf subcommand's path, e.g. ("verify", "tq"),
# to its flags (argparse name to add_argument keywords), its namespace before
# any flag is read and the fields of its required flags.  _read reads an argv
# against it, _parser builds the argparse tree from it and _HELP, and dispatch
# checks the tree's namespace against it.
_LEAVES, _HELP = {}, {("qchar",): "compute a character", ("verify",): "verify an identity",
                      ("rep-check",): "explicit rank-one matrix checks"}


def _leaf(path, run=None, names="", table=_SHARED, help=None, then=None, **own):
    """Add the leaf ``path`` to _LEAVES.  Its flags are those of ``table``
    named in ``names`` (N is --height), each replaced by ``own`` where it names
    one, then the rest of ``own``, then --format, --config and ``then``.  Its
    namespace holds ``run``, the handler that dispatch calls as run(args,
    engine config, N) for the object to print, a height and, as argparse's
    does, the command and what of its path."""
    flags = {("--height" if f == "N" else f"--{f}"): kw
             for f, kw in ({f: table[f] for f in names.split()} | own).items()}
    flags |= _FORMAT_CONFIG | (then or {})
    args = {f.lstrip("-").replace("-", "_"): kw.get("default") for f, kw in flags.items()}
    required = [a for a, (f, kw) in zip(args, flags.items()) if kw.get("required", f[0] != "-")]
    args |= dict(run=run, height=None) | dict(zip(("command", "what"), path))
    _LEAVES[path], _HELP[path] = (flags, args, required), help


# A handler looks up engine names in this module when it runs, so a rebound
# name is the one called; it reads --type before any coordinate, k or y before x.
_cartan = lambda a: build_cartan(LieType.parse(a.type))
_int_k = lambda a: narrow(a.k, "k", integer=True)
_COMPLETE = dict(_HEIGHT, help="truncation height (default: the complete character)")
_leaf(("qchar", "kr"), lambda a, eng, N: fm_expand(c := _cartan(a), _admit_kr(
    kr_top_y(c, a.node, _int_k(a), coord(a.x), eng), a.height, eng), a.height, eng),
    "type node k x N", N=_COMPLETE)
_leaf(("qchar", "demazure"), lambda a, eng, N: demazure_char_via_ses(
    _cartan(a), a.node, a.t, _int_k(a), coord(a.x), a.height, eng),
    "type node k t x N", N=_COMPLETE)
_leaf(("qchar", "asymptotic"), lambda a, eng, N: asymptotic_char(
    _cartan(a), a.node, coord(a.y), coord(a.x), N, eng), "type node x y N")
_leaf(("qchar", "prefundamental"), lambda a, eng, N: prefundamental_char(
    _cartan(a), a.node, coord(a.x), a.sign, N, eng),
    "type node x N", sign=dict(choices=("+", "-"), default="-"))
_leaf(("qchar", "m"), lambda a, eng, N: m_weight(_cartan(a), a.node, coord(a.k), coord(a.x)),
      "type node k x")
_leaf(("qchar", "n"), lambda a, eng, N: n_weight(_cartan(a), a.node, coord(a.k), coord(a.x)),
      "type node k x")
# a missing --k is left to IdentitySpec: 1, or the least k of the TQ regime
_LAZY_K = _SHARED | {"k": dict(_SHARED["k"], default=None)}
for _kind, _fields in KINDS.items():
    _leaf(("verify", _kind.replace("_", "-")), lambda a, eng, N, kind=_kind: run_identity(
        IdentitySpec(kind, a.type, a.node, N=N,
                     **{f: getattr(a, f) for f in KINDS[kind] if f != "N"}), eng),
        " ".join(("type", "node", *_fields)), _LAZY_K)
_leaf(("verify", "suite"), help="run a JSON list of identity specs", then={"suite_file": {}})
_RATIONAL, _SIZE = dict(_PLAIN, help="rational, e.g. -3/2"), dict(type=int, default=8)
# --k, then --x, then the module's own checks
_module = lambda a, eng: (a.kind, narrow(a.k, "--k"), narrow(a.x, "--x"), a.modes,
                          a.M if a.kind == "truncated" else None, eng)
for _name, _run in (
        ("relations", lambda a, eng, N: check_relations(build_module(*_module(a, eng)), eng)),
        ("qchar", lambda a, eng, N: extract_qchar(*_module(a, eng)))):
    _leaf(("rep-check", _name), _run, kind=dict(choices=("finite", "truncated"), default="finite"),
          k=dict(default="1", help="rational, e.g. -3/2; an integer >= 0 for --kind finite"),
          x=_RATIONAL, M=dict(_SIZE, help="basis size of a truncated module"),
          modes=dict(type=int, default=3, help="mode bound n_max"))
_leaf(("rep-check", "three-term"), lambda a, eng, N: verify_sl2_three_term(
    narrow(a.x, "--x"), narrow(a.y, "--y"), a.M, N, eng),
    x=_RATIONAL, y=_RATIONAL, M=dict(_SIZE, help="basis size of its three truncated towers"),
    N=_SHARED["N"])


def _relabel(a, eng, N):
    if a.check_tq:
        return verify_multiplicative_tq(_cartan(a), a.node, *map(coord, "xyk"))
    if not a.monomial:
        raise ValueError("translate needs --monomial or --check-tq")
    return to_multiplicative(parse_monomial(a.monomial, _cartan(a), kind="Psi"))


_leaf(("translate",), _relabel, help="additive to multiplicative relabeling",
      to=dict(choices=("multiplicative",), required=True),
      monomial=dict(default=None, help="Psi monomial string"),
      type=dict(default="A2"), node=dict(type=int, default=1),
      then={"--check-tq": dict(action="store_true", default=False,
                               help="compare the translated three-term instance with the "
                                    "independently built multiplicative display")})


@functools.cache
def _parser():
    # The argparse tree of _LEAVES, for help and the usage error of an argv that _read
    # declines.  Built on first use, not at import, and reused: it keeps no state between calls.
    import argparse
    top = argparse.ArgumentParser(prog="yqchar", description=__doc__)
    groups = {(): top.add_subparsers(dest="command", required=True)}
    for path, (flags, args, _) in _LEAVES.items():
        if path[:-1] not in groups:
            groups[path[:-1]] = groups[()].add_parser(
                path[0], help=_HELP[path[:-1]]).add_subparsers(dest="what", required=True)
        p = groups[path[:-1]].add_parser(path[-1], help=_HELP[path])
        for f, kw in flags.items():
            p.add_argument(f, **kw)
        p.set_defaults(**args)
    return top


def _emit(obj, cfg: CliConfig, out) -> int:
    """Print ``obj``, a character, a report or a monomial, in the configured
    format; exit 1 for a failing report, else 0."""
    if cfg.output_format == "json":
        payload = obj.to_json() if hasattr(obj, "to_json") else {"monomial": format_monomial(obj)}
        text = _JSON.encode({"schema": "yqchar/1", "result": payload})
    else:
        text = obj.to_text() if hasattr(obj, "to_text") else format_monomial(obj)
    print(text, file=out, flush=True)
    return 1 if isinstance(obj, Report) and not obj.verdict else 0


def _read(argv):
    """The namespace of ``argv`` when each word after its leaf's path is a flag
    of the leaf as spelled, with its value as --f=v or as --f v where v does
    not start with "-", and no required flag is missing; else None."""
    path = tuple(argv[:2]) if tuple(argv[:2]) in _LEAVES else tuple(argv[:1])
    if path not in _LEAVES:
        return None
    flags, args, required = _LEAVES[path]
    args, words = args.copy(), iter(argv[len(path):])
    for word in words:
        f, eq, value = word.partition("=")
        if f[:2] != "--" or (kw := flags.get(f)) is None or eq and "action" in kw:
            return None
        if "action" in kw:  # --check-tq, which takes no value
            value = True
        elif value == "--" or not eq and (value := next(words, "--")) != "-" and value[:1] == "-":
            return None     # argparse reads --f=-- as no value and -v apart as a flag
        else:
            try:
                if (value := kw.get("type", str)(value)) not in kw.get("choices", (value,)):
                    return None
            except ValueError:
                return None
        args[f.lstrip("-").replace("-", "_")] = value
    return None if None in map(args.get, required) else SimpleNamespace(**args)


def dispatch(argv, out=sys.stdout, err=sys.stderr) -> int:
    try:
        if (args := _read(argv)) is None:
            # Only argparse writes to buffers, passed on here: it drops a failed write of its own.
            said = io.StringIO(), io.StringIO()
            try:
                with contextlib.redirect_stdout(said[0]), contextlib.redirect_stderr(said[1]):
                    args = _parser().parse_args(argv)
            except SystemExit as ex:
                for text, stream in zip(said, (out, err)):
                    print(text.getvalue(), end="", file=stream, flush=True)
                return 0 if ex.code == 0 else 2
            # argparse stores [] for --f=--, skipping the flag's type and choices: a field
            # that they cannot give is refused before any handler reads it.
            flags, fields, _ = _LEAVES[tuple(filter(None, (args.command, vars(args).get("what"))))]
            for name, (f, kw) in zip(fields, flags.items()):
                if not ((v := getattr(args, name)) is None or "action" in kw
                        or type(v) is kw.get("type", str) and v in kw.get("choices", (v,))):
                    raise ValueError(f"argument {f}: expected one argument")
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
            doc = {"results": [r.to_json() for r in reports], "verdict": "pass" if ok else "fail"}
            print(_JSON.encode({"schema": "yqchar/1"} | doc), file=out, flush=True)
        else:
            for s, r in zip(specs, reports):
                k = f" k={s.k}" if "k" in KINDS[s.kind] else ""
                print(f"--- {s.kind} {s.lie_type} i={s.i}{k}", file=out)
                _emit(r, cfg, out)
        return 0 if ok else 1
    # The exit code of each failure: a bad input 2, an engine limit or fault 3.
    except EngineError as ex:
        print(f"engine error: {ex}", file=err)
        return 3
    except Exception as ex:     # a closed output pipe is a fault, not a bad input
        bad = isinstance(ex, (ValueError, OSError)) and not isinstance(ex, BrokenPipeError)
        print(f"error: {ex}" if bad else f"internal error: {type(ex).__name__}: {ex}", file=err)
        return 2 if bad else 3


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
