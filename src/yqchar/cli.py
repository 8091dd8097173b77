"""Command-line front end: characters, identity suites, matrix checks.

Exit codes: 0 all requested checks pass / output produced; 1 verification
failure; 2 usage error; 3 term budget exceeded or internal engine fault.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
from dataclasses import dataclass, replace

from .cartan import LieType, build_cartan
from .coords import coord, narrow
from .characters import (
    EngineConfig, EngineError, Report, asymptotic_char, demazure_char_via_ses,
    fm_expand, kr_top_y, m_weight, n_weight, prefundamental_char,
)
from .identities import (
    IdentitySpec, json_object, run_identity, to_multiplicative, verify_multiplicative_tq,
)
from .monomials import PsiMonomial
from .sl2_explicit import build_module, check_relations, extract_qchar, verify_sl2_three_term
from .textio import format_monomial, parse_monomial

__all__ = ["main", "dispatch", "CliConfig"]


@dataclass(frozen=True)
class CliConfig:
    default_height_bound: int = 3
    term_budget: int = 1_000_000
    output_format: str = "text"

    def __post_init__(self):
        if self.default_height_bound < 1 or self.term_budget < 1:
            raise ValueError("config bounds must be positive")
        if self.output_format not in ("text", "json"):
            raise ValueError("output_format must be 'text' or 'json'")

    def engine(self) -> EngineConfig:
        return EngineConfig(self.term_budget)


# The JSON type of each CliConfig field in a config file.
_CONFIG_TYPES = {"default_height_bound": (int, "an integer"),
                 "term_budget": (int, "an integer"), "output_format": (str, "a string")}


def _load_config(path: str | None, fmt: str | None) -> CliConfig:
    fields = {}
    if path:
        with open(path) as fh:
            fields = json_object(json.load(fh), "a config file", "config", _CONFIG_TYPES)
    cfg = CliConfig(**fields)
    return replace(cfg, output_format=fmt) if fmt else cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use and reused: parse_args keeps no state between calls,
    # and building the tree of subparsers costs more than most commands.
    top = argparse.ArgumentParser(prog="yqchar", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)
    config_height = "truncation height (default from config)"
    complete = "truncation height (default: the complete character)"

    def common(p, *, node=True, k=False, t=False, x=True, y=False, height=config_height):
        p.add_argument("--type", required=True, help="Lie type, e.g. A2, G2")
        if node:
            p.add_argument("--node", type=int, required=True)
        if k:
            p.add_argument("--k", default="1", help="integer or symbolic coordinate")
        if t:
            p.add_argument("--t", type=int, default=0)
        if x:
            p.add_argument("--x", default="0", help="spectral coordinate, e.g. -3/2, k, 1/2+k")
        if y:
            p.add_argument("--y", default="0")
        if height:
            p.add_argument("--height", type=int, default=None, help=height)
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--config", default=None, help="JSON CliConfig file")

    q = sub.add_parser("qchar", help="compute a character").add_subparsers(
        dest="what", required=True)
    common(q.add_parser("kr"), k=True, height=complete)
    common(q.add_parser("demazure"), k=True, t=True, height=complete)
    common(q.add_parser("asymptotic"), y=True)
    p = q.add_parser("prefundamental")
    common(p)
    p.add_argument("--sign", choices=("+", "-"), default="-")
    common(q.add_parser("m"), k=True, height=False)
    common(q.add_parser("n"), k=True, height=False)

    v = sub.add_parser("verify", help="verify an identity").add_subparsers(
        dest="what", required=True)
    common(v.add_parser("tsystem"), k=True, t=True, x=False, height=False)
    p = v.add_parser("tq")
    common(p, k=True)
    p.set_defaults(k=None)      # the least k of the TQ regime (identities.tq_regime)
    p = v.add_parser("two-term")
    common(p, y=True)
    p.add_argument("--a", default="0")
    p.add_argument("--b", default="0")
    common(v.add_parser("factorization"), k=True, height=False)
    common(v.add_parser("kr-skeleton"), k=True, height=False)
    common(v.add_parser("demazure-support"), k=True)
    common(v.add_parser("m-support"), k=True)
    p = v.add_parser("suite", help="run a JSON list of identity specs")
    p.add_argument("suite_file")
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--config", default=None)

    r = sub.add_parser("rep-check", help="explicit rank-one matrix checks").add_subparsers(
        dest="what", required=True)
    for name in ("relations", "qchar"):
        p = r.add_parser(name)
        p.add_argument("--kind", choices=("finite", "truncated"), default="finite")
        p.add_argument("--k", default="1")
        p.add_argument("--x", default="0")
        p.add_argument("--M", type=int, default=8)
        p.add_argument("--modes", type=int, default=3)
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--config", default=None)
    p = r.add_parser("three-term")
    p.add_argument("--x", default="0")
    p.add_argument("--y", default="0")
    p.add_argument("--M", type=int, default=8)
    p.add_argument("--height", type=int, default=None, help=config_height)
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--config", default=None)

    p = sub.add_parser("translate", help="additive to multiplicative relabeling")
    p.add_argument("--to", choices=("multiplicative",), required=True)
    p.add_argument("--monomial", default=None, help="Psi monomial string")
    p.add_argument("--check-tq", action="store_true",
                   help="compare the translated three-term instance with the "
                        "independently built multiplicative display")
    p.add_argument("--type", default="A2")
    p.add_argument("--node", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default=None)
    p.add_argument("--config", default=None)
    return top


def _emit(obj, cfg: CliConfig, out) -> int:
    """Print ``obj`` in the configured format; exit 1 for a failing report, else 0."""
    if cfg.output_format == "json":
        payload = obj.to_json() if hasattr(obj, "to_json") else obj
        print(json.dumps({"schema": "yqchar/1", "result": payload},
                         sort_keys=True), file=out)
    else:
        print(obj.to_text() if hasattr(obj, "to_text") else obj, file=out)
    return 1 if isinstance(obj, Report) and not obj.verdict else 0


def dispatch(argv, out=sys.stdout, err=sys.stderr) -> int:
    parser = _parser()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as ex:
        return 0 if ex.code == 0 else 2
    try:
        cfg = _load_config(getattr(args, "config", None), getattr(args, "format", None))
        eng = cfg.engine()
        height = getattr(args, "height", None)
        N = height if height is not None else cfg.default_height_bound
        if args.command == "qchar":
            cartan = build_cartan(LieType.parse(args.type))
            i = args.node
            if args.what == "kr":
                top = kr_top_y(cartan, i, narrow(args.k, "k", integer=True), coord(args.x), eng)
                ch = fm_expand(cartan, top, height, eng)
            elif args.what == "demazure":
                ch = demazure_char_via_ses(cartan, i, args.t, narrow(args.k, "k", integer=True),
                                           coord(args.x), height, eng)
            elif args.what == "asymptotic":
                ch = asymptotic_char(cartan, i, coord(args.y), coord(args.x), N, eng)
            elif args.what == "prefundamental":
                ch = prefundamental_char(cartan, i, coord(args.x), args.sign, N, eng)
            elif args.what == "m":
                ch = m_weight(cartan, i, coord(args.k), coord(args.x))
            else:
                ch = n_weight(cartan, i, coord(args.k), coord(args.x))
            if isinstance(ch, PsiMonomial):
                ch = {"monomial": format_monomial(ch)} if cfg.output_format == "json" \
                    else format_monomial(ch)
            return _emit(ch, cfg, out)
        if args.command == "verify":
            if args.what == "suite":
                with open(args.suite_file) as fh:
                    if not isinstance(entries := json.load(fh), list):
                        raise ValueError("a suite file must hold a JSON list of identity specs")
                specs = [IdentitySpec.from_json(o) for o in entries]
                reports = [run_identity(s, eng) for s in specs]
                ok = all(r.verdict for r in reports)
                if cfg.output_format == "json":
                    print(json.dumps({"schema": "yqchar/1",
                                      "results": [r.to_json() for r in reports],
                                      "verdict": "pass" if ok else "fail"},
                                     sort_keys=True), file=out)
                else:
                    for s, r in zip(specs, reports):
                        print(f"--- {s.kind} {s.lie_type} i={s.i} k={s.k}", file=out)
                        _emit(r, cfg, out)
                return 0 if ok else 1
            spec = IdentitySpec(
                kind=args.what.replace("-", "_"), lie_type=args.type,
                i=getattr(args, "node", 1), k=getattr(args, "k", "1"),
                t=getattr(args, "t", 0), x=getattr(args, "x", "0"),
                y=getattr(args, "y", "0"), a=getattr(args, "a", "0"),
                b=getattr(args, "b", "0"), N=N)
            return _emit(run_identity(spec, eng), cfg, out)
        if args.command == "rep-check":
            if args.what == "three-term":
                return _emit(verify_sl2_three_term(narrow(args.x, "--x"), narrow(args.y, "--y"),
                                                   args.M, N, eng), cfg, out)
            mod = build_module(args.kind, narrow(args.k, "--k"), narrow(args.x, "--x"),
                               n_max=args.modes,
                               M=args.M if args.kind == "truncated" else None,
                               config=eng)
            return _emit(check_relations(mod, config=eng) if args.what == "relations"
                         else extract_qchar(mod), cfg, out)
        # translate
        if args.check_tq:
            cartan = build_cartan(LieType.parse(args.type))
            return _emit(verify_multiplicative_tq(cartan, args.node, coord("x"), coord("y"),
                                                  coord("k")), cfg, out)
        if not args.monomial:
            raise ValueError("translate needs --monomial or --check-tq")
        mono = parse_monomial(args.monomial, build_cartan(LieType.parse(args.type)),
                              kind="Psi")
        text = format_monomial(to_multiplicative(mono))
        return _emit({"monomial": text} if cfg.output_format == "json" else text, cfg, out)
    except EngineError as ex:
        print(f"engine error: {ex}", file=err)
        return 3
    except (ValueError, KeyError, OSError, TypeError) as ex:
        print(f"error: {ex}", file=err)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
