"""Command-line front end: characters, identity suites, matrix checks.

Exit codes: 0 all requested checks pass / output produced; 1 verification
failure; 2 usage error; 3 engine budget or stabilization failure.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .cartan import LieType, build_cartan
from .coords import coord
from .characters import (
    EngineConfig, EngineError, asymptotic_char, demazure_char_via_ses,
    demazure_weight, fm_expand, kr_top_y, m_weight, n_weight, prefundamental_char,
)
from .identities import (
    IdentitySpec, run_identity, to_multiplicative, verify_multiplicative_tq,
)
from .monomials import PsiMonomial
from .sl2_explicit import build_module, check_relations, extract_qchar, verify_sl2_three_term
from .textio import MonomialSyntaxError, format_monomial, parse_monomial

__all__ = ["main", "dispatch", "CliConfig"]


@dataclass(frozen=True)
class CliConfig:
    default_height_bound: int = 3
    term_budget: int = 1_000_000
    stabilization_k_ceiling: int = 16
    output_format: str = "text"

    def __post_init__(self):
        if self.default_height_bound < 1 or self.term_budget < 1 \
                or self.stabilization_k_ceiling < 1:
            raise ValueError("config bounds must be positive")
        if self.output_format not in ("text", "json"):
            raise ValueError("output_format must be 'text' or 'json'")

    def engine(self) -> EngineConfig:
        return EngineConfig(self.term_budget, self.stabilization_k_ceiling)


class UsageError(ValueError):
    pass


def _load_config(path: str | None, fmt: str | None) -> CliConfig:
    fields = {}
    if path:
        with open(path) as fh:
            fields = json.load(fh)
    cfg = CliConfig(**fields)
    if fmt:
        cfg = CliConfig(cfg.default_height_bound, cfg.term_budget,
                        cfg.stabilization_k_ceiling, fmt)
    return cfg


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use and reused: parse_args keeps no state between calls,
    # and building the tree of subparsers costs more than most commands.
    top = argparse.ArgumentParser(prog="yqchar", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, *, node=True, k=False, t=False, x=True, y=False, height=True):
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
            p.add_argument("--height", type=int, default=None,
                           help="truncation height (default from config)")
        p.add_argument("--format", choices=("text", "json"), default=None)
        p.add_argument("--config", default=None, help="JSON CliConfig file")

    q = sub.add_parser("qchar", help="compute a character").add_subparsers(
        dest="what", required=True)
    common(q.add_parser("kr"), k=True)
    common(q.add_parser("demazure"), k=True, t=True)
    common(q.add_parser("asymptotic"), y=True)
    p = q.add_parser("prefundamental")
    common(p)
    p.add_argument("--sign", choices=("+", "-"), default="-")
    common(q.add_parser("m"), k=True, height=False)
    common(q.add_parser("n"), k=True, height=False)

    v = sub.add_parser("verify", help="verify an identity").add_subparsers(
        dest="what", required=True)
    common(v.add_parser("tsystem"), k=True, t=True, x=False, height=False)
    common(v.add_parser("tq"), k=True)
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
    p.add_argument("--height", type=int, default=3)
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


def _emit(obj, cfg: CliConfig, out):
    if cfg.output_format == "json":
        payload = obj.to_json() if hasattr(obj, "to_json") else obj
        if isinstance(payload, str):
            payload = json.loads(payload)
        print(json.dumps({"schema": "yqchar/1", "result": payload},
                         sort_keys=True), file=out)
    else:
        print(obj.to_text() if hasattr(obj, "to_text")
              else obj.to_table() if hasattr(obj, "to_table") else obj, file=out)


def dispatch(argv, out=sys.stdout, err=sys.stderr) -> int:
    parser = _parser()
    try:
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
                ch = fm_expand(cartan, kr_top_y(cartan, i, int(args.k), coord(args.x)),
                               height, eng)
            elif args.what == "demazure":
                ch = demazure_char_via_ses(cartan, i, args.t, int(args.k),
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
                _emit({"monomial": format_monomial(ch)} if cfg.output_format == "json"
                      else format_monomial(ch), cfg, out)
            else:
                _emit(ch, cfg, out)
            return 0
        if args.command == "verify":
            if args.what == "suite":
                with open(args.suite_file) as fh:
                    specs = [IdentitySpec.from_json(o) for o in json.load(fh)]
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
            kind = args.what.replace("-", "_")
            kval = str(getattr(args, "k", "1"))
            spec = IdentitySpec(
                kind=kind, lie_type=args.type, i=getattr(args, "node", 1),
                k=int(kval) if kval.lstrip("-").isdigit() else kval,
                t=getattr(args, "t", 0), x=getattr(args, "x", "0"),
                y=getattr(args, "y", "0"), a=getattr(args, "a", "0"),
                b=getattr(args, "b", "0"), N=N)
            report = run_identity(spec, eng)
            _emit(report, cfg, out)
            return 0 if report.verdict else 1
        if args.command == "rep-check":
            if args.what == "three-term":
                report = verify_sl2_three_term(Fraction(args.x), Fraction(args.y),
                                               args.M, args.height)
                _emit(report, cfg, out)
                return 0 if report.verdict else 1
            mod = build_module(args.kind, Fraction(args.k), Fraction(args.x),
                               n_max=args.modes,
                               M=args.M if args.kind == "truncated" else None)
            if args.what == "relations":
                report = check_relations(mod)
                _emit(report, cfg, out)
                return 0 if report.verdict else 1
            _emit(extract_qchar(mod), cfg, out)
            return 0
        # translate
        if args.check_tq:
            cartan = build_cartan(LieType.parse(args.type))
            report = verify_multiplicative_tq(cartan, args.node,
                                              coord("x"), coord("y"), coord("k"))
            _emit(report, cfg, out)
            return 0 if report.verdict else 1
        if not args.monomial:
            raise UsageError("translate needs --monomial or --check-tq")
        mono = parse_monomial(args.monomial, kind="Psi")
        if not isinstance(mono, PsiMonomial):
            raise UsageError("translation input must be a Psi monomial")
        text = format_monomial(to_multiplicative(mono))
        _emit({"monomial": text} if cfg.output_format == "json" else text, cfg, out)
        return 0
    except (UsageError, MonomialSyntaxError) as ex:
        print(f"error: {ex}", file=err)
        return 2
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
