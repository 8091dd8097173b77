"""The flags of every leaf subcommand, pinned: option strings, type, default,
choices, whether required, and help.  A refactor of the parser must leave
this table as it is; the order of flags in ``--help`` is not pinned."""
import argparse

import yqchar.cli as cli


def _flag(type=None, default=None, choices=None, required=False, help=None):
    return type, default, choices, required, help


COORD_HELP = "spectral coordinate, e.g. -3/2, k, 1/2+k"
FORMAT = _flag(choices=("text", "json"))
# --type, --node, --format and --config of the verbs that act on a node
NODE = {"--type": _flag(required=True, help="Lie type, e.g. A2, G2"),
        "--node": _flag("int", required=True),
        "--format": FORMAT, "--config": _flag(help="JSON CliConfig file")}
K = _flag(default="1", help="integer or symbolic coordinate")
# verify leaves a missing k to IdentitySpec: 1, or the least k of the TQ regime
LAZY_K = _flag(help=K[4])
T = _flag("int", default=0)
X = _flag(default="0", help=COORD_HELP)
PLAIN = _flag(default="0")
HEIGHT = _flag("int", help="truncation height (default from config)")
COMPLETE = _flag("int", help="truncation height (default: the complete character)")
# --format and --config of the verbs that do not act on a node
BARE = {"--format": FORMAT, "--config": NODE["--config"]}
RATIONAL = _flag(default="0", help="rational, e.g. -3/2")
REP = {**BARE, "--kind": _flag(default="finite", choices=("finite", "truncated")),
       "--k": _flag(default="1", help="rational, e.g. -3/2; an integer >= 0 for --kind finite"),
       "--x": RATIONAL, "--M": _flag("int", default=8, help="basis size of a truncated module"),
       "--modes": _flag("int", default=3, help="mode bound n_max")}

PINNED = {
    "qchar kr": {**NODE, "--k": K, "--x": X, "--height": COMPLETE},
    "qchar demazure": {**NODE, "--k": K, "--t": T, "--x": X, "--height": COMPLETE},
    "qchar asymptotic": {**NODE, "--x": X, "--y": PLAIN, "--height": HEIGHT},
    "qchar prefundamental": {**NODE, "--x": X, "--height": HEIGHT,
                             "--sign": _flag(default="-", choices=("+", "-"))},
    "qchar m": {**NODE, "--k": K, "--x": X},
    "qchar n": {**NODE, "--k": K, "--x": X},
    "verify tsystem": {**NODE, "--k": LAZY_K, "--t": T},
    "verify tq": {**NODE, "--k": LAZY_K, "--x": X, "--height": HEIGHT},
    "verify two-term": {**NODE, "--x": X, "--y": PLAIN, "--a": PLAIN, "--b": PLAIN,
                        "--height": HEIGHT},
    "verify factorization": {**NODE, "--k": LAZY_K, "--x": X},
    "verify kr-skeleton": {**NODE, "--k": LAZY_K, "--x": X},
    "verify demazure-support": {**NODE, "--k": LAZY_K, "--x": X, "--height": HEIGHT},
    "verify m-support": {**NODE, "--k": LAZY_K, "--x": X, "--height": HEIGHT},
    "verify suite": {**BARE, "suite_file": _flag(required=True)},
    "rep-check relations": REP,
    "rep-check qchar": REP,
    "rep-check three-term": {**BARE, "--x": RATIONAL, "--y": RATIONAL,
                             "--M": _flag("int", default=8,
                                          help="basis size of its three truncated towers"),
                             "--height": HEIGHT},
    "translate": {
        **BARE, "--to": _flag(choices=("multiplicative",), required=True),
        "--monomial": _flag(help="Psi monomial string"),
        "--check-tq": _flag(default=False, help="compare the translated three-term "
                            "instance with the independently built multiplicative display"),
        "--type": _flag(default="A2"), "--node": _flag("int", default=1)},
}


def _leaves(parser, path=()):
    """(path, parser) of every leaf subcommand below ``parser``."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        yield " ".join(path), parser
        return
    for name, child in subs[0].choices.items():
        yield from _leaves(child, (*path, name))


def _flags(parser) -> dict:
    return {(" ".join(a.option_strings) or a.dest):
            _flag(getattr(a.type, "__name__", a.type), a.default,
                  tuple(a.choices) if a.choices else None, a.required, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)}


def test_every_leaf_subcommand_keeps_its_flags():
    got = {path: _flags(p) for path, p in _leaves(cli._parser())}
    assert sorted(got) == sorted(PINNED)
    for path, flags in PINNED.items():
        assert got[path] == flags, path


def test_store_true_flags_take_no_value():
    (translate,) = [p for path, p in _leaves(cli._parser()) if path == "translate"]
    (check,) = [a for a in translate._actions if a.option_strings == ["--check-tq"]]
    assert isinstance(check, argparse._StoreTrueAction)
