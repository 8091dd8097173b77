"""Golden corpus: fixed CLI invocations and digests of their exact output.

Every entry is (argv, exit code, digest of stdout and stderr).  The whole
corpus runs in one process, in order, so the engine's caches are shared
between jobs; B2 and C2 jobs are interleaved so that a cache keyed without
the Cartan data would return the other type's answer.

To print the table for the code as it stands (after a deliberate change of
output):

    PYTHONPATH=src python3 tests/test_golden.py
"""
import hashlib
import io

import yqchar.cli as cli


def _kr(t, i, k, *rest):
    return ("qchar", "kr", "--type", t, "--node", str(i), "--k", str(k), *rest)


def _v(what, t, i, *rest):
    return ("verify", what, "--type", t, "--node", str(i), *rest)


GOLDEN = [
    (_kr("A2", 1, 2, "--format", "json"), 0, "909d75dcb897b50e"),
    (_kr("A3", 2, 2), 0, "9832eb6404adc371"),
    (_kr("B2", 2, 3, "--format", "json"), 0, "ba9beb5b9f4acf83"),
    (_kr("C2", 1, 3, "--format", "json"), 0, "002ac6bcc7e08804"),
    (_kr("B2", 1, 2, "--x", "1/2", "--format", "json"), 0, "45657f4f8cd944ae"),
    (_kr("C2", 2, 2, "--x", "1/2", "--format", "json"), 0, "9c776d0ac39f5d7c"),
    (_kr("B3", 3, 2, "--height", "3", "--format", "json"), 0, "b5ceafd106563383"),
    (_kr("C3", 1, 2, "--x=-3/2"), 0, "5ebe91b398ece80a"),
    (_kr("D4", 2, 1, "--format", "json"), 0, "8d4f6d222cbbf5ea"),
    (_kr("E6", 1, 2, "--format", "json"), 0, "5a148dc7f9279c71"),
    (_kr("F4", 4, 1, "--x", "1/3", "--format", "json"), 0, "aee0ee27315086ee"),
    (_kr("G2", 1, 2, "--x=-3/2", "--format", "json"), 0, "162449bc20de9d6c"),
    (_kr("G2", 2, 2, "--x", "k", "--format", "json"), 0, "830a4360bf03f50b"),
    (("qchar", "demazure", "--type", "A1", "--node", "1", "--k", "2", "--t", "1",
      "--format", "json"), 0, "00b13a6b8fa0d292"),
    (("qchar", "demazure", "--type", "B2", "--node", "2", "--k", "1", "--t", "1",
      "--x", "x", "--height", "3", "--format", "json"), 0, "a73d6212770a795a"),
    (("qchar", "demazure", "--type", "C2", "--node", "2", "--k", "1", "--t", "1",
      "--x", "x", "--height", "3", "--format", "json"), 0, "fbc986a8b0811df9"),
    (("qchar", "asymptotic", "--type", "A2", "--node", "1", "--y", "y", "--x", "x",
      "--height", "3", "--format", "json"), 0, "9a7b64dc1d07727b"),
    (("qchar", "asymptotic", "--type", "B2", "--node", "2", "--y", "x+k", "--x", "x",
      "--height", "3", "--format", "json"), 0, "31dd6f85d779d899"),
    (("qchar", "asymptotic", "--type", "C2", "--node", "2", "--y", "x+k", "--x", "x",
      "--height", "3"), 0, "b947676c8a515010"),
    (("qchar", "prefundamental", "--type", "G2", "--node", "1", "--sign", "-",
      "--x", "k", "--height", "3", "--format", "json"), 0, "e857af1c0683e5f0"),
    (("qchar", "prefundamental", "--type", "B2", "--node", "1", "--sign", "+",
      "--x", "x", "--format", "json"), 0, "ce20b3527533bc78"),
    (("qchar", "m", "--type", "B2", "--node", "1", "--k", "k", "--x", "1/2",
      "--format", "json"), 0, "7b347afac882b8fc"),
    (("qchar", "n", "--type", "G2", "--node", "1", "--k", "k"), 0, "0b7909d46c56d5ed"),
    (_v("tsystem", "B2", 1, "--k", "2", "--t", "1", "--format", "json"), 0,
     "06938b89590ea89f"),
    (_v("tsystem", "C2", 1, "--k", "2", "--t", "1", "--format", "json"), 0,
     "aba19c1e82ad668b"),
    (_v("tsystem", "G2", 1, "--k", "1", "--t", "1"), 0, "79fbb4bccf3a21e2"),
    (_v("tq", "B2", 2, "--k", "6", "--height", "3", "--format", "json"), 0,
     "11871ccfb6ea30b7"),
    (_v("tq", "C2", 2, "--k", "6", "--height", "3", "--format", "json"), 0,
     "9df5032148bad3c2"),
    (_v("tq", "A2", 1, "--k", "6", "--height", "3", "--x", "1/2"), 0, "d2b9881ab449d42c"),
    (_v("two-term", "A1", 1, "--a", "a", "--b", "b", "--x", "x", "--y", "y",
        "--height", "3", "--format", "json"), 0, "30dd4294600e7cae"),
    (_v("two-term", "B2", 2, "--a", "a", "--b", "b", "--x", "x", "--y", "y",
        "--height", "2", "--format", "json"), 0, "0cdc130a3b17ef1b"),
    (_v("kr-skeleton", "C2", 2, "--k", "3", "--format", "json"), 0, "3390ece55d3559c1"),
    (("rep-check", "qchar", "--kind", "finite", "--k", "3", "--x", "1/2",
      "--format", "json"), 0, "97173be6992b8685"),
    (("rep-check", "qchar", "--kind", "truncated", "--k", "5/2", "--M", "6",
      "--format", "json"), 0, "12bf3fc897db7d7e"),
    (("translate", "--to", "multiplicative", "--monomial",
      "Psi[1,1/2+x] /Psi[2,-1/2+x]", "--format", "json"), 0, "b9bec78044ff21bb"),
    (("translate", "--to", "multiplicative", "--check-tq", "--type", "B2",
      "--node", "2", "--format", "json"), 0, "6bf5c6df9144b7fc"),
    (_kr("D3", 1, 1), 2, "f4f8cd187ba8f8cb"),
]


def run_digest(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.dispatch(list(argv), out, err)
    blob = f"{out.getvalue()}\0{err.getvalue()}".encode()
    return code, hashlib.sha256(blob).hexdigest()[:16]


def test_golden_corpus():
    diff = []
    for argv, code, digest in GOLDEN:
        got = run_digest(argv)
        if got != (code, digest):
            diff.append((" ".join(argv), (code, digest), got))
    assert not diff, diff


if __name__ == "__main__":
    for argv, _, _ in GOLDEN:
        code, dg = run_digest(argv)
        print(f"{code} {dg}  {' '.join(argv)}")
