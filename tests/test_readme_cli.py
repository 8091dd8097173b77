"""README's CLI examples run: each ``yqchar ...`` line of the code block under
``## CLI`` goes through ``cli.dispatch`` and exits 0.  The suite example reads a
one-entry suite written to a temporary file in place of ``my_suite.json``."""
import json
import pathlib
import re
import shlex
from io import StringIO

import pytest

from yqchar import cli

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _examples() -> list:
    """The argv, ``yqchar`` dropped, of each ``yqchar`` line of the CLI code block."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("yqchar ")]


EXAMPLES = _examples()


def test_the_cli_block_is_read():
    assert len(EXAMPLES) == 17
    assert ["verify", "suite", "my_suite.json"] in EXAMPLES


@pytest.mark.parametrize("argv", EXAMPLES, ids=[" ".join(a) for a in EXAMPLES])
def test_a_readme_example_exits_0(argv, tmp_path):
    if argv[:2] == ["verify", "suite"]:
        suite = tmp_path / argv[2]
        suite.write_text(json.dumps([{"kind": "tsystem", "lie_type": "G2", "k": 1, "t": 1}]))
        argv = [*argv[:2], str(suite)]
    out, err = StringIO(), StringIO()
    assert (cli.dispatch(argv, out, err), err.getvalue()) == (0, "")
    assert out.getvalue()
