"""The runtime imports the standard library and yqchar itself, nothing else,
and starting the CLI loads neither ``dataclasses`` nor ``inspect``, nor
``argparse`` and its ``gettext`` before a command needs the argparse tree."""
import ast
import functools
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).parents[1] / "src"
SOURCES = sorted((SRC / "yqchar").glob("*.py"))


def imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            yield "yqchar" if node.level else node.module


def test_every_import_is_stdlib_or_yqchar():
    assert SOURCES
    foreign = {(path.name, name) for path in SOURCES for name in imported_modules(path)
               if name.split(".")[0] not in sys.stdlib_module_names | {"yqchar"}}
    assert not foreign, sorted(foreign)


def _loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, "-c", f"{code}\nimport sys\nprint(*sys.modules)"],
                         env=os.environ | {"PYTHONPATH": path}, capture_output=True, text=True,
                         check=True, timeout=60)
    return set(run.stdout.split())


@functools.cache
def _added_by_the_cli() -> set:
    # against a bare interpreter: site loads modules that depend on the environment
    added = _loaded_after("import yqchar.cli") - _loaded_after("pass")
    assert "yqchar.cli" in added
    return added


def test_starting_the_cli_loads_no_dataclasses_or_inspect():
    added = _added_by_the_cli()
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_starting_the_cli_loads_no_argparse_or_gettext():
    # the argparse tree, which is built only for help and usage errors, imports them
    added = _added_by_the_cli()
    assert not added & {"argparse", "gettext"}, sorted(added)
    assert {"argparse", "gettext"} <= _loaded_after("import yqchar.cli\nyqchar.cli._parser()")
