"""The runtime imports the standard library and yqchar itself, nothing else."""
import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).parents[1] / "src" / "yqchar").glob("*.py"))


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
