"""Every import in the package, the scripts and the tests is used.

A name counts as used when the module reads it anywhere: as a name, as the
base of an attribute, in a quoted annotation, or in ``__all__``."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/simdual", "scripts", "tests")
               for path in (ROOT / folder).glob("*.py"))


def _imported(tree):
    """(bound name, line) of every import outside ``__future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _read_names(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            names.add(node.value)        # quoted annotations and __all__
    return names


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = _read_names(tree)
    return [f"{name} (line {line})" for name, line in _imported(tree)
            if name not in used]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "os (line 1)", "b (line 2)"]
    assert unused_imports("import a.b\nx: 'T' = a.b\nfrom t import T\n") \
        == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
