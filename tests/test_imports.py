"""Every import in the package, the scripts and the tests is used, and
every public function of the package is reached from the program.

A name counts as used when the module reads it anywhere: as a name, as the
base of an attribute, in a quoted annotation, or in ``__all__``.  A
function counts as reached when the package, the scripts or the benchmark
read its name, as a name or as an attribute; tests alone do not count."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/simdual", "scripts", "tests")
               for path in (ROOT / folder).glob("*.py"))
PROGRAM = sorted(path for folder in ("src/simdual", "scripts", "perfbench")
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


def public_functions(tree) -> list:
    return [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")]


def unreached_functions(package: dict, program: list) -> list:
    """``module.function`` for each public function of the ``package``
    sources (module name -> source) that no ``program`` source reads."""
    reached = set()
    for source in program:
        tree = ast.parse(source)
        reached |= _read_names(tree)
        reached |= {node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute)}
    return [f"{module}.{name}" for module, source in sorted(package.items())
            for name in public_functions(ast.parse(source))
            if name not in reached]


def test_the_scan_finds_an_unreached_function():
    package = {"a": "def f(): pass\ndef g(): f()\ndef _h(): pass\n",
               "b": "def k(): pass\n"}
    assert unreached_functions(package, list(package.values())) == [
        "a.g", "b.k"]
    assert unreached_functions(package, ["import a, b\na.g(b.k)\n"]) == [
        "a.f"]


def test_every_public_function_is_reached_from_the_program():
    package = {path.stem: path.read_text()
               for path in (ROOT / "src/simdual").glob("*.py")}
    program = [path.read_text() for path in PROGRAM]
    assert unreached_functions(package, program) == []
