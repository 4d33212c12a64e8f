"""The package supports Python 3.10 (``requires-python``), and CI runs the
suite on it; these checks hold that line on any interpreter.

Every Python file of the repository parses as Python 3.10, and ``src/``
names none of the standard library's 3.11 additions below, which would
parse and then fail on 3.10 when the line runs.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(p for d in ("src", "tests", "scripts", "perfbench")
               for p in (ROOT / d).rglob("*.py"))
SRC = [p for p in FILES if p.is_relative_to(ROOT / "src")]

# (module, name) pairs new in 3.11; a module alone is a module new in 3.11
NEW_IN_311 = {("tomllib", None), ("typing", "Self"), ("enum", "StrEnum"), ("datetime", "UTC"),
              ("builtins", "ExceptionGroup"), ("asyncio", "TaskGroup"),
              ("hashlib", "file_digest"), ("contextlib", "chdir"), ("operator", "call")}


def _names(tree: ast.Module) -> set[tuple[str, str | None]]:
    """The (module, name) pairs a module uses: its imports, ``module.name``
    on an imported module (under its alias too), and bare builtins."""
    found, alias = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                found.add((a.name, None))
                alias[a.asname or a.name] = a.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.update((node.module, a.name) for a in node.names)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in alias:
            found.add((alias[node.value.id], node.attr))
        elif isinstance(node, ast.Name):
            found.add(("builtins", node.id))
    return found


def test_the_file_lists_are_not_empty():
    assert len(SRC) >= 10 and len(FILES) > len(SRC)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_python_file_parses_as_python_310(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("path", SRC, ids=lambda p: str(p.relative_to(ROOT)))
def test_the_package_uses_no_standard_library_name_new_in_311(path):
    assert not _names(ast.parse(path.read_text())) & NEW_IN_311


@pytest.mark.parametrize("code", [
    "import tomllib", "from typing import Self", "import enum\nclass A(enum.StrEnum): pass",
    "import datetime as dt\nnow = dt.UTC", "raise ExceptionGroup('x', [])",
    "from contextlib import chdir", "import operator\noperator.call(print)",
])
def test_the_name_check_sees_each_form(code):
    assert _names(ast.parse(code)) & NEW_IN_311


def test_python_311_syntax_does_not_parse_as_310():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
