"""Every name a module of the package, or of its tests, imports with
`from ... import` is used in that module.

An unused import still runs at start-up and binds a name no code reads,
so it hides which module really depends on which.  A name read only in
a string annotation (`qac: "QacMinimal | QacAlwaysReady"`) counts as
used.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
MODULES = sorted(TESTS.parent.joinpath("src", "dataplane").glob("*.py")) + sorted(TESTS.glob("*.py"))


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read by an annotation, looking inside string annotations."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names |= _annotation_names(ast.parse(sub.value, mode="eval"))
    return names


def unused_imports(source: str) -> list[str]:
    """The names bound by `from ... import` in source that it never reads."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_from_imports(path):
    assert unused_imports(path.read_text()) == []


class TestScanner:
    def test_unused_name_reported(self):
        src = "from os import path, sep\nprint(sep)\n"
        assert unused_imports(src) == ["path (line 1)"]

    def test_string_annotation_counts_as_use(self):
        src = ("from __future__ import annotations\nfrom x import A, B\n"
               "class C:\n    f: \"A | B\"\n")
        assert unused_imports(src) == []

    def test_attribute_base_counts_as_use(self):
        assert unused_imports("from a import b\nb.c()\n") == []

    def test_alias_is_the_bound_name(self):
        assert unused_imports("from a import b as c\nb()\n") == ["c (line 1)"]
