"""Every name a module of the package, or of its tests, imports with
`from ... import` is used in that module, and every name a module of
the package or the shared test support defines at top level is named
somewhere else.

An unused import still runs at start-up and binds a name no code reads,
so it hides which module really depends on which.  A name read only in
a string annotation (`qac: "QacMinimal | QacAlwaysReady"`) counts as
used.

A top-level `def`, `class` or assignment in the package or in
`tests/support.py` that no file of the package, its tests or its
benchmark names outside the definition itself is code no path needs.
A name counts as named when it appears as a name, an attribute, an
imported name or a string that parses as an expression reading it (a
string annotation, a `getattr` key).

Only `switch` asks the oracle its questions, and the engines take the
answers: no other module of the package calls an oracle method, and no
`engines` function takes an `oracle` parameter.  So each answer is
asked, and recorded, in one place.

The checker judges the steps the switch took and never takes one
itself: it binds neither the switch module nor any of its steppers or
oracles, so it cannot make the step it then judges.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = sorted(TESTS.parent.joinpath("src", "dataplane").glob("*.py"))
MODULES = PACKAGE + sorted(TESTS.glob("*.py"))
# the files whose definitions must each be named elsewhere
DEFINERS = PACKAGE + [TESTS / "support.py"]
# every file that may name such a definition
READERS = PACKAGE + sorted(TESTS.glob("*.py")) + sorted(TESTS.parent.joinpath("perfbench").glob("*.py"))


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


def _named(node: ast.AST) -> set[str]:
    """The names node reads or binds: names, attributes, imported names,
    and the names of strings that parse as expressions."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.asname or sub.name)
            names.update(sub.name.split("."))
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                expr = ast.parse(sub.value.strip(), mode="eval")
            except (SyntaxError, ValueError):
                continue
            names |= _named(expr)
    return names


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name)]


def unnamed_definitions(sources: dict[str, str], package: list[str]) -> list[str]:
    """The top-level definitions of the package files that no statement
    of any file in sources names outside the definition itself."""
    stmts = {path: ast.parse(text).body for path, text in sources.items()}
    named = {(path, i): _named(stmt) for path, body in stmts.items()
             for i, stmt in enumerate(body)}
    found = []
    for path in package:
        for i, stmt in enumerate(stmts[path]):
            for name in _defined(stmt):
                if name.startswith("__") and name.endswith("__"):
                    continue  # protocol names such as __version__
                if not any(name in names for key, names in named.items() if key != (path, i)):
                    found.append(f"{Path(path).name}: {name} (line {stmt.lineno})")
    return found


def test_every_package_definition_is_named():
    sources = {str(p): p.read_text() for p in READERS}
    assert unnamed_definitions(sources, [str(p) for p in DEFINERS]) == []


class TestDefinitionScanner:
    def test_unnamed_definition_reported(self):
        src = {"m.py": "def f():\n    return f()\n\nX = 1\nY = X\n", "t.py": "Y\n"}
        assert unnamed_definitions(src, ["m.py"]) == ["m.py: f (line 1)"]

    def test_attribute_and_string_count(self):
        src = {"m.py": "class A: pass\nB = 2\n", "t.py": "m.A\ngetattr(m, 'B')\n"}
        assert unnamed_definitions(src, ["m.py"]) == []


ORACLE_QUESTIONS = ("step_kind", "input_index", "admitted_subset", "sched_index")


def oracle_questions(source: str) -> list[str]:
    """The calls in source of a method named as an oracle question."""
    return [f"{node.func.attr} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ORACLE_QUESTIONS]


def test_only_the_switch_asks_the_oracle():
    asked = [f"{p.name}: {q}" for p in PACKAGE if p.name != "switch.py"
             for q in oracle_questions(p.read_text())]
    assert asked == []
    engines = ast.parse(TESTS.parent.joinpath("src", "dataplane", "engines.py").read_text())
    takers = [f"{fn.name} (line {fn.lineno})" for fn in ast.walk(engines)
              if isinstance(fn, ast.FunctionDef)
              and "oracle" in [a.arg for a in fn.args.posonlyargs + fn.args.args
                               + fn.args.kwonlyargs]]
    assert takers == []


def test_oracle_question_scanner():
    src = "def f(o, q):\n    q.step_kind\n    return o.sched_index(len(q))\n"
    assert oracle_questions(src) == ["sched_index (line 3)"]


def test_the_checker_never_steps_the_switch():
    from dataplane import checker, switch

    steppers = [switch, switch.ingress_step, switch.egress_step, switch.Run, switch.run,
                switch.make_oracle]
    bound = sorted(name for name, v in vars(checker).items()
                   if any(v is s for s in steppers)
                   or (isinstance(v, type) and issubclass(v, switch.Oracle)))
    assert bound == []
