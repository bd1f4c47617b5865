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
Nor may the package define one that only its tests name, beyond the
few `TEST_ONLY` lists with their reasons: code only tests use lives in
`tests/support.py`.
A name counts as named when it appears as a name, an attribute, an
imported name or a string that parses as an expression reading it (a
string annotation, a `getattr` key).

Likewise every public method (no leading underscore) of a class of the
package is named by the package or its benchmark outside its own class
body, so a method only tests call is caught too.  An attribute read off
an imported module, such as `dataclasses.replace`, does not name one.
The scan goes by bare name, so a method slips through while anything
else of that name is named: were `TypedValue.replace` back, `checker`'s
`from .records import replace` would hide it.

Only `switch` asks the oracle its questions, and the engines take the
answers: no other module of the package calls an oracle method, and no
`engines` function takes an `oracle` parameter.  So each answer is
asked, and recorded, in one place.

Every record of the package is a `record`, never the stdlib's
`@dataclass`, whose frozen `__init__` stores each field with
`object.__setattr__`.  And no module of the package imports `dataclasses` when it is
imported, anywhere outside a function body: it loads `inspect`, `ast`,
`dis`, `tokenize` and `copy`, several milliseconds of every process.

One code path builds the records of a trace and one loop takes the
steps of a run: within the package, `header_record` and `step_to_json`
are called only by `switch.trace_records`, and a Run's `.step()` only by
`Run.steps`, so `sim`'s writer and `check`'s replay walk the same
generator.

One walk reads the multicast tables: within the package, only
`engines.replication_engine` reads the `groups`, `lags` or
`l2_exclusion` attribute of an `McConfig`.

One builder tables replication: within the package,
`replication_engine` and `mandatory_mask` are called only by
`engines.replication_table`, which a run and an axioms fold each call
once, as they start, over the app's declared actions.  So no step
walks the multicast tree, and no table has a miss path.

The two step functions build their records positionally: within
`switch.ingress_step` and `switch.egress_step`, no call of a step record
class passes a keyword argument, which costs 1.5-2.0x the positional
call on every step.

The checker judges the steps the switch took and never takes one
itself: it binds neither the switch module nor any of its steppers or
oracles, so it cannot make the step it then judges.

Every module of the package parses under the grammar of the oldest
Python that `pyproject.toml` allows.
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


def _named(node: ast.AST, skip: ast.AST | None = None, modules: frozenset = frozenset()
           ) -> set[str]:
    """The names node reads or binds outside skip: names, attributes
    other than those read off a name in modules, imported names, and the
    names of strings that parse as expressions."""
    names = set()
    stack = [node]
    while stack:
        sub = stack.pop()
        if sub is skip:
            continue
        stack.extend(ast.iter_child_nodes(sub))
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            if not (isinstance(sub.value, ast.Name) and sub.value.id in modules):
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


# the package definitions that only tests name, each with its reason
TEST_ONLY = {
    "checker.py: parser_oblivious_check": "a proof obligation that `prove` is to call",
    "checker.py: format_acceptance_check": "a proof obligation that `prove` is to call",
}


def test_no_new_definition_only_tests_take():
    readers = PACKAGE + sorted(TESTS.parent.joinpath("perfbench").glob("*.py"))
    sources = {str(p): p.read_text() for p in readers}
    found = unnamed_definitions(sources, [str(p) for p in PACKAGE])
    assert sorted(f.split(" (line")[0] for f in found) == sorted(TEST_ONLY)


def _module_names(tree: ast.AST) -> frozenset:
    """The names tree binds to modules: `import m`, `import m as n` and
    `from . import m`."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level and node.module is None:
            names.update(a.asname or a.name for a in node.names)
    return frozenset(names)


def unnamed_methods(sources: dict[str, str], package: list[str]) -> list[str]:
    """The public methods of the classes of the package files that no
    file in sources names outside the method's own class body."""
    trees = {path: ast.parse(text) for path, text in sources.items()}
    modules = {path: _module_names(tree) for path, tree in trees.items()}
    named = {path: _named(tree, modules=modules[path]) for path, tree in trees.items()}
    found = []
    for path in package:
        elsewhere = set().union(*(names for p, names in named.items() if p != path))
        for cls in ast.walk(trees[path]):
            if not isinstance(cls, ast.ClassDef):
                continue
            outside = elsewhere | _named(trees[path], skip=cls, modules=modules[path])
            found += [f"{Path(path).name}: {cls.name}.{fn.name} (line {fn.lineno})"
                      for fn in cls.body
                      if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not fn.name.startswith("_") and fn.name not in outside]
    return found


def test_every_public_method_is_named():
    readers = PACKAGE + sorted(TESTS.parent.joinpath("perfbench").glob("*.py"))
    sources = {str(p): p.read_text() for p in readers}
    assert unnamed_methods(sources, [str(p) for p in PACKAGE]) == []


class TestDefinitionScanner:
    def test_unnamed_definition_reported(self):
        src = {"m.py": "def f():\n    return f()\n\nX = 1\nY = X\n", "t.py": "Y\n"}
        assert unnamed_definitions(src, ["m.py"]) == ["m.py: f (line 1)"]

    def test_attribute_and_string_count(self):
        src = {"m.py": "class A: pass\nB = 2\n", "t.py": "m.A\ngetattr(m, 'B')\n"}
        assert unnamed_definitions(src, ["m.py"]) == []

    def test_method_named_only_in_its_class_reported(self):
        src = {"m.py": "class A:\n    def f(self):\n        return self.f()\n"
                       "    def g(self):\n        pass\n    def _h(self):\n        pass\n"
                       "A().g()\n"}
        assert unnamed_methods(src, ["m.py"]) == ["m.py: A.f (line 2)"]

    def test_attribute_of_a_module_does_not_name_a_method(self):
        src = {"m.py": "class A:\n    def f(self):\n        pass\n",
               "t.py": "import dataclasses\nfrom . import m as mm\n"
                       "dataclasses.f(1)\nmm.f\n"}
        assert unnamed_methods(src, ["m.py"]) == ["m.py: A.f (line 2)"]
        src["t.py"] += "a.f()\n"
        assert unnamed_methods(src, ["m.py"]) == []


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


RECORD_AND_STEP_CALLS = ("header_record", "step_to_json", "fault_record", "end_record",
                         ".step()")


def _call_name(call: ast.Call):
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr == "step":
        return None if call.args or call.keywords else ".step()"  # a Fold's step takes two
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def found_in_functions(source: str, name_of) -> list[tuple[str, str]]:
    """(function, name) for each node of source that name_of names (it
    returns None for the others), the function holding the node
    qualified by its class, and "" at top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            name = name_of(child)
            if name is not None:
                found.append((where, name))
            visit(child, where)
    visit(ast.parse(source), "")
    return found


def calls_in_functions(source: str, names) -> list[tuple[str, str]]:
    """(function, call) for each call in source named in names."""
    def call(node):
        name = _call_name(node) if isinstance(node, ast.Call) else None
        return name if name in names else None
    return found_in_functions(source, call)


def test_one_record_builder_and_one_step_loop():
    made = {(p.name, where, name) for p in PACKAGE
            for where, name in calls_in_functions(p.read_text(), RECORD_AND_STEP_CALLS)}
    assert made == {("switch.py", "trace_records", "header_record"),
                    ("switch.py", "trace_records", "step_to_json"),
                    ("switch.py", "Run.steps", ".step()")}


def test_record_and_step_call_scanner():
    src = ("class Run:\n    def steps(self):\n        yield self.step()\n"
           "def f(r, fold):\n    fold.step(0, r)\n"
           "    return [switch.step_to_json(s) for s in r.steps(g())]\n"
           "header_record(end_record(1))\n")
    assert calls_in_functions(src, RECORD_AND_STEP_CALLS) == [
        ("Run.steps", ".step()"), ("f", "step_to_json"), ("", "header_record"),
        ("", "end_record")]


REPLICATION_CALLS = ("replication_engine", "mandatory_mask")


def test_one_replication_table_builder():
    made = {(p.name, where, name) for p in PACKAGE
            for where, name in calls_in_functions(p.read_text(), REPLICATION_CALLS)}
    assert made == {("engines.py", "replication_table", "replication_engine"),
                    ("engines.py", "replication_table", "mandatory_mask")}


def test_replication_call_scanner():
    src = ("def replication_table(c, q, actions):\n"
           "    return {m: mandatory_mask(q, replication_engine(c, m)) for m in actions}\n"
           "class Run:\n    def step(self, tm):\n"
           "        return engines.replication_engine(self.mc, tm)\n")
    assert calls_in_functions(src, REPLICATION_CALLS) == [
        ("replication_table", "mandatory_mask"), ("replication_table", "replication_engine"),
        ("Run.step", "replication_engine")]


MC_TABLES = ("groups", "lags", "l2_exclusion")


def table_reads(source: str) -> list[tuple[str, str]]:
    """(function, attribute) for each read in source of an attribute
    named as one of McConfig's tables."""
    def read(node):
        loaded = isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        return node.attr if loaded and node.attr in MC_TABLES else None
    return found_in_functions(source, read)


def test_one_reader_of_the_multicast_tables():
    read = {(p.name, where, name) for p in PACKAGE for where, name in table_reads(p.read_text())}
    assert read == {("engines.py", "replication_engine", name) for name in MC_TABLES}


def test_table_read_scanner():
    src = ("class McConfig:\n    def group(self, gid):\n        return dict(self.groups)[gid]\n"
           "def f(c, g):\n    c.lags = g.groups\n    return {'lags': 1}\n"
           "object.__setattr__(c, 'l2_exclusion', ())\nc.l2_exclusion\n")
    assert table_reads(src) == [("McConfig.group", "groups"), ("f", "groups"),
                                ("", "l2_exclusion")]


STEP_RECORDS = ("SwitchState", "SwitchQueues", "IngressDetail", "EgressDetail", "TraceStep")


def record_builds(source: str, functions) -> list[tuple[str, str, tuple]]:
    """(function, class, keyword names) for each call of a STEP_RECORDS
    class in the top-level functions of source named in functions."""
    return [(fn.name, _call_name(node), tuple(k.arg for k in node.keywords))
            for fn in ast.parse(source).body
            if isinstance(fn, ast.FunctionDef) and fn.name in functions
            for node in ast.walk(fn)
            if isinstance(node, ast.Call) and _call_name(node) in STEP_RECORDS]


def test_step_records_built_positionally():
    source = TESTS.parent.joinpath("src", "dataplane", "switch.py").read_text()
    builds = record_builds(source, ("ingress_step", "egress_step"))
    assert {fn for fn, _, _ in builds} == {"ingress_step", "egress_step"}
    assert [b for b in builds if b[2]] == []


def test_record_build_scanner():
    src = ("def ingress_step(st):\n    return TraceStep(1, SwitchState(t=st.t + 1, s_g=0))\n"
           "def egress_step(st):\n    return switch.EgressDetail(st, p_out=None)\n"
           "def other():\n    return SwitchQueues(q_input=())\n")
    assert sorted(record_builds(src, ("ingress_step", "egress_step"))) == [
        ("egress_step", "EgressDetail", ("p_out",)),
        ("ingress_step", "SwitchState", ("t", "s_g")),
        ("ingress_step", "TraceStep", ())]


def test_the_checker_never_steps_the_switch():
    from dataplane import checker, switch

    steppers = [switch, switch.ingress_step, switch.egress_step, switch.Run, switch.run,
                switch.make_oracle]
    bound = sorted(name for name, v in vars(checker).items()
                   if any(v is s for s in steppers)
                   or (isinstance(v, type) and issubclass(v, switch.Oracle)))
    assert bound == []


def dataclass_decorations(source: str) -> list[str]:
    """The classes in source that the stdlib's dataclass decorator makes,
    each with the decorator as written."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ClassDef):
            for dec in node.decorator_list:
                fn = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(fn, "attr", getattr(fn, "id", None)) == "dataclass":
                    found.append(f"{node.name}: {ast.unparse(dec)}")
    return found


def test_records_are_not_frozen_dataclasses():
    found = [f"{p.name}: {d}" for p in PACKAGE for d in dataclass_decorations(p.read_text())]
    assert found == []


def import_time_imports(source: str) -> list[str]:
    """The modules source imports when it is itself imported: those of
    every `import` and absolute `from ... import` outside a function."""
    found, todo = [], [ast.parse(source)]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo += ast.iter_child_nodes(node)
    return sorted(found)


def test_no_module_imports_dataclasses_at_import():
    found = [f"{p.name}: {m}" for p in PACKAGE for m in import_time_imports(p.read_text())
             if m.split(".")[0] == "dataclasses"]
    assert found == []


def every_import(source: str) -> list[str]:
    """The modules source imports anywhere, in a function or not: those of
    every `import` and absolute `from ... import`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return sorted(found)


def test_no_module_imports_argparse():
    # cli reads argv against its own command table: argparse, with the
    # gettext and locale it loads, cost every command a few milliseconds
    found = [f"{p.name}: {m}" for p in PACKAGE for m in every_import(p.read_text())
             if m.split(".")[0] == "argparse"]
    assert found == []


def test_import_time_import_scanner():
    src = ("import dataclasses\nfrom os import path\nfrom . import m\n"
           "def f():\n    import json\n    g = lambda: __import__('x')\n"
           "class C:\n    import re\n    def h(self):\n        from copy import copy\n"
           "if path:\n    import sys\n")
    assert import_time_imports(src) == ["dataclasses", "os", "re", "sys"]
    assert every_import(src) == ["copy", "dataclasses", "json", "os", "re", "sys"]


def test_dataclass_decoration_scanner():
    src = ("@dataclass(frozen=True)\nclass A: pass\n@dataclasses.dataclass\nclass B: pass\n"
           "@record\nclass C: pass\n")
    assert dataclass_decorations(src) == ["A: dataclass(frozen=True)", "B: dataclasses.dataclass"]


OLDEST_PYTHON = (3, 10)


def test_package_parses_under_its_oldest_python():
    """Syntax only: a library API that the oldest version lacks, such as
    a keyword a stdlib call gained later, still parses."""
    pyproject = (TESTS.parent / "pyproject.toml").read_text()
    assert 'requires-python = ">=%d.%d"' % OLDEST_PYTHON in pyproject
    for path in PACKAGE:
        ast.parse(path.read_text(), str(path), feature_version=OLDEST_PYTHON)
