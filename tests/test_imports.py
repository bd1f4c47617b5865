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

Every immutable record of the package is a `record`, never the stdlib's
`@dataclass(frozen=True)`, whose `__init__` stores each field with
`object.__setattr__`.  `switch.Trace`, which a run fills in, is the one
dataclass left: a plain, mutable one.

One code path builds the records of a trace and one loop takes the
steps of a run: within the package, `header_record` and `step_to_json`
are called only by `switch.trace_records`, and a Run's `.step()` only by
`Run.steps`, so `sim`'s writer and `check`'s replay walk the same
generator.

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


RECORD_AND_STEP_CALLS = ("header_record", "step_to_json", "fault_record", "end_record",
                         ".step()")


def _call_name(call: ast.Call):
    f = call.func
    if isinstance(f, ast.Attribute) and f.attr == "step":
        return None if call.args or call.keywords else ".step()"  # a Fold's step takes two
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)


def calls_in_functions(source: str, names) -> list[tuple[str, str]]:
    """(function, call) for each call in source named in names, the
    function that makes it qualified by its class, and "" at top level."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}".lstrip("."))
                continue
            if isinstance(child, ast.Call) and _call_name(child) in names:
                found.append((where, _call_name(child)))
            visit(child, where)
    visit(ast.parse(source), "")
    return found


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
    assert found == ["switch.py: Trace: dataclass"]


def test_dataclass_decoration_scanner():
    src = ("@dataclass(frozen=True)\nclass A: pass\n@dataclasses.dataclass\nclass B: pass\n"
           "@record\nclass C: pass\n")
    assert dataclass_decorations(src) == ["A: dataclass(frozen=True)", "B: dataclasses.dataclass"]
