"""The entry points the benchmark harness in perfbench/ relies on.

perfbench/tracer.py times the functions it names in TARGETS and wraps
the components of the record `apps.app_from_config` returns;
perfbench/worker.py builds and checks its library runs through the
package; and its `setup` job times start-up by replacing `switch.run`
before `dataplane sim` reaches it.  A refactor that breaks one of these
keeps the package's own tests green and only shows when the benchmark
runs, so they are pinned here.  The harness is only read or run, never
edited.
"""

import ast
import dataclasses
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from dataplane import apps, cli, switch

from support import tcp_pkt, udp_pkt

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_targets() -> dict:
    """The TARGETS literal of perfbench/tracer.py."""
    for node in ast.parse((PERFBENCH / "tracer.py").read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_tracer_targets_resolve():
    targets = _tracer_targets()
    assert targets
    for module, names in targets.items():
        home = importlib.import_module(f"dataplane.{module}")
        for name in names:
            assert callable(getattr(home, name, None)), f"dataplane.{module}.{name}"


@pytest.mark.parametrize("workload, config", [
    ("identity-random", {"app": "identity", "forward_port": 2}),
    ("sampler-cli", {"app": "sampler", "forward_port": 1, "monitor_port": 3,
                     "sample_every": 2}),
    ("firewall-flows", {"app": "firewall", "inside_port": 1, "outside_port": 2,
                        "window": 64, "keepalive_period": 16}),
])
def test_worker_library_iteration(workload, config, tmp_path, monkeypatch):
    # the worker imports its sibling modules (workloads, model) by name;
    # leave no bytecode behind in the harness's directory
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)

    (tmp_path / "config.json").write_text(json.dumps(config))
    (tmp_path / "input.jsonl").write_text("".join(
        json.dumps({"port": 1, "packet": p.to_json()}) + "\n"
        for p in (tcp_pkt(sp=1), udp_pkt(sp=2), tcp_pkt(sp=3))))
    loaded, start = worker.prepare(workload, str(tmp_path), 1)
    r = worker.library_iteration(workload, loaded, start)
    assert r["fault"] is None and r["verdicts"]
    assert all(v.endswith(": ok") for v in r["verdicts"]), r["verdicts"]

    # the tracer wraps the components of the record app_from_config returns
    built = apps.app_from_config(config)
    assert dataclasses.replace(built, components=built.components) == built


class _ReachedRun(Exception):
    pass


def test_sim_calls_run_through_the_switch_module(tmp_path, monkeypatch):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"app": "sampler", "sample_every": 4}))

    def reached(*args, **kwargs):
        raise _ReachedRun

    monkeypatch.setattr(switch, "run", reached)
    with pytest.raises(_ReachedRun):
        cli.main(["sim", "--config", str(config), "--steps", "5"])


@pytest.mark.parametrize("cmd", ["sim", "check"])
def test_main_calls_the_handler_bound_in_cli(monkeypatch, cmd):
    # the tracer times `sim` and `check` by replacing cli.cmd_sim and
    # cli.cmd_check, so main must look them up when it runs
    calls = []
    monkeypatch.setattr(cli, f"cmd_{cmd}", lambda args: calls.append(args.cmd) or 0)
    argv = ["--config", "unread.json"] + (["unread.jsonl"] if cmd == "check" else [])
    assert cli.main([cmd, *argv]) == 0
    assert calls == [cmd]
