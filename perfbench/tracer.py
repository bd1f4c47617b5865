"""Spans around the package's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a timing wrapper in
every ``dataplane`` module namespace that binds it (``ingress_pipeline``
is bound in ``switch`` and ``checker``, ``extract`` in ``apps``, ...),
wraps the four decision methods of every oracle class, and wraps the six
component callables of every bundle ``app_from_config`` returns.
``Tracer.restore`` puts every replaced attribute back.  Spans are kept
in memory as (name, start, end, parent) and reduced at the end:
self time is a span's duration minus the durations of its direct
children.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from collections import defaultdict

# defining module -> public functions timed in the traced run
TARGETS = {
    "switch": ("run", "ingress_step", "egress_step", "trace_to_lines",
               "step_to_json", "state_digests", "queue_digests", "digest",
               "write_trace", "read_trace_lines"),
    "engines": ("input_ports", "queue_admission", "replication_engine",
                "packet_scheduler", "output_ports", "packet_generator"),
    "pipeline": ("ingress_pipeline", "egress_pipeline"),
    "apps": ("parse_standard", "deparse_slots", "app_from_config"),
    "packet_format": ("extract", "encode"),
    "checker": ("check_trace", "check_step", "sampler_trace_check",
                "firewall_freshness_check", "dense_flow_check"),
    "cli": ("cmd_sim", "cmd_check"),
}
ORACLE_METHODS = ("step_kind", "input_index", "admitted_subset", "sched_index")


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: list = []
        self.runs: list = []  # every Trace switch.run returned, in order

    def wrap(self, name: str, fn, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            i = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[i] = (name, t0, clock(), parent)
                stack.pop()
            return result if after is None else after(result)
        self._wrappers.append(span)
        return span

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import dataplane.cli  # noqa: F401  (binds every module)
        from dataplane import switch

        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "dataplane" or n.startswith("dataplane.")]
        hooks = {"switch.run": self._keep_run, "apps.app_from_config": self._wrap_bundle}
        for mod_name, names in TARGETS.items():
            home = sys.modules[f"dataplane.{mod_name}"]
            for fn_name in names:
                orig = getattr(home, fn_name)
                name = f"{mod_name}.{fn_name}"
                wrapper = self.wrap(name, orig, hooks.get(name))
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            self._set(m, attr, wrapper)
        for cls in vars(switch).values():
            if (isinstance(cls, type) and issubclass(cls, switch.Oracle)
                    and cls is not switch.Oracle and not cls.__name__.startswith("_")):
                for meth in ORACLE_METHODS:
                    if meth in vars(cls):
                        self._set(cls, meth, self.wrap("switch.oracle", vars(cls)[meth]))

    def restore(self) -> None:
        while self._patched:
            owner, attr, value = self._patched.pop()
            setattr(owner, attr, value)

    def leftovers(self) -> list[str]:
        """Attributes of dataplane modules and classes still holding one
        of this tracer's wrappers; empty once everything is restored."""
        mine = {id(w) for w in self._wrappers}
        out = []
        for n, m in sorted(sys.modules.items()):
            if n == "dataplane" or n.startswith("dataplane."):
                for owner in (m, *(v for v in vars(m).values() if isinstance(v, type))):
                    out += [f"{n}.{a}" for a, v in vars(owner).items() if id(v) in mine]
        return out

    def _keep_run(self, trace):
        self.runs.append(trace)
        return trace

    def _wrap_bundle(self, bundle):
        c = bundle.components
        wrapped = {f.name: self.wrap(f"apps.{f.name}", getattr(c, f.name))
                   for f in dataclasses.fields(c)}
        return dataclasses.replace(bundle, components=dataclasses.replace(c, **wrapped))

    def reduce(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for i, (name, t0, t1, _parent) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
        return dict(out)
