"""Check a recorded trace in one pass.

`Records` reads a trace file one record at a time.  `replay` replays
each step from the decisions of the record at hand, requires the step's
rebuilt record to be that record byte for byte, and then feeds the step
to the checker's folds, so no step outlives its turn.

The replay consumes only the header's workload and the decisions of the
step and fault records.  Those are checked here, and a malformed
value is a ValueError naming its line and key path.  Everything else in
a record is only compared with its replay.  Only `dataplane check`
imports this module.
"""

from __future__ import annotations

import json
from typing import Optional

from . import checker, switch
from .apps import FirewallConfig, SamplerConfig
from .packet_format import BitString
from .switch import EGRESS, INGRESS, Arrival, SwitchQueues, expect, port_from_json


def _key(path: str) -> str:
    return f"key {path!r}"


def header_digest(header: dict, name: str) -> object:
    """The header's digest under name, which must be there."""
    if name not in header:
        raise ValueError(f"{_key(name)} is missing")
    return header[name]


def queues_from_header(header: dict) -> SwitchQueues:
    """The queues a run starts with: the header's workload in q_input,
    and nothing else."""
    q = expect(isinstance(header.get("queues"), dict), header.get("queues"), "an object",
               _key("queues"))
    items = expect(isinstance(q.get("q_input"), list), q.get("q_input"), "a list",
                   _key("queues.q_input"))
    arrivals = []
    for i, item in enumerate(items):
        w = f"queues.q_input[{i}]"
        expect(isinstance(item, list) and len(item) == 2, item, "a pair", _key(w))
        arrivals.append(Arrival(port_from_json(item[0], _key(f"{w}[0]")),
                                BitString.from_json(item[1], _key(f"{w}[1]"))))
    return SwitchQueues(q_input=tuple(arrivals))


_KIND = (lambda v: v in (INGRESS, EGRESS), '"ingress" or "egress"')
_INDEX = (lambda v: v is None or type(v) is int, "an integer or null")
_DECISIONS = {
    "requested_kind": _KIND,
    "kind": _KIND,
    "input_index": _INDEX,
    "admitted_mask": (lambda v: v is None or (isinstance(v, list)
                                              and all(type(b) is bool for b in v)),
                      "a list of true and false or null"),
    "sched_index": _INDEX,
}


def record_decisions(rec: dict) -> dict:
    """The decisions of a step or a fault record.  A step record holds all
    five; a fault record those its step consumed before it faulted, which
    always include the kind it asked for first."""
    step = rec["type"] == "step"
    d = rec.get("decisions") if step else rec.get("decisions", {})
    expect(isinstance(d, dict), d, "an object", _key("decisions"))
    for name, (ok, what) in _DECISIONS.items():
        if name not in d:
            if step or name == "requested_kind":
                raise ValueError(f"{_key(f'decisions.{name}')} is missing")
        elif not ok(d[name]):  # the message is built only for a bad value
            expect(False, d[name], what, _key(f"decisions.{name}"))
    return d


def spec_fold(spec: str, cfg, st) -> Optional[checker.Fold]:
    """The fold of the `--spec` selector; None for the axioms alone.  Only
    the gap of denseflow and firewall is a parameter: every value the
    other specs read is the config's, which the header's digest pins."""
    name, colon, param = spec.partition(":")
    if name not in ("axioms", "langsec", "sampler", "denseflow", "firewall"):
        raise ValueError(f"unknown spec selector {spec!r}")
    want = {"sampler": SamplerConfig, "firewall": FirewallConfig}.get(name)
    if want is not None and not isinstance(cfg.params, want):
        raise ValueError(f"--spec {name} needs a {name} config")
    if name in ("axioms", "langsec", "sampler"):
        if colon:
            raise ValueError(f"--spec {name} takes no parameter, got {spec!r}")
        if name == "axioms":
            return None
        if name == "langsec":
            return checker.LangsecFold(cfg)
        return checker.SamplerFold(st, cfg.params)
    if not param:
        raise ValueError(f"{name} needs a gap, e.g. {name}:64")
    if not (param.isdecimal() and int(param) >= 1):
        raise ValueError(f"--spec {name} takes a whole number of at least 1, got {param!r}")
    n = int(param)
    if name == "denseflow":
        return checker.DenseFlowFold(n)
    window = cfg.params.window
    if n > window:  # the filter promises to remember a flow for the window only
        raise ValueError(f"--spec firewall:{n} is above the config's window of {window}; "
                         f"freshness holds only for a gap up to the window")
    return checker.FreshnessFold(cfg.params, n)


class Records:
    """The records of a trace file opened in binary mode, read one line
    at a time: rec is the record at position pos (the header's is 0),
    decoded from line n of the file, or None past the last one."""

    def __init__(self, fh) -> None:
        self._lines = ((n, line) for n, line in enumerate(fh, 1) if line.strip())
        self.pos = -1
        self.advance()

    def advance(self) -> None:
        self.pos += 1
        self.n, raw = next(self._lines, (None, None))
        self.line = self.rec = None
        try:  # the line alone, so the decoder's column is the column in the line
            if raw is not None:
                self.line = raw.decode()
                self.rec = switch.json_value(self.line.rstrip("\n"))
        except json.JSONDecodeError as e:
            raise ValueError(f"trace line {self.n}: {e.msg}: column {e.colno}") from None
        except ValueError as e:
            raise ValueError(f"trace line {self.n}: {e}") from None
        if self.line is not None and not isinstance(self.rec, dict):
            raise ValueError(f"every trace record must be a JSON object; line {self.n} is not")

    def checked(self, read, *args):
        """read(*args), a ValueError from it prefixed with the line of rec."""
        try:
            return read(*args)
        except ValueError as e:
            raise ValueError(f"trace line {self.n}: {e}") from None


def replay(records: Records, folds, cfg, st, qs) -> tuple:
    """Replay in step with reading the records: each step takes its
    decisions from the record at hand, and the folds take the step once
    its rebuilt record is that record, byte for byte.  Returns (run,
    steps): run is the replayed Run, or None when a record is not
    reproduced, records.pos then being its position; steps counts the
    step records."""
    decisions = iter(lambda: records.checked(record_decisions, records.rec), None)
    run = switch.Run(cfg, st, qs, switch.ReplayOracle(decisions))
    at_step = lambda s, q: records.rec is not None and records.rec.get("type") in ("step", "fault")
    n = 0
    for step, rec in switch.trace_records(
            switch.config_digest(cfg), cfg.app_label, st, qs, run.steps(at_step),
            lambda: (run.fault, run.fault_decisions, run.state, run.queues)):
        if records.rec is None or switch.dump_record(rec) != records.line.strip():
            return None, n
        records.advance()
        if step is None:
            continue
        for fold in folds:
            fold.feed(n, step)
        n += 1
    return (run if records.rec is None else None), n  # nothing after the end
