"""Whole-switch step machine with oracle-driven nondeterminism.

A switch run interleaves two step kinds.  An ingress step advances the
clock by one tick, lets the packet generator or the input queue supply
at most one packet, and pushes the ingress pipeline's result through
replication and queue admission into the egress queue.  The mirror
table is empty, so no step moves the mirror buffer q_mirror.  An
egress step freezes the clock, schedules one queued copy through the
egress pipeline, and either transmits it or parks it in the
single-slot recirculation register.

Everything an axiom leaves open (step interleaving, which arrival to
take, which copies to admit, which copy to schedule) is asked of an
Oracle here, by Run.step and the two step functions, and the engines
take the answers.  Each answer goes into the step's one decisions dict
as the oracle gives it, which the TraceStep keeps, so any run can be
replayed decision for decision and audited offline.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional

from . import engines
from .engines import (
    EgressMeta, EngineError, McConfig, OracleOutOfRange, PktGenConfig,
    PktGenState, QacAlwaysReady, QacMinimal, Seq,
)
from .packet_format import BitString
from .pipeline import (
    Components, EgressIndication, EgressParseFailure, TmMeta,
    egress_pipeline, ingress_pipeline,
)
from .records import field, fields, is_record, record

INGRESS = "ingress"
EGRESS = "egress"


@record
class Arrival:
    """One element of the input queue: the wire bits plus the port they
    arrived on."""

    port: int
    packet: BitString


@record
class SwitchState:
    """Slot values are immutable (None or frozen), so a step that keeps
    a slot's object keeps its value, and its digest in the trace."""

    t: int
    s_g: PktGenState
    s_i: tuple  # (parser, control, deparser) ingress state slots
    s_e: tuple  # same for egress


@record
class SwitchQueues:
    """The queues between the engines.  The steps make q_input and
    q_output a Seq, so the snapshots of a run share their chunks."""

    q_input: "tuple[Arrival, ...] | Seq" = ()
    p_recirc: Optional[BitString] = None
    q_mirror: tuple = ()
    q_egress: tuple = ()  # of (EgressMeta, BitString)
    q_output: "tuple | Seq" = ()  # of (port, BitString)


@record
class SwitchConfig:
    """One configured switch; each app builder in `apps` returns one."""

    components: Components
    mc: McConfig = McConfig()
    pktgen: PktGenConfig = PktGenConfig()
    qac: "QacMinimal | QacAlwaysReady" = QacMinimal()
    app_label: str = "custom"
    params: object = None  # the app's config record, in the trace's config digest
    init_ingress: tuple = (None, None, None)  # s_i and s_e of the initial state
    init_egress: tuple = (None, None, None)
    actions: tuple[TmMeta, ...] = ()  # every TmMeta in_control emits; code, not digested


def egress_enabled(qs: SwitchQueues) -> bool:
    return qs.p_recirc is None and len(qs.q_egress) > 0


# ---------------------------------------------------------------------------
# oracles


class Oracle:
    """Decision source resolving every relational choice.  Implementations
    must return in-range indices and masks covering the mandatory set."""

    def step_kind(self, queues: SwitchQueues) -> str:
        raise NotImplementedError

    def input_index(self, n: int) -> int:
        raise NotImplementedError

    def admitted_subset(self, mandatory) -> tuple[bool, ...]:
        raise NotImplementedError

    def sched_index(self, n: int) -> int:
        raise NotImplementedError


class FifoDrainOracle(Oracle):
    """Deterministic baseline: drain egress first, FIFO everywhere,
    admit everything."""

    def step_kind(self, queues):
        return EGRESS if egress_enabled(queues) else INGRESS

    def input_index(self, n):
        return 0

    def admitted_subset(self, mandatory):
        return (True,) * len(mandatory)

    def sched_index(self, n):
        return 0


class RandomOracle(Oracle):
    """Seeded random choices.  With reorder=False the index choices stay
    FIFO while step interleaving and admission remain random; admission
    always covers the mandatory mask."""

    def __init__(self, seed: int, reorder: bool = True, drop_rate: float = 0.3):
        self._rng = random.Random(seed)
        self._reorder = reorder
        self._drop_rate = drop_rate

    def step_kind(self, queues):
        return EGRESS if self._rng.random() < 0.5 else INGRESS

    def input_index(self, n):
        return self._rng.randrange(n) if self._reorder else 0

    def admitted_subset(self, mandatory):
        return tuple(must or self._rng.random() >= self._drop_rate
                     for must in mandatory)

    def sched_index(self, n):
        return self._rng.randrange(n) if self._reorder else 0


class AdversarialDropOracle(FifoDrainOracle):
    """Admits only what the policy forces, drops everything else."""

    def admitted_subset(self, mandatory):
        return tuple(mandatory)


class ReplayOracle(Oracle):
    """Feeds back the decisions recorded in an earlier trace, taking one
    step's decisions from the iterable, which may be lazy, as each step
    begins."""

    def __init__(self, decisions: Iterable[dict]):
        self._decisions = iter(decisions)
        self._cur: dict = {}

    def _recorded(self, key: str):
        v = self._cur.get(key)  # a fault record keeps only what its step consumed
        if v is None:
            # surfaces as a fault, which the replay then records
            raise OracleOutOfRange(f"no recorded {key}")
        return v

    def step_kind(self, queues):
        self._cur = next(self._decisions, None)
        if self._cur is None:
            raise OracleOutOfRange("replay ran out of recorded decisions")
        return self._cur["requested_kind"]

    def input_index(self, n):
        return self._recorded("input_index")

    def admitted_subset(self, mandatory):
        # ingress_step makes the one list of bools
        return self._recorded("admitted_mask")

    def sched_index(self, n):
        return self._recorded("sched_index")


_POLICIES = {"fifo-drain": lambda seed: FifoDrainOracle(),
             "random": RandomOracle,
             "adversarial-drop": lambda seed: AdversarialDropOracle()}
ORACLE_POLICIES = tuple(_POLICIES)


def make_oracle(policy: str, seed: int = 0) -> Oracle:
    if policy not in _POLICIES:
        raise ValueError(f"unknown oracle policy {policy!r}; pick one of {ORACLE_POLICIES}")
    return _POLICIES[policy](seed)


# ---------------------------------------------------------------------------
# trace steps


@record
class IngressDetail:
    p_g: Optional[BitString]
    from_recirc: bool
    in_port: Optional[int]
    p_i: Optional[BitString]
    pipeline_out: Optional[tuple[TmMeta, BitString]]
    m_repl: Optional[tuple[EgressMeta, ...]]
    enqueued: tuple


@record
class EgressDetail:
    scheduled: tuple  # (EgressMeta, BitString)
    indication: EgressIndication
    p_out: BitString


@record
class TraceStep:
    kind: str
    pre_state: SwitchState
    pre_queues: SwitchQueues
    post_state: SwitchState
    post_queues: SwitchQueues
    decisions: dict
    detail: "IngressDetail | EgressDetail"
    # the step's one pipeline call, ((fn, components, args), result):
    # fn(components, *args) gave result.  None when no packet entered a
    # pipeline.  The checker takes result in place of recomputing only
    # when its own key, derived from the pre-state, is this key.
    call: Optional[tuple] = field(None, compare=False, repr=False)


@record
class Trace:
    config_digest: str
    app_label: str
    initial_state: SwitchState
    initial_queues: SwitchQueues
    steps: "list[TraceStep] | _Replayed"
    final_state: SwitchState
    final_queues: SwitchQueues
    fault: Optional[str] = None
    # oracle choices consumed by the step that faulted, if any; without
    # them a replay could not reproduce the fault
    fault_decisions: Optional[dict] = None


# ---------------------------------------------------------------------------
# the two step relations
#
# They build their records positionally.  Building a 5-field record
# with keywords through its generated __new__ takes about 1.8x the
# positional call (0.61 against 0.34 us, medians on a shared 2-vCPU VM,
# Python 3.11), and an ingress step builds four records.


def _finished(decisions: dict, kind: str) -> dict:
    """decisions as a step record holds them: the kind the step took, and
    None for each question it did not ask.  Filled in place: a new dict
    built from it measured about 150 ns slower per step."""
    decisions["kind"] = kind
    for question in ("input_index", "admitted_mask", "sched_index"):
        decisions.setdefault(question, None)
    return decisions


def ingress_step(cfg: SwitchConfig, st: SwitchState, qs: SwitchQueues,
                 o: Oracle, decisions: dict, replication: dict) -> TraceStep:
    """One clock tick of the ingress side.  decisions holds the step kind
    the oracle asked for; each further answer goes into it as the oracle
    gives it, before an engine checks it, so a step that faults leaves
    behind exactly the answers it consumed.  replication is the run's
    engines.replication_table: a TmMeta it maps to an engine error
    raises that error, and one it lacks raises UndeclaredAction.

    Frame: s_e, q_mirror and q_output never change here; t always
    advances by 1, and the register is empty after it.
    """
    p_g, s_g2 = engines.packet_generator(cfg.pktgen, st.t, st.s_g, qs.p_recirc)
    from_recirc = qs.p_recirc is not None

    in_idx = None
    if p_g is None and qs.q_input:
        in_idx = decisions["input_index"] = o.input_index(len(qs.q_input))
    q_input2, in_port, p_i = engines.input_ports(p_g, qs.q_input, in_idx)
    if p_g is not None:
        in_port = cfg.pktgen.source_port

    s_i2 = st.s_i
    out = call = None
    m_repl = None
    enqueued: tuple = ()
    q_egress2 = qs.q_egress

    if p_i is not None:
        comps, t, s_i = cfg.components, st.t, st.s_i
        result = ingress_pipeline(comps, t, in_port, p_i, s_i)
        call = ((ingress_pipeline, comps, (t, in_port, p_i, s_i)), result)
        out, s_i2 = result
        if out is not None:
            tm, raw_out = out
            fixed = replication.get(tm)
            if type(fixed) is not tuple:
                fixed = fixed or engines.UndeclaredAction(f"the app does not declare {tm}")
                raise fixed.with_traceback(None)  # a stored error is raised afresh
            m_repl, mandatory = fixed
            # no copies, no question
            mask = decisions["admitted_mask"] = (
                list(map(bool, o.admitted_subset(mandatory))) if m_repl else [])
            q_egress2 = engines.queue_admission(m_repl, raw_out, qs.q_egress, mandatory, mask)
            enqueued = q_egress2[len(qs.q_egress):]

    st2 = SwitchState(st.t + 1, s_g2, s_i2, st.s_e)
    qs2 = SwitchQueues(q_input2, None, qs.q_mirror, q_egress2, qs.q_output)
    return TraceStep(INGRESS, st, qs, st2, qs2, _finished(decisions, INGRESS),
                     IngressDetail(p_g, from_recirc, in_port, p_i, out, m_repl, enqueued),
                     call)


def egress_step(cfg: SwitchConfig, st: SwitchState, qs: SwitchQueues,
                o: Oracle, decisions: dict) -> TraceStep:
    """Schedule one queued copy through the egress pipeline; only for
    queues where egress_enabled holds.  decisions as for ingress_step.

    Frame: t, s_g, s_i, q_input and q_mirror never change here.
    """
    idx = decisions["sched_index"] = o.sched_index(len(qs.q_egress))
    q_egress2, scheduled = engines.packet_scheduler(qs.q_egress, idx)
    em, p_e = scheduled

    comps, s_e = cfg.components, st.s_e
    result = egress_pipeline(comps, em, p_e, s_e)
    (ind, p_out), s_e2 = result
    q_output2, p_recirc2 = engines.output_ports(qs.q_output, ind, em.egress_port, p_out)

    st2 = SwitchState(st.t, st.s_g, st.s_i, s_e2)
    qs2 = SwitchQueues(qs.q_input, p_recirc2, qs.q_mirror, q_egress2, q_output2)
    return TraceStep(EGRESS, st, qs, st2, qs2, _finished(decisions, EGRESS),
                     EgressDetail(scheduled, ind, p_out),
                     ((egress_pipeline, comps, (em, p_e, s_e)), result))


class Run:
    """A run in progress: the state and queues after the steps taken so
    far.  steps() takes them one oracle-chosen step at a time.  An
    engine error ends it, and fault and fault_decisions then keep the
    error and the oracle choices that step consumed, so a replay can
    reproduce it.

    The replication engine and the admission policy are pure, so for a
    given config they are functions of the TmMeta alone; replication
    tables them for the config's actions as the run starts, and lives
    no longer than the run."""

    def __init__(self, cfg: SwitchConfig, st: SwitchState, qs: SwitchQueues,
                 o: Oracle) -> None:
        self.cfg, self.oracle = cfg, o
        self.state, self.queues = st, qs
        self.replication = engines.replication_table(cfg.mc, cfg.qac, cfg.actions)
        self.fault: Optional[str] = None
        self.fault_decisions: Optional[dict] = None

    def step(self) -> Optional[TraceStep]:
        """Take one oracle-chosen enabled step.  An egress request while
        egress is not enabled falls back to ingress and is recorded as
        such; ingress is always enabled."""
        cfg, st, qs, o = self.cfg, self.state, self.queues, self.oracle
        decisions: dict = {}  # the step's answers, in the order it asks
        try:
            requested = decisions["requested_kind"] = o.step_kind(qs)
            if requested == EGRESS and egress_enabled(qs):
                step = egress_step(cfg, st, qs, o, decisions)
            else:
                step = ingress_step(cfg, st, qs, o, decisions, self.replication)
        except (EngineError, EgressParseFailure) as e:
            self.fault = f"{type(e).__name__}: {e}"
            self.fault_decisions = decisions
            return None
        self.state, self.queues = step.post_state, step.post_queues
        return step

    def steps(self, more: Callable[[SwitchState, SwitchQueues], bool]
              ) -> Iterator[TraceStep]:
        """The run's steps, each taken only when the next one is asked
        for, while more(state, queues) holds and no step faults."""
        while more(self.state, self.queues) and (step := self.step()) is not None:
            yield step


def run(cfg: SwitchConfig, init_state: SwitchState, init_queues: SwitchQueues,
        n_steps: int, o: Oracle,
        stop_when: Optional[Callable[[SwitchState, SwitchQueues], bool]] = None,
        sink: Optional[Callable[[str], object]] = None) -> Trace:
    """Take up to n_steps steps of a Run and keep them in a Trace.

    Stops early when stop_when(state, queues) turns true.  An engine
    error aborts the run; the partial trace is kept and the fault
    stored on the returned Trace.

    Given sink, each line of the trace file goes to sink as soon as its
    step is taken, and only each step's decisions are kept: the Trace's
    steps is then a _Replayed view of them.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be >= 0")
    r = Run(cfg, init_state, init_queues, o)
    more = (lambda st, qs: True) if stop_when is None else (lambda st, qs: not stop_when(st, qs))
    taken = islice(r.steps(more), n_steps)
    cfg_digest = config_digest(cfg)
    if sink is None:
        steps = list(taken)
    else:
        decisions = []
        for step, rec in trace_records(cfg_digest, cfg.app_label, init_state, init_queues, taken,
                                       lambda: (r.fault, r.fault_decisions, r.state, r.queues)):
            if step is not None:
                decisions.append(step.decisions)
            sink(dump_record(rec) + "\n")
        steps = _Replayed(cfg, init_state, init_queues, decisions)
    return Trace(config_digest=cfg_digest, app_label=cfg.app_label,
                 initial_state=init_state, initial_queues=init_queues,
                 steps=steps, final_state=r.state, final_queues=r.queues, fault=r.fault,
                 fault_decisions=r.fault_decisions)


class _Replayed:
    """The steps of a streamed run, rebuilt from its decisions: len() is
    the number of steps, and each iteration replays the run through a
    ReplayOracle, so a second pass pays for the whole run again."""

    def __init__(self, cfg: SwitchConfig, st: SwitchState, qs: SwitchQueues,
                 decisions: list[dict]) -> None:
        self._start = cfg, st, qs
        self._decisions = decisions

    def __len__(self) -> int:
        return len(self._decisions)

    def __iter__(self) -> Iterator[TraceStep]:
        r = Run(*self._start, ReplayOracle(self._decisions))
        return islice(r.steps(lambda st, qs: True), len(self._decisions))


# ---------------------------------------------------------------------------
# canonical encoding and digests

try:  # the interpreter's own sha256, tried first as random does: hashlib loads OpenSSL
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))  # as json.dumps with these


def _n4(n: int) -> bytes:
    return n.to_bytes(4, "big")


@lru_cache(maxsize=None)
def _record_head(cls: type) -> tuple:
    """(the head of cls's encoding: its tag, length-prefixed class name
    and field count; cls's field names)"""
    if not is_record(cls):
        raise TypeError(f"cannot canonicalize {cls.__name__}")
    names = tuple(f.name for f in fields(cls))
    name = cls.__name__.encode()
    return b"r" + _n4(len(name)) + name + _n4(len(names)), names


def _encode(obj, out: list) -> None:
    """Append obj's canonical bytes to out: a tag byte, then a body that
    says where it ends.  An int is its length, then its signed big-endian
    bytes; a str its length, then its UTF-8; a BitString its nbits, then
    its value in (nbits + 7) // 8 bytes; a tuple or Seq its count, then
    its items; a frozenset, or a dict's key-value pairs, its count, then
    the items' encodings in sorted order; a record its class
    name and field count, then its fields in order.  So equal values
    encode equally, a Seq as its tuple, and distinct values distinctly,
    an int as wide as a firewall pane in time linear in its width."""
    t = type(obj)
    if t is int:
        body = obj.to_bytes((obj.bit_length() + 8) >> 3, "big", signed=True)
        out.append(b"i" + _n4(len(body)) + body)
    elif t is BitString:
        n = obj.nbits
        out.append(b"b" + _n4(n) + obj.value.to_bytes((n + 7) >> 3, "big"))
    elif t is tuple or t is Seq:
        out.append(b"q" + _n4(len(obj)))
        for x in obj:
            _encode(x, out)
    elif t is str:
        body = obj.encode()
        out.append(b"s" + _n4(len(body)) + body)
    elif obj is None:
        out.append(b"n")
    elif t is bool:
        out.append(b"T" if obj else b"F")
    elif t is dict:
        out.append(b"d" + _n4(len(obj)))
        out.extend(sorted(canonical_bytes(k) + canonical_bytes(v) for k, v in obj.items()))
    elif t is frozenset:
        out.append(b"e" + _n4(len(obj)))
        out.extend(sorted(map(canonical_bytes, obj)))
    else:
        head, names = _record_head(t)
        out.append(head)
        for name in names:
            _encode(getattr(obj, name), out)


def canonical_bytes(obj) -> bytes:
    """obj's canonical encoding (see _encode), which digest hashes."""
    out: list = []
    _encode(obj, out)
    return b"".join(out)


def digest(obj) -> str:
    return _sha256(canonical_bytes(obj)).hexdigest()[:16]


def config_digest(cfg: SwitchConfig) -> str:
    """Digest of every decoded config value (the components are code)."""
    return digest({"app": cfg.app_label, "params": cfg.params,
                   "mc": cfg.mc, "pktgen": cfg.pktgen, "qac": cfg.qac})


def _state_slots(st: SwitchState) -> dict:
    return {"s_g": st.s_g, "s_ip": st.s_i[0], "s_ic": st.s_i[1], "s_id": st.s_i[2],
            "s_ep": st.s_e[0], "s_ec": st.s_e[1], "s_ed": st.s_e[2]}


def state_digests(st: SwitchState, pre: Optional[SwitchState] = None) -> dict:
    """The clock and a digest of every state slot, or, given pre, of every
    slot whose object is not pre's: slot values are immutable, so a kept
    object is a kept value."""
    pre_slots = _state_slots(pre) if pre is not None else {}
    out = {"t": st.t}
    for name, obj in _state_slots(st).items():
        if name not in pre_slots or pre_slots[name] is not obj:
            out[name] = digest(obj)
    return out


def _lens(qs: SwitchQueues) -> list:
    return [len(qs.q_input), len(qs.q_egress), len(qs.q_output)]


def queue_digests(qs: SwitchQueues) -> dict:
    """A digest of every whole queue, the recirculation register and the
    queue lengths; linear in the queue contents, so traces use it only
    in the end record."""
    return {
        "q_input": digest(qs.q_input),
        "q_egress": digest(qs.q_egress),
        "q_output": digest(qs.q_output),
        "p_recirc": _opt_hex(qs.p_recirc),
        "lens": _lens(qs),
    }


# ---------------------------------------------------------------------------
# trace file format: one JSON object per line
#
# Format 7.  A record holds no constant and nothing that its other fields
# give without running a component or an engine.  The header names only
# what a run can vary: the config (its digest and app), the start state
# (its digest, which pins the clock) and the workload (q_input).  Every
# other queue starts empty and the register free, so the header writes
# none of them.  Each step record holds its post snapshot only: the clock,
# the digests of the state slots whose object the step replaced, and the
# queue lengths.  Its pre snapshot is the previous record's post (the
# header for step 0), and its queue change is a delta in the decisions and
# the detail (consumed arrival, admitted copies, scheduled copy, emitted
# or recirculated packet).  The end record digests the whole final queues
# once.  Replay byte-compares every record, so an edit anywhere shows as a
# divergence.  A digest is the first 16 hex digits of the sha256 of the
# value's canonical bytes (see _encode).

TRACE_FORMAT = 7


def _opt_hex(p: Optional[BitString]):
    return None if p is None else p.to_json()


def _em_json(em: EgressMeta) -> dict:
    return {"port": em.egress_port, "rid": em.rid, "source": em.source}


def _canon(tm: TmMeta) -> dict:
    """A TmMeta's JSON view in a step record: its class name, then its
    fields, each an int or None."""
    return {"__kind": type(tm).__name__,
            **{f.name: getattr(tm, f.name) for f in fields(tm)}}


# an app emits only its few declared actions, so each TmMeta's record is
# built once; the records share it and nothing writes to it
_tm_canon = lru_cache(maxsize=64)(_canon)


def step_to_json(step: TraceStep) -> dict:
    """The step's record.  The kind is decisions.kind; the generated
    packet is p_i when no input index was asked; the copies the step
    enqueued are the m_repl entries the admitted mask keeps, each with
    raw_out; and the register after it holds p_out when recirculate is
    set, and nothing otherwise."""
    rec = {
        "type": "step",
        "decisions": step.decisions,  # plain JSON already
        "post": {**state_digests(step.post_state, step.pre_state),
                 "lens": _lens(step.post_queues)},
    }
    d = step.detail
    if step.kind == INGRESS:
        rec["detail"] = {"from_recirc": d.from_recirc, "in_port": d.in_port,
                         "p_i": _opt_hex(d.p_i)}
        if d.pipeline_out is not None:  # parsed exactly when tm_meta is there
            tm, raw_out = d.pipeline_out
            rec["detail"]["tm_meta"] = _tm_canon(tm)
            rec["detail"]["raw_out"] = raw_out.to_json()
            rec["detail"]["m_repl"] = [_em_json(em) for em in d.m_repl]
    else:
        em, p_e = d.scheduled
        rec["detail"] = {
            "scheduled": [_em_json(em), p_e.to_json()],
            "recirculate": d.indication.recirculate,
            "p_out": d.p_out.to_json(),
        }
    return rec


def header_record(config_digest: str, app_label: str, initial_state: SwitchState,
                  initial_queues: SwitchQueues) -> dict:
    """Raises ValueError for a run that started with anything queued
    besides the workload, which the header cannot say."""
    q = initial_queues
    if q.p_recirc is not None or q.q_mirror or q.q_egress or q.q_output:
        raise ValueError("a trace can record only a run that starts with the workload "
                         "alone queued")
    return {
        "type": "header",
        "format": TRACE_FORMAT,
        "config_digest": config_digest,
        "app": app_label,
        "state_digest": digest(initial_state),
        "queues": {"q_input": [[a.port, a.packet.to_json()] for a in q.q_input]},
    }


def dump_record(rec: dict) -> str:
    """A record's line in the trace file: canonical JSON."""
    return _JSON.encode(rec)


def trace_records(config_digest: str, app_label: str, initial_state: SwitchState,
                  initial_queues: SwitchQueues, steps: Iterable[TraceStep],
                  end: Callable[[], tuple]) -> Iterator[tuple]:
    """The records of a run, in file order, each as (step, record): the
    header, one record per step of steps, which may be lazy, a fault
    record if the run faulted, then the end record.  step is None but
    for step records.  Once steps is used up, end() gives the run's
    (fault, fault_decisions, final_state, final_queues)."""
    yield None, header_record(config_digest, app_label, initial_state, initial_queues)
    n = 0
    for n, step in enumerate(steps, 1):
        yield step, step_to_json(step)
    fault, fault_decisions, final_state, final_queues = end()
    if fault is not None:
        yield None, {"type": "fault", "error": fault, "decisions": fault_decisions or {}}
    # the number of outputs is final_queues.lens[2]
    yield None, {"type": "end", "steps": n, "final_state_digest": digest(final_state),
                 "final_queues": queue_digests(final_queues)}


def trace_to_lines(trace: Trace) -> list[str]:
    return [dump_record(rec) for _, rec in trace_records(
        trace.config_digest, trace.app_label, trace.initial_state, trace.initial_queues,
        trace.steps, lambda: (trace.fault, trace.fault_decisions, trace.final_state,
                              trace.final_queues))]


def write_trace(trace: Trace, path: str) -> None:
    lines = trace_to_lines(trace)  # before the file exists: a ValueError leaves none
    with open(path, "w") as fh:
        for line in lines:
            fh.write(line + "\n")


def read_trace_lines(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


# ---------------------------------------------------------------------------
# values read back from workload and trace files


def json_value(text: str):
    """json.loads(text).  Text nested too deeply for the decoder, which
    recurses once a level, is a ValueError, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON nested too deeply") from None


def expect(ok: bool, v, what: str, where: str):
    """v when ok holds, else a ValueError saying what `where` must be."""
    if not ok:
        raise ValueError(f"{where} must be {what}, got {v!r}")
    return v


def port_from_json(v, where: str) -> int:
    expect(type(v) is int, v, "an integer", where)  # a bool is not a port
    return expect(0 <= v < 512, v, "in 0..511", where)
