"""Relational trace checker.

Every switch step is replayed against the transition relation, clause
by clause, from the recorded pre-state alone.  A violation names the
clause that failed, so a forged or corrupted trace is pinned to the
exact frame condition or engine equation it breaks.  On top of the
per-step axioms sit whole-trace checks: the sampler's input/output
relation, the malformed-input isolation property, parser
obliviousness, and the firewall's freshness guarantee.  Those over a
trace are folds over its steps, so a replay can run them as it goes.

The pipeline clauses derive each pipeline's inputs from the pre-state.
When the step's recorded call (``TraceStep.call``) has that same key,
the same function on the same components and arguments, its result
stands in for running the pipeline again: the components are
deterministic (see `pipeline`), so a rerun could only agree.  Otherwise
the pipeline runs.  The call is believed as the record of a real call:
a trace file carries none, so `dataplane check` only sees calls its own
replay made, but a step built by hand must not carry a call whose
result nobody computed.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, NamedTuple, Optional, Sequence

from . import engines
from .apps import KEEPALIVE_ETHERTYPE
from .headers import (
    ETHERNET, INTRINSIC_META, IP_PROTO_TCP, IP_PROTO_UDP, IPV4, PORT_META, TCP, UDP,
    deparse_slots, make_sample,
)
from .packet_format import BitString, Format, HeaderType, encode, report_matcher
from .pipeline import egress_pipeline, ingress_pipeline
from .records import record, replace
from .switch import EGRESS, INGRESS, SwitchConfig, Trace, TraceStep


@record
class Verdict:
    ok: bool
    violated_clause: Optional[str] = None
    detail: str = ""
    step: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


OK = Verdict(True)


def _bad(clause: str, detail: str = "", step: Optional[int] = None) -> Verdict:
    """The failing verdict of a registered clause."""
    if clause not in ALL_CLAUSES:
        raise KeyError(f"unregistered clause {clause!r}")
    return Verdict(False, clause, detail, step)


# Stable ids for every checkable clause.  Tests pin this set; renaming
# an id is a breaking change for stored verdicts.
CLAUSES = {
    "ingress.clock": "t advances by exactly one tick",
    "ingress.frame.s_e": "egress component states untouched",
    "ingress.frame.q_output": "output queue untouched",
    "ingress.pktgen_behavior": "generator output, register drain and state follow the timer relation",
    "ingress.input_ports": "input queue loses exactly the consumed arrival, nothing else",
    "ingress.no_packet_frame": "with no packet, only t and the generator state may move",
    "ingress.reject_isolation": "a parser reject leaves control/deparser state and all queues alone",
    "ingress.pipeline": "ingress parser/control/deparser recomputation matches the recorded states",
    "ingress.mirror_empty": "mirror buffer stays empty under the empty mirror table",
    "ingress.undeclared_action": "the control emits only actions its app declares, each with copies",
    "ingress.replication": "every enqueued copy comes from the replication walk with the deparsed bits",
    "ingress.qac_prefix": "previously queued copies survive admission in place",
    "ingress.qac_subsequence": "admitted copies are an in-order subsequence of the replication output",
    "ingress.qac_mandatory": "copies to always-ready ports are never dropped",
    "egress.enabled": "egress requires an empty recirculation register and a nonempty queue",
    "egress.clock": "t does not move on egress",
    "egress.frame.s_g": "generator state untouched on egress",
    "egress.frame.s_i": "ingress component states untouched on egress",
    "egress.frame.q_input": "input queue untouched on egress",
    "egress.frame.q_mirror": "mirror buffer untouched on egress",
    "egress.scheduler_split": "exactly one queued copy leaves the egress queue",
    "egress.pipeline": "egress parser/control/deparser recomputation matches the recorded states",
    "egress.output_ports": "the result is transmitted or recirculated, never both or neither",
    "trace.continuity": "each step starts from the previous step's post-state",
    "trace.step_kind": "step kind is one of the two defined kinds",
    "trace.divergence": "a recorded step disagrees with decision-for-decision replay",
}


# ---------------------------------------------------------------------------
# per-step axioms


def check_step(cfg: SwitchConfig, step: TraceStep, replication: dict) -> Verdict:
    """The step's per-step clauses.  replication is cfg's
    engines.replication_table; it is required, so the steps of one trace
    share one table."""
    if step.kind == INGRESS:
        return _check_ingress(cfg, step, replication)
    if step.kind == EGRESS:
        return _check_egress(cfg, step)
    return _bad("trace.step_kind", f"kind {step.kind!r}")


def _check_ingress(cfg: SwitchConfig, step: TraceStep, replication: dict) -> Verdict:
    pre_s, pre_q = step.pre_state, step.pre_queues
    post_s, post_q = step.post_state, step.post_queues

    if post_s.t != pre_s.t + 1:
        return _bad("ingress.clock", f"{pre_s.t} -> {post_s.t}")
    if post_s.s_e != pre_s.s_e:
        return _bad("ingress.frame.s_e")
    if post_q.q_output != pre_q.q_output:
        return _bad("ingress.frame.q_output")

    p_g, s_g2 = engines.packet_generator(cfg.pktgen, pre_s.t, pre_s.s_g, pre_q.p_recirc)
    if post_s.s_g != s_g2 or post_q.p_recirc is not None:
        return _bad("ingress.pktgen_behavior", f"expected s_g={s_g2}, register=None")

    # which packet entered the pipeline, and what must q_input become
    if p_g is not None:
        if post_q.q_input != pre_q.q_input:
            return _bad("ingress.input_ports",
                        "queue must not move when the generator supplies the packet")
        p_i, in_port = p_g, cfg.pktgen.source_port
    elif not pre_q.q_input:
        if post_q.q_input != pre_q.q_input:
            return _bad("ingress.input_ports", "queue changed while empty")
        p_i, in_port = None, None
    else:
        removed = _removed_item(pre_q.q_input, post_q.q_input, step.decisions.get("input_index"))
        if removed is None:
            return _bad("ingress.input_ports",
                        "post queue is not the pre queue minus one arrival")
        p_i, in_port = removed.packet, removed.port

    if p_i is None:
        if (post_s.s_i != pre_s.s_i or post_q.q_egress != pre_q.q_egress
                or post_q.q_mirror != pre_q.q_mirror):
            return _bad("ingress.no_packet_frame")
        return OK

    out, s_i2 = _pipeline_result(step, ingress_pipeline, cfg.components,
                                 (pre_s.t, in_port, p_i, pre_s.s_i))
    if post_s.s_i != s_i2:
        return _bad("ingress.pipeline", "component states diverge on recomputation")

    if out is None:
        if post_q.q_egress != pre_q.q_egress or post_q.q_mirror != pre_q.q_mirror:
            return _bad("ingress.reject_isolation", "queues moved on a parser reject")
        return OK

    tm, raw_out = out
    if post_q.q_mirror != ():
        return _bad("ingress.mirror_empty")

    fixed = replication.get(tm)
    if type(fixed) is not tuple:
        return _bad("ingress.undeclared_action", f"{tm}: {fixed or 'not declared'}")
    copies, mandatory = fixed
    candidates = tuple((em, raw_out) for em in copies)

    n = len(pre_q.q_egress)
    if post_q.q_egress[:n] != pre_q.q_egress:
        return _bad("ingress.qac_prefix")
    appended = post_q.q_egress[n:]
    for em, p in appended:
        if (em, p) not in candidates:
            return _bad("ingress.replication",
                        f"copy to port {em.egress_port} not produced by replication")
    kept = _subsequence_mask(appended, candidates)
    if sum(kept) != len(appended):
        return _bad("ingress.qac_subsequence", "admitted copies out of order")
    for must, got in zip(mandatory, kept):
        if must and not got:
            return _bad("ingress.qac_mandatory")
    return OK


def _check_egress(cfg: SwitchConfig, step: TraceStep) -> Verdict:
    pre_s, pre_q = step.pre_state, step.pre_queues
    post_s, post_q = step.post_state, step.post_queues

    if pre_q.p_recirc is not None or not pre_q.q_egress:
        return _bad("egress.enabled")
    if post_s.t != pre_s.t:
        return _bad("egress.clock")
    if post_s.s_g != pre_s.s_g:
        return _bad("egress.frame.s_g")
    if post_s.s_i != pre_s.s_i:
        return _bad("egress.frame.s_i")
    if post_q.q_input != pre_q.q_input:
        return _bad("egress.frame.q_input")
    if post_q.q_mirror != pre_q.q_mirror:
        return _bad("egress.frame.q_mirror")

    # removing i or j can give the same queue only when every copy from
    # i to j is equal, so one index explaining the post queue decides
    removed = _removed_item(pre_q.q_egress, post_q.q_egress, step.decisions.get("sched_index"))
    if removed is None:
        return _bad("egress.scheduler_split",
                    "post queue is not the pre queue minus one copy")
    em, p_e = removed
    (ind, p_out), s_e2 = _pipeline_result(step, egress_pipeline, cfg.components,
                                          (em, p_e, pre_s.s_e))
    if post_s.s_e != s_e2:
        return _bad("egress.pipeline", "component states diverge on recomputation")
    if ind.recirculate:
        if post_q.p_recirc == p_out and post_q.q_output == pre_q.q_output:
            return OK
    elif (post_q.p_recirc is None
          and post_q.q_output == engines.Seq.of(pre_q.q_output) + ((em.egress_port, p_out),)):
        return OK
    return _bad("egress.output_ports",
                "neither transmission nor recirculation explains the post queues")


def _pipeline_result(step: TraceStep, fn, comps, args):
    """fn(comps, *args): the result of the step's own call when that call
    has this key, else a fresh run.  Tuple equality tests identity first,
    so on an honest step the key compares by a few pointer checks."""
    call = step.call
    if call is not None and call[0] == (fn, comps, args):
        return call[1]
    return fn(comps, *args)


def _removed_item(before, after, hint):
    """The item whose removal from before leaves after, trying index hint
    first; None when no removal does.  A Seq removes through pop, so the
    rest shares its chunks with after when both come from one removal."""
    if isinstance(before, engines.Seq):
        pop = before.pop
    else:
        pop = lambda i: (before[:i] + before[i + 1:], before[i])
    n = len(before)
    if isinstance(hint, int) and 0 <= hint < n:
        rest, item = pop(hint)
        if rest == after:
            return item
    for i in range(n):
        rest, item = pop(i)
        if rest == after:
            return item
    return None


def _subsequence_mask(sub: Sequence, seq: Sequence) -> tuple[bool, ...]:
    """Greedy left-to-right embedding of sub into seq as a mask over seq;
    sub embeds in seq exactly when the mask keeps len(sub) elements.
    Greedy is enough here: elements are compared by equality, so taking
    the earliest possible match never blocks a later one."""
    mask = [False] * len(seq)
    j = 0
    for x in sub:
        while j < len(seq) and seq[j] != x:
            j += 1
        if j == len(seq):
            return tuple(mask)
        mask[j] = True
        j += 1
    return tuple(mask)


# ---------------------------------------------------------------------------
# whole-trace checks as folds over the step stream


class Fold:
    """A whole-trace check fed one step at a time.  feed(i, step) takes
    the steps in order and hands each to step(i, step), which returns
    None, or the violation, after which the fold takes no more steps.
    finish(final_state, final_queues) gives the verdict.  A fold holds
    only what its property needs, so a replay can audit a trace without
    keeping its steps."""

    verdict = OK

    def feed(self, i: int, step: TraceStep) -> None:
        if self.verdict.ok:
            v = self.step(i, step)
            if v is not None:
                self.verdict = v

    def finish(self, final_state, final_queues) -> Verdict:
        return self.verdict


def fold_trace(fold: Fold, trace: Trace) -> Verdict:
    """The fold's verdict on a whole Trace."""
    for i, step in enumerate(trace.steps):
        fold.feed(i, step)
    return fold.finish(trace.final_state, trace.final_queues)


class AxiomsFold(Fold):
    """Continuity plus every per-step clause; first violation wins.  The
    fold builds its own replication table for check_step when it starts,
    from the config's declared actions, never from the trace."""

    def __init__(self, cfg: SwitchConfig, initial_state, initial_queues) -> None:
        self.cfg = cfg
        self.replication = engines.replication_table(cfg.mc, cfg.qac, cfg.actions)
        self.prev = (initial_state, initial_queues)
        self.n = 0  # steps taken

    def step(self, i, step):
        prev_s, prev_q = self.prev
        if step.pre_state != prev_s or step.pre_queues != prev_q:
            return _bad("trace.continuity", "step does not start at the previous post-state", i)
        v = check_step(self.cfg, step, self.replication)
        if not v:
            return replace(v, step=i)
        self.prev = (step.post_state, step.post_queues)
        self.n = i + 1
        return None

    def finish(self, final_state, final_queues):
        if self.verdict and (final_state, final_queues) != self.prev:
            return _bad("trace.continuity", "final snapshot diverges", self.n)
        return self.verdict


def check_trace(cfg: SwitchConfig, trace: Trace) -> Verdict:
    return fold_trace(AxiomsFold(cfg, trace.initial_state, trace.initial_queues), trace)


# ---------------------------------------------------------------------------
# wire fields of the standard layout
#
# The app specs below read the few fields they need straight off the
# wire, at offsets taken from the header declarations, so that they do
# not run the parser of the program they judge.

_ETHERNET_AT = INTRINSIC_META.total_width + PORT_META.total_width
_IPV4_AT = _ETHERNET_AT + ETHERNET.total_width
_L4_AT = _IPV4_AT + IPV4.total_width


def _field(at: int, htype: HeaderType, fname: str) -> tuple[int, int]:
    """(end, mask) of field fname of an htype header at bit offset at: in
    a packet of n bits, n >= end, it is value >> (n - end) & mask."""
    shift, mask = htype.layout[fname]
    return at + htype.total_width - shift, mask


_ETHERTYPE = _field(_ETHERNET_AT, ETHERNET, "ethertype")
_PROTOCOL = _field(_IPV4_AT, IPV4, "protocol")
_SRC = _field(_IPV4_AT, IPV4, "src")
_DST = _field(_IPV4_AT, IPV4, "dst")
# IPv4 protocol -> (end of its L4 header, source port, destination port)
_L4 = {proto: (_L4_AT + h.total_width, _field(_L4_AT, h, "src_port"),
               _field(_L4_AT, h, "dst_port"))
       for proto, h in ((IP_PROTO_TCP, TCP), (IP_PROTO_UDP, UDP))}


class WireFields(NamedTuple):
    ethertype: int
    protocol: int
    src: int
    dst: int
    ports: Optional[tuple[int, int]]  # (source, destination) of TCP or UDP, else None
    end: int  # bits up to the payload


def wire_fields(p: BitString) -> Optional[WireFields]:
    """The fields the app specs read of a packet in the standard layout;
    None exactly where STANDARD_FORMAT rejects it, when p is too short
    for the fixed headers or for the TCP or UDP header its protocol
    names."""
    v, n = p.value, p.nbits
    if n < _L4_AT:
        return None
    (e_end, e_mask), (p_end, p_mask) = _ETHERTYPE, _PROTOCOL
    (s_end, s_mask), (d_end, d_mask) = _SRC, _DST
    proto = v >> (n - p_end) & p_mask
    l4 = _L4.get(proto)
    if l4 is None:
        ports, end = None, _L4_AT
    else:
        end, (sp_end, sp_mask), (dp_end, dp_mask) = l4
        if n < end:
            return None
        ports = (v >> (n - sp_end) & sp_mask, v >> (n - dp_end) & dp_mask)
    return WireFields(v >> (n - e_end) & e_mask, proto, v >> (n - s_end) & s_mask,
                      v >> (n - d_end) & d_mask, ports, end)


def five_tuple_key(w: WireFields, inbound: bool) -> Optional[int]:
    """The flow of a TCP or UDP packet as one integer, oriented as seen
    from the outside and packed as the firewall packs it; None for
    other traffic."""
    if w.ports is None:
        return None
    src, dst, (sp, dp) = w.src, w.dst, w.ports
    if not inbound:
        src, dst, sp, dp = dst, src, dp, sp
    return (src << 80) | (dst << 48) | (sp << 32) | (dp << 16) | w.protocol


# ---------------------------------------------------------------------------
# sampler input/output relation


def expected_sample_packet(count: int, p_in: BitString) -> BitString:
    """The monitor copy: sample record built from p_in's addressing
    fields, tagged with the global count, followed by p_in's payload."""
    w = wire_fields(p_in)
    sp, dp = w.ports or (0, 0)
    rec = make_sample(src_addr=w.src, dst_addr=w.dst, src_port=sp, dst_port=dp,
                      sample_count=count)
    return encode(rec) + p_in.drop(w.end)


def expected_outputs(n: int, inputs: Sequence[BitString], scfg) -> list[tuple]:
    """The complete (port, bits) stream the inputs call for: per input i
    (1-based), its original bytes on the forward port, then, when its
    count (n+i) mod 2^32 is a sampling multiple, its monitor copy."""
    expected = []
    count = n
    for p in inputs:
        count = (count + 1) % (1 << 32)
        expected.append((scfg.forward_port, p))
        if count % scfg.sample_every == 0:
            expected.append((scfg.monitor_port, expected_sample_packet(count, p)))
    return expected


def sampler_spec_check(n: int, inputs: Sequence[BitString], outputs: Sequence[tuple], scfg,
                       *, require_complete: bool = False, ordered: bool = True) -> Verdict:
    """Decide the sampler's input/output relation: the outputs must be a
    subsequence of expected_outputs; admission drops and in-flight
    packets only shorten it.  The greedy embedding is exact, as
    _subsequence_mask says; the tests corroborate it against a quadratic
    reachability table.  When ordered is false, a scheduler that may
    pick any queued copy also permutes the stream, so the outputs need
    only be a sub-multiset of it.  With require_complete the outputs
    must be the whole expected stream.
    """
    expected = expected_outputs(n, inputs, scfg)
    if ordered:
        k = sum(_subsequence_mask(outputs, expected))
    else:
        k = _submultiset_prefix(outputs, expected)
    if k < len(outputs):
        # outputs before k matched, so only output k's port is in doubt
        port = outputs[k][0]
        if port not in (scfg.forward_port, scfg.monitor_port):
            return _bad("sampler.unexpected_port", f"port {port}", k)
        return _bad("sampler.stream", f"output {k} aligns with no expected packet", k)
    if require_complete and len(outputs) != len(expected):
        return _bad("sampler.incomplete", f"{len(outputs)} outputs for {len(expected)} expected")
    return OK


def _submultiset_prefix(sub: Sequence, seq: Sequence) -> int:
    """How many leading items of sub each find an item of seq equal to
    it that no earlier one took; len(sub) exactly when sub is a
    sub-multiset of seq."""
    left = Counter(seq)
    for k, x in enumerate(sub):
        if not left[x]:
            return k
        left[x] -= 1
    return len(sub)


class SamplerFold(Fold):
    """The sampler relation: keeps the parsed inputs in consumption order
    and judges them against the transmitted outputs at the end.  The
    counts follow that order, whichever arrival a step takes.  When
    every egress step took the head of q_egress, the outputs keep the
    order of their inputs; otherwise the scheduler permuted them, and
    only their multiset is judged.  The outputs must also be
    complete, every expected packet emitted, when no admission dropped
    a copy and the run ends with nothing queued for egress or
    recirculation."""

    def __init__(self, initial_state, scfg) -> None:
        self.count = initial_state.s_i[1].counter
        self.inputs: list[BitString] = []
        self.scfg = scfg
        self.dropped = False  # some admission kept fewer copies than replication made
        self.in_order = True  # every egress step took the head of q_egress

    def step(self, i, step):
        d = step.detail
        if step.kind == EGRESS:
            # by position: taking a later copy equal to the head still
            # reorders the copies left behind
            q = step.pre_queues.q_egress
            self.in_order = self.in_order and step.post_queues.q_egress == q[1:]
        elif step.kind == INGRESS and d.p_i is not None and d.pipeline_out is not None:
            self.inputs.append(d.p_i)
            self.dropped = self.dropped or len(d.enqueued) < len(d.m_repl)

    def finish(self, final_state, final_queues):
        q = final_queues
        complete = not self.dropped and not q.q_egress and q.p_recirc is None
        return sampler_spec_check(self.count, self.inputs, q.q_output, self.scfg,
                                  require_complete=complete, ordered=self.in_order)


def sampler_trace_check(trace: Trace, scfg) -> Verdict:
    return fold_trace(SamplerFold(trace.initial_state, scfg), trace)


SAMPLER_CLAUSES = {
    "sampler.stream": "outputs align in order with the expected forward/monitor sequence",
    "sampler.unexpected_port": "no copy leaves on an unconfigured port",
    "sampler.incomplete": "a complete run must emit every expected packet",
}


# ---------------------------------------------------------------------------
# malformed-input isolation


class LangsecFold(Fold):
    """Malformed-input isolation: on a step whose input the parser
    rejects, or that takes no input, nothing but the clock, the parser
    state slot and q_input may move, and q_input loses at most one
    arrival.  The generator's state moves too when the rejected packet
    is the generator's own.  A parsed input belongs to the program and
    passes; an egress step passes once some input has parsed, and
    before that implies something malformed was admitted."""

    def __init__(self, cfg: SwitchConfig) -> None:
        self.generator = cfg.pktgen.enabled
        self.parsed = False  # some input parsed, so copies may be queued for egress

    def step(self, i, step):
        if step.kind != INGRESS:
            if self.parsed:
                return None
            return _bad("langsec.queue_frame", "an egress step implies something was admitted", i)
        d = step.detail
        if d.pipeline_out is not None:
            self.parsed = True
            return None
        pre_s, post_s = step.pre_state, step.post_state
        pre_q, post_q = step.pre_queues, step.post_queues
        generated = self.generator and d.p_g is not None and not d.from_recirc
        if ((post_s.s_g != pre_s.s_g and not generated) or post_s.s_e != pre_s.s_e
                or post_s.s_i[1] != pre_s.s_i[1] or post_s.s_i[2] != pre_s.s_i[2]):
            return _bad("langsec.state_frame", "a non-parser state slot moved", i)
        if (post_q.q_egress != pre_q.q_egress or post_q.q_output != pre_q.q_output
                or post_q.q_mirror != pre_q.q_mirror or post_q.p_recirc is not None):
            return _bad("langsec.queue_frame", "a queue other than q_input moved", i)
        if not (pre_q.q_input == post_q.q_input
                or _removed_item(pre_q.q_input, post_q.q_input, None) is not None):
            return _bad("langsec.queue_frame",
                        "q_input did not shrink by at most one arrival", i)
        return None


LANGSEC_CLAUSES = {
    "langsec.state_frame": "malformed input reaches no state slot beyond the parser",
    "langsec.queue_frame": "malformed input reaches no queue beyond q_input",
}


# ---------------------------------------------------------------------------
# parser obliviousness


def parser_oblivious_check(parser: Callable, p: BitString, s1, s2) -> Verdict:
    """The parser's result may not depend on its state argument: run it
    from s1 and s2 and require identical parsed data (or identical
    rejection)."""
    d1, _ = parser(p, s1)
    d2, _ = parser(p, s2)
    if d1 != d2:
        return _bad("parser.obliviousness", "parsed result depends on the parser state")
    return OK


def format_acceptance_check(parse_fn: Callable[[BitString], object],
                            fmt: Format,
                            packets: Sequence[BitString]) -> Verdict:
    """The parser must accept exactly the packets its declared format
    matches, and re-serializing what it parsed must reproduce the
    input bit for bit."""
    report = report_matcher(fmt)
    for i, p in enumerate(packets):
        parsed = parse_fn(p)
        accepted = report(p)["ok"]
        if (parsed is not None) != accepted:
            word = "accepts" if parsed is not None else "rejects"
            return _bad("parser.format_acceptance",
                        f"packet {i}: parser {word} what the format does not")
        if parsed is not None:
            rebuilt = deparse_slots(parsed.slots) + parsed.payload
            if rebuilt != p:
                return _bad("parser.roundtrip",
                            f"packet {i}: reparse-serialize is not the identity")
    return OK


PARSER_CLAUSES = {
    "parser.obliviousness": "parsing is a function of the input bits alone",
    "parser.format_acceptance": "acceptance coincides with the declared packet format",
    "parser.roundtrip": "parse then serialize reproduces the accepted input",
}


# ---------------------------------------------------------------------------
# flow density and firewall freshness


class DenseFlowFold(Fold):
    """Consecutive packet-carrying ingress steps may be at most
    gap_limit ticks apart.  A keepalive generator with period equal to
    gap_limit discharges this even with no external traffic."""

    def __init__(self, gap_limit: int) -> None:
        self.gap_limit = gap_limit
        self.last = None

    def step(self, i, step):
        if step.kind != INGRESS or step.detail.p_i is None:
            return None
        t = step.pre_state.t
        if self.last is not None and t - self.last > self.gap_limit:
            return _bad("denseflow.gap", f"{t - self.last} ticks between packets", i)
        self.last = t
        return None


def dense_flow_check(trace: Trace, gap_limit: int) -> Verdict:
    return fold_trace(DenseFlowFold(gap_limit), trace)


class FreshnessFold(Fold):
    """No inbound packet of a flow inserted within the last `gap` ticks
    may be dropped.  Sound for gap <= the firewall window; a larger gap
    asks for more memory than the filter promises."""

    def __init__(self, fwcfg, gap: int) -> None:
        self.fwcfg = fwcfg
        self.gap = gap
        self.last_insert: dict[int, int] = {}

    def step(self, i, step):
        if step.kind != INGRESS or step.detail.p_i is None:
            return None
        w = wire_fields(step.detail.p_i)
        if w is None or w.ethertype == KEEPALIVE_ETHERTYPE:
            return None
        t = step.pre_state.t
        if step.detail.in_port != self.fwcfg.outside_port:
            key = five_tuple_key(w, inbound=False)
            if key is not None:
                self.last_insert[key] = t
            return None
        key = five_tuple_key(w, inbound=True)
        if key is None or key not in self.last_insert:
            return None
        age = t - self.last_insert[key]
        out = step.detail.pipeline_out
        if age <= self.gap and (out is None or out[0].drop or not step.detail.m_repl):
            return _bad("firewall.false_negative",
                        f"flow refreshed {age} ticks ago was dropped", i)
        return None


def firewall_freshness_check(trace: Trace, fwcfg, gap: int) -> Verdict:
    return fold_trace(FreshnessFold(fwcfg, gap), trace)


DENSEFLOW_CLAUSES = {
    "denseflow.gap": "packet-carrying steps are never more than the gap limit apart",
    "firewall.false_negative": "a recently refreshed flow is never dropped inbound",
}


ALL_CLAUSES = {**CLAUSES, **SAMPLER_CLAUSES, **LANGSEC_CLAUSES,
               **PARSER_CLAUSES, **DENSEFLOW_CLAUSES}
