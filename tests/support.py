"""Shared builders and independent reference implementations.

The reference functions here are deliberately written from the
definitions rather than by calling into the package, so the tests can
cross-check the real implementations against something that was derived
separately:

* ``ref_matches``      - brute-force format matcher that enumerates every
                         split point instead of committing to one.
* ``ref_parse_standard`` / ``ref_parse_sampled`` - the stock layouts as
                         hand-coded extract chains, decoding each field
                         with ``BitString.drop`` and ``take``.
* ``ref_sampler_outputs`` - the sampler's expected output stream, its
                         sample records built from ``ref_parse_standard``.
* ``ref_is_subsequence`` / ``ref_sampler_check`` - quadratic
                         reachability tables for the checker's greedy
                         scans.
* ``ref_pktgen_times`` - closed-form emission schedule for the periodic
                         packet generator.
* ``RefFirewall``      - exact last-seen-time table, the ideal the Bloom
                         pane construction approximates one-sidedly.
* ``ref_firewall_positions`` - the firewall's filter hash, uncached.
* ``forge_catalog``    - honest traces with one surgical edit each,
                         labelled with the clause the edit violates.
"""

import dataclasses
import json
import random

from dataplane.packet_format import (
    BitString,
    Branch,
    Concat,
    Empty,
    Environment,
    ExactPlain,
    ExactValue,
    HeaderType,
    TypedValue,
    check_well_formed,
    encode,
    match_report,
    seq,
)
from dataplane.headers import (
    ETHERNET,
    INTRINSIC_META,
    IPV4,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    PORT_META,
    SAMPLE_HEADER,
    TCP,
    UDP,
    build_packet,
    make_ethernet,
    make_intrinsic_meta,
    make_ipv4,
    make_port_meta,
    make_sample,
    make_tcp,
    make_udp,
)
from dataplane.engines import (
    EgressMeta,
    PktGenConfig,
    PktGenState,
    QacAlwaysReady,
    UNICAST,
    packet_generator,
)
from dataplane.switch import (
    Arrival,
    FifoDrainOracle,
    Oracle,
    SwitchConfig,
    SwitchQueues,
    Trace,
    run,
)
from dataplane import apps, checker, engines, switch
from dataplane.pipeline import EgressIndication, ParsedData, egress_pipeline, ingress_pipeline
from dataplane.apps import (
    FirewallState,
    IdentityConfig,
    SamplerConfig,
    deparse_slots,
    firewall_app,
    identity_app,
    initial_switch_state,
    keepalive_template,
    parse_standard,
    sampler_app,
)


# ---------------------------------------------------------------------------
# packet builders


def tcp_pkt(*, src=0x0A000001, dst=0x0A000002, sp=1234, dp=80,
            in_port=0, payload=b"", ttl=64) -> BitString:
    return build_packet(
        meta=make_intrinsic_meta(ingress_port=in_port),
        port_md=make_port_meta(),
        ethernet=make_ethernet(dst=0x0000_5E00_5301, src=0x0000_5E00_5302,
                               ethertype=0x0800),
        ipv4=make_ipv4(protocol=IP_PROTO_TCP, src=src, dst=dst, ttl=ttl),
        l4=make_tcp(src_port=sp, dst_port=dp),
        payload=BitString.from_bytes(payload),
    )


def udp_pkt(*, src=0x0A000001, dst=0x0A000002, sp=5353, dp=53,
            in_port=0, payload=b"") -> BitString:
    return build_packet(
        meta=make_intrinsic_meta(ingress_port=in_port),
        ethernet=make_ethernet(ethertype=0x0800),
        ipv4=make_ipv4(protocol=IP_PROTO_UDP, src=src, dst=dst),
        l4=make_udp(src_port=sp, dst_port=dp),
        payload=BitString.from_bytes(payload),
    )


def bare_ip_pkt(*, protocol=1, payload=b"") -> BitString:
    """No L4 header; the standard format's branch falls through."""
    return build_packet(ipv4=make_ipv4(protocol=protocol),
                        payload=BitString.from_bytes(payload))


def rand_packet(rng: random.Random, *, payload_max=8) -> BitString:
    payload = rng.randbytes(rng.randrange(payload_max + 1))
    kind = rng.randrange(3)
    if kind == 0:
        return tcp_pkt(src=rng.getrandbits(32), dst=rng.getrandbits(32),
                       sp=rng.getrandbits(16), dp=rng.getrandbits(16),
                       payload=payload)
    if kind == 1:
        return udp_pkt(src=rng.getrandbits(32), dst=rng.getrandbits(32),
                       sp=rng.getrandbits(16), dp=rng.getrandbits(16),
                       payload=payload)
    return bare_ip_pkt(protocol=rng.choice([0, 1, 2, 50]), payload=payload)


def mangle(rng: random.Random, p: BitString) -> BitString:
    """Damage a packet so the standard parser must reject it.

    Truncation below the shortest parseable layout (400 bits) is the
    only reliable mutation: the fixed headers accept any bit pattern,
    so bit flips usually still parse.
    """
    cut = rng.randrange(1, min(len(p), 400))
    out = p.take(cut)
    if rng.random() < 0.5 and len(out) > 0:
        flip = rng.randrange(len(out))
        out = BitString(out.value ^ (1 << (len(out) - 1 - flip)), len(out))
    return out


def rand_typed(rng: random.Random, htype: HeaderType) -> TypedValue:
    return TypedValue(htype, {n: rng.getrandbits(w) for n, w in htype.fields})


def with_fields(v: TypedValue, **changes: int) -> TypedValue:
    """v with the named fields set, range-checked like any new value."""
    return TypedValue(v.htype, {**v.as_dict(), **changes})


# ---------------------------------------------------------------------------
# reference format matcher: enumerate every denotation


def interpreted(p: BitString, f) -> Environment | None:
    """The interpreter's bindings of a complete match of p against f, or
    None: what compile_format(f) is to return."""
    report = match_report(p, f)
    return report["env"] if report["ok"] else None


def ref_matches(p: BitString, f) -> bool:
    """Brute-force matcher.  Where the production matcher commits to the
    single split a well-formed format permits, this one tries every split
    of every ExactPlain and asks whether ANY complete parse exists."""
    check_well_formed(f)

    def ends(g, pos, env):
        if isinstance(g, Empty):
            yield pos, env
        elif isinstance(g, ExactValue):
            w = g.htype.total_width
            if pos + w <= len(p):
                vals, off = {}, pos
                for fname, fw in g.htype.fields:
                    vals[fname] = p.drop(off).take(fw).value
                    off += fw
                yield off, {**env, g.name: TypedValue(g.htype, vals)}
        elif isinstance(g, ExactPlain):
            for end in range(pos, len(p) + 1):
                yield end, {**env, g.name: p.drop(pos).take(end - pos)}
        elif isinstance(g, Concat):
            for mid, e1 in ends(g.left, pos, env):
                yield from ends(g.right, mid, e1)
        elif isinstance(g, Branch):
            arm = g.then if g.cond(Environment(env)) else g.els
            yield from ends(arm, pos, env)
        else:
            raise TypeError(f"not a Format: {g!r}")

    return any(end == len(p) for end, _ in ends(f, 0, {}))


# ---------------------------------------------------------------------------
# reference stock parsers: the layouts of headers.py as extract chains

# header slot -> the header type the stock formats bind to it
STOCK_SLOT_TYPES = {"sample": SAMPLE_HEADER, "meta": INTRINSIC_META, "port_md": PORT_META,
                    "ethernet": ETHERNET, "ipv4": IPV4, "tcp": TCP, "udp": UDP}


def _ref_parse(p: BitString, prefix: tuple) -> ParsedData | None:
    """Extract the prefix slots, the four fixed headers, then TCP or UDP
    as the IPv4 protocol field says; None when p runs out first."""
    slots, pos = {}, 0

    def take(name: str, htype: HeaderType) -> bool:
        nonlocal pos
        if pos + htype.total_width > len(p):
            return False
        vals = {}
        for fname, width in htype.fields:
            vals[fname] = p.drop(pos).take(width).value
            pos += width
        slots[name] = TypedValue(htype, vals)
        return True

    for name, htype in (*prefix, ("meta", INTRINSIC_META), ("port_md", PORT_META),
                        ("ethernet", ETHERNET), ("ipv4", IPV4)):
        if not take(name, htype):
            return None
    l4 = {IP_PROTO_TCP: ("tcp", TCP), IP_PROTO_UDP: ("udp", UDP)}.get(
        slots["ipv4"]["protocol"])
    if l4 is not None and not take(*l4):
        return None
    return ParsedData(slots, p.drop(pos))


def ref_parse_standard(p: BitString) -> ParsedData | None:
    return _ref_parse(p, ())


def ref_parse_sampled(p: BitString) -> ParsedData | None:
    return _ref_parse(p, (("sample", SAMPLE_HEADER),))


# ---------------------------------------------------------------------------
# reference checker scans: quadratic reachability tables


def ref_is_subsequence(sub, seq) -> bool:
    """Reachability-table equivalent of sub embedding in seq, which
    checker._subsequence_mask tells by keeping len(sub) elements."""
    reach = [True] + [False] * len(sub)
    for y in seq:
        for i in range(len(sub), 0, -1):
            if reach[i - 1] and sub[i - 1] == y:
                reach[i] = True
    return reach[len(sub)]


def ref_sampler_outputs(n: int, inputs, scfg) -> list:
    """The complete (port, bits) stream the sampler owes for inputs when
    its count starts at n: input i (1-based) on the forward port, then,
    when (n+i) mod 2^32 is a multiple of the period, a sample record of
    its addresses, ports and count, followed by its payload, on the
    monitor port."""
    outs = []
    for i, p in enumerate(inputs, 1):
        outs.append((scfg.forward_port, p))
        count = (n + i) % (1 << 32)
        if count % scfg.sample_every:
            continue
        parsed = ref_parse_standard(p)
        slots = parsed.slots
        ports = {"src_port": 0, "dst_port": 0}
        for name in ("tcp", "udp"):
            if name in slots:
                ports = {f: slots[name][f] for f in ports}
        rec = make_sample(src_addr=slots["ipv4"]["src"], dst_addr=slots["ipv4"]["dst"],
                          sample_count=count, **ports)
        outs.append((scfg.monitor_port, encode(rec) + parsed.payload))
    return outs


def ref_sampler_check(n: int, inputs, outputs, scfg) -> bool:
    """Reachability-table equivalent of checker.sampler_spec_check for
    adversarial equal-packet streams; no clause attribution."""
    return ref_is_subsequence(outputs, ref_sampler_outputs(n, inputs, scfg))


class _FieldParity:
    """Picklable, deterministic branch predicate: parity of one field."""

    def __init__(self, name: str, fname: str, want: int) -> None:
        self.name, self.fname, self.want = name, fname, want

    def __call__(self, env) -> bool:
        return env[self.name][self.fname] & 1 == self.want


class _Const:
    def __init__(self, b: bool) -> None:
        self.b = b

    def __call__(self, env) -> bool:
        return self.b


def random_format(rng: random.Random, *, max_depth=4, max_fields=4):
    """A well-formed random format: depth-bounded tree over small
    synthetic header types, ExactPlain only in terminal position,
    branch predicates only over names bound on every path before the
    branch."""
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"h{counter[0]}"

    def rand_htype(name: str) -> HeaderType:
        n = rng.randrange(1, max_fields + 1)
        return HeaderType(name, tuple((f"f{i}", rng.randrange(1, 9))
                                      for i in range(n)))

    def gen(depth: int, terminal: bool, bound: list):
        # bound: (name, htype) pairs available to predicates here
        roll = rng.random()
        if depth == 0 or roll < 0.15:
            return Empty()
        if roll < 0.45:
            name = fresh()
            ht = rand_htype(name)
            bound.append((name, ht))
            return ExactValue(name, ht)
        if roll < 0.55 and terminal:
            return ExactPlain(fresh())
        if roll < 0.80:
            left_bound = list(bound)
            left = gen(depth - 1, False, left_bound)
            # names bound by the left side are visible on the right
            right = gen(depth - 1, terminal, left_bound)
            bound[:] = left_bound
            return Concat(left, right)
        if bound:
            name, ht = rng.choice(bound)
            fname = rng.choice([n for n, _ in ht.fields])
            cond = _FieldParity(name, fname, rng.randrange(2))
        else:
            cond = _Const(rng.random() < 0.5)
        before = list(bound)
        then = gen(depth - 1, terminal, list(before))
        els = gen(depth - 1, terminal, list(before))
        # arm bindings are not certain, so predicates after the branch
        # may only use what was bound before it
        bound[:] = before
        return Branch(cond, then, els, label=f"b{counter[0]}")

    f = gen(max_depth, True, [])
    check_well_formed(f)
    return f


def sample_matching_input(rng: random.Random, f) -> BitString:
    """Walk one denotation of f, choosing field values at random; the
    result matches f by construction."""

    def walk(g, env) -> BitString:
        if isinstance(g, Empty):
            return BitString()
        if isinstance(g, ExactValue):
            v = rand_typed(rng, g.htype)
            env[g.name] = v
            return encode(v)
        if isinstance(g, ExactPlain):
            n = rng.randrange(0, 17)
            bits = BitString(rng.getrandbits(n) if n else 0, n)
            env[g.name] = bits
            return bits
        if isinstance(g, Concat):
            return walk(g.left, env) + walk(g.right, env)
        if isinstance(g, Branch):
            arm = g.then if g.cond(Environment(env)) else g.els
            return walk(arm, env)
        raise TypeError(f"not a Format: {g!r}")

    return walk(f, {})


# ---------------------------------------------------------------------------
# reference packet generator schedule


def ref_pktgen_times(c: PktGenConfig, horizon: int) -> list[int]:
    """Closed-form emission instants in [0, horizon).

    Burst b emits pkts_per_batch packets starting at
    start + b * ((pkts_per_batch - 1) * inter_pkt_gap + inter_batch_gap),
    spaced inter_pkt_gap apart; the next burst starts at the first
    multiple of period after the last emission.
    """
    if not c.enabled:
        return []
    stride = (c.pkts_per_batch - 1) * c.inter_pkt_gap + c.inter_batch_gap
    times: list[int] = []
    ready = 0
    while True:
        start = -(-ready // c.period) * c.period
        if start >= horizon:
            break
        last = start
        for b in range(c.batch_count):
            base = start + b * stride
            for k in range(c.pkts_per_batch):
                t = base + k * c.inter_pkt_gap
                last = t
                if t < horizon:
                    times.append(t)
        ready = last + 1
    return times


def executed_pktgen_times(c: PktGenConfig, horizon: int) -> list[int]:
    """Emission instants observed by actually ticking the generator."""
    s = PktGenState()
    out = []
    for t in range(horizon):
        p, s = packet_generator(c, t, s, None)
        if p is not None:
            out.append(t)
    return out


# ---------------------------------------------------------------------------
# reference firewall


class RefFirewall:
    """Exact last-insertion table.  A flow inserted at time t0 must still
    be admitted at any t with t - t0 <= window; the Bloom construction
    may remember longer but never shorter."""

    def __init__(self, window: int) -> None:
        self.window = window
        self.last: dict[int, int] = {}

    def insert(self, key: int, t: int) -> None:
        self.last[key] = t

    def must_admit(self, key: int, t: int) -> bool:
        t0 = self.last.get(key)
        return t0 is not None and t - t0 <= self.window


def ref_firewall_positions(cfg, key: int) -> list[int]:
    """The filter positions the firewall sets and tests for a flow key,
    restated without the app's memo: one seeded (a, b) pair per hash,
    drawn as the app draws them, then the affine step, the splitmix64
    fold and the reduction mod bits."""
    rng = random.Random(cfg.hash_seed)
    m64 = (1 << 64) - 1
    out = []
    for _ in range(cfg.hash_count):
        a = rng.getrandbits(64) | 1
        b = rng.getrandbits(64)
        h = (a * key + b) & m64
        h = ((h ^ (h >> 30)) * 0xBF58476D1CE4E5B9) & m64
        h = ((h ^ (h >> 27)) * 0x94D049BB133111EB) & m64
        out.append((h ^ (h >> 31)) % cfg.bits)
    return out


class FwDriver:
    """Drive the firewall's ingress control directly with explicit ticks."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.app = firewall_app(cfg)
        self.state = FirewallState()

    def _step(self, t, port, pkt):
        d = (t, port, parse_standard(pkt).slots)
        (tm, _), self.state = self.app.components.in_control(d, self.state)
        return tm

    def outbound(self, t, pkt):
        return self._step(t, self.cfg.inside_port, pkt)

    def inbound(self, t, pkt):
        tm = self._step(t, self.cfg.outside_port, pkt)
        assert tm.drop or tm.ucast_egress_port == self.cfg.inside_port
        return not tm.drop

    def keepalive(self, t):
        tm = self._step(t, self.app.pktgen.source_port, keepalive_template())
        assert tm.drop == 1


def flow_pair(i):
    out = tcp_pkt(src=0x0A000000 + i, dst=0xC0A80000 + i, sp=40000 + i, dp=443)
    back = tcp_pkt(src=0xC0A80000 + i, dst=0x0A000000 + i, sp=443, dp=40000 + i)
    return out, back


# ---------------------------------------------------------------------------
# config inputs


# nested config sections with one bad key or value each, paired with the
# dotted path the error must name
BAD_NESTED_CONFIGS = [
    ({"pktgen": {"period": None}}, "pktgen.period"),
    ({"pktgen": {"enabled": "no"}}, "pktgen.enabled"),
    ({"pktgen": {"perod": 5}}, "pktgen.perod"),
    ({"mc": []}, "mc"),
    ({"mc": {"groups": {"5": [{"rid": "x"}]}}}, "mc.groups.5[0].rid"),
    ({"mc": {"groups": {"5": [{"dev_port_list": [1.5]}]}}}, "mc.groups.5[0].dev_port_list[0]"),
    ({"mc": {"groups": {"5": [{"dev_port_list": ["1"]}]}}}, "mc.groups.5[0].dev_port_list[0]"),
    ({"qac": {"kind": "always_ready", "ready_ports": 5}}, "qac.ready_ports"),
    ({"qac": {"kind": "always_ready", "ready": "all"}}, "qac.ready"),
    ({"qac": {"kind": "always_ready", "ready_ports": [600]}}, "qac"),
    ({"mc": {"lags": {"x": [1]}}}, "mc.lags"),
    ({"pktgen": {"template": "zz"}}, "pktgen.template"),
    ({"mc": {"groups": {"0": []}}}, "mc"),
    ({"mc": {"groups": {"5": [{"rid": 1 << 16}]}}}, "mc.groups.5[0]"),
    ({"mc": {"l2_exclusion": {"1": [600]}}}, "mc"),
]


# ---------------------------------------------------------------------------
# run helpers


def arrivals(*packets: BitString, port: int = 0) -> tuple[Arrival, ...]:
    return tuple(Arrival(port, p) for p in packets)


def drained(qs: SwitchQueues) -> bool:
    return (not qs.q_input and not qs.q_egress and not qs.q_mirror
            and qs.p_recirc is None)


def drain_run(cfg: SwitchConfig, packets, oracle: Oracle | None = None,
              *, port: int = 0, cap: int | None = None) -> Trace:
    """Run until every internal queue is empty (generator-less apps)."""
    st = initial_switch_state(cfg)
    qs = SwitchQueues(q_input=arrivals(*packets, port=port))
    if cap is None:
        cap = 8 * len(packets) + 64
    tr = run(cfg, st, qs, cap, oracle or FifoDrainOracle(),
             stop_when=lambda s, q: drained(q))
    assert tr.fault is None, tr.fault
    assert drained(tr.final_queues), "run did not drain"
    return tr


def replication_of(cfg: SwitchConfig) -> dict:
    """cfg's replication table, which check_step takes."""
    return engines.replication_table(cfg.mc, cfg.qac, cfg.actions)


def recirc_once_app() -> SwitchConfig:
    """Odd TTL recirculates after the egress control decrements it, so a
    ttl=2 packet loops exactly once through the register."""
    base = identity_app(IdentityConfig(1))

    def e_control(d, s):
        em, slots = d
        slots = dict(slots)
        slots["ipv4"] = with_fields(slots["ipv4"], ttl=slots["ipv4"]["ttl"] - 1)
        return slots, s

    def e_deparser(slots, s):
        ind = EgressIndication(recirculate=slots["ipv4"]["ttl"] & 1)
        return (ind, deparse_slots(slots)), s

    comps = dataclasses.replace(base.components, e_control=e_control, e_deparser=e_deparser)
    return SwitchConfig(components=comps, app_label="ttl_loop", actions=base.actions)


# every key format 3 wrote and format 4 derives, wherever it stood
FORMAT_3_KEYS = {"mirror_session", "recirc_flag", "bypass_egress", "parsed", "enqueued",
                 "p_g", "outputs", "q_mirror"}


def _keys(obj):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield k
            yield from _keys(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _keys(v)


def _opt_json(p):
    return None if p is None else p.to_json()


def assert_format_4_loses_nothing(trace: Trace, lines: list[str]) -> None:
    """Rebuild every field format 4 leaves out from its record alone, and
    each kept slot's digest from the records before it, and require the
    in-memory step's value; lines are trace_to_lines(trace)."""
    recs = [json.loads(line) for line in lines]
    assert not FORMAT_3_KEYS & set(_keys(recs))
    assert "q_mirror" not in recs[0]["queues"]
    digests = switch.state_digests(trace.initial_state)
    for rec, step in zip(recs[1:], trace.steps):
        assert rec["type"] == "step" and "kind" not in rec and "p_recirc" not in rec["post"]
        d, decisions = rec["detail"], rec["decisions"]
        assert decisions["kind"] == step.kind
        if step.kind == switch.INGRESS:
            assert ("tm_meta" in d) == (step.detail.pipeline_out is not None)  # parsed
            p_g = d["p_i"] if decisions["input_index"] is None else None
            assert p_g == _opt_json(step.detail.p_g)
            mask = decisions["admitted_mask"] or []
            enqueued = [[em, d["raw_out"]] for em, keep in zip(d.get("m_repl", []), mask)
                        if keep]
            assert enqueued == [[switch._em_json(em), p.to_json()]
                                for em, p in step.detail.enqueued]
            p_recirc = None
        else:
            p_recirc = d["p_out"] if d["recirculate"] else None
        assert p_recirc == _opt_json(step.post_queues.p_recirc)
        digests.update({k: v for k, v in rec["post"].items() if k != "lens"})
        assert digests == switch.state_digests(step.post_state)
    end = recs[-1]
    assert end["type"] == "end" and end["steps"] == len(trace.steps)
    assert end["final_queues"]["lens"][2] == len(trace.final_queues.q_output)  # outputs


def count_pipeline_calls(monkeypatch) -> list[str]:
    """Route the executor's and the checker's bindings of each pipeline
    through one counting wrapper, as a tracer that wraps both would; the
    list returned collects the name of each pipeline called."""
    calls: list[str] = []
    for fn in (ingress_pipeline, egress_pipeline):
        def counted(*args, fn=fn):
            calls.append(fn.__name__)
            return fn(*args)
        monkeypatch.setattr(switch, fn.__name__, counted)
        monkeypatch.setattr(checker, fn.__name__, counted)
    return calls


def drop_last_multicast_copy(monkeypatch) -> None:
    """The dropped-copy mutant: the replication walk of every action
    naming a multicast group A loses its last copy, so a sampled packet
    leaves without its monitor copy, and a unicast action keeps its
    copy.  The executor and the step axioms share the engine, so the
    axioms pass."""
    real = engines.replication_engine
    monkeypatch.setattr(engines, "replication_engine",
                        lambda c, m: real(c, m)[:-1] if m.mcast_grp_a else real(c, m))


def write_wrong_sample_count(monkeypatch) -> None:
    """The miscounting mutant: the sampler's control writes each sample
    record with its count plus one, so it samples the right packets and
    sends every monitor copy wrong.  The executor and the step axioms
    share the control, so the axioms pass."""
    real = apps.make_sample
    monkeypatch.setattr(apps, "make_sample",
                        lambda **kw: real(**{**kw, "sample_count": kw["sample_count"] + 1}))


class AlwaysIngressOracle(Oracle):
    """Never schedules egress; queues pile up."""

    def step_kind(self, queues):
        return "ingress"

    def input_index(self, n):
        return 0

    def admitted_subset(self, mandatory):
        return tuple(True for _ in mandatory)

    def sched_index(self, n):
        return 0


class AlwaysEgressOracle(FifoDrainOracle):
    """Requests egress unconditionally; the step machine must fall back
    to ingress when egress is not enabled."""

    def step_kind(self, queues):
        return "egress"


class PastTheEndOracle(FifoDrainOracle):
    """Schedules the copy one past the end of the egress queue, which
    the scheduler refuses: an engine fault that any packet reaches."""

    def sched_index(self, n):
        return n


# ---------------------------------------------------------------------------
# forgery catalog


@dataclasses.dataclass(frozen=True)
class Forgery:
    clause: str
    cfg: object
    step: object
    note: str = ""


def _r(obj, **kw):
    return dataclasses.replace(obj, **kw)


def _flip_bit(p: BitString, i: int = 0) -> BitString:
    return BitString(p.value ^ (1 << (len(p) - 1 - i)), len(p))


def forge_catalog() -> list[Forgery]:
    """One doctored step per checkable clause.

    Each entry starts from a step produced by an honest run, applies a
    single edit, and names the clause a checker must blame.  Keep this
    list in sync with checker.CLAUSES.
    """
    out: list[Forgery] = []

    # -- identity app material ------------------------------------------
    icfg = identity_app(IdentityConfig(1))
    p_a, p_b = tcp_pkt(sp=1000), udp_pkt(sp=2000)
    tr = drain_run(icfg, [p_a, p_b])
    ing = [s for s in tr.steps if s.kind == "ingress" and s.detail.p_i is not None]
    egr = [s for s in tr.steps if s.kind == "egress"]
    assert ing and egr
    s_in, s_eg = ing[0], egr[0]
    # an idle tick needs an empty input queue, which drain_run never reaches
    tr_idle = run(icfg, initial_switch_state(icfg), SwitchQueues(), 1,
                  FifoDrainOracle())
    s_id = tr_idle.steps[0]
    assert s_id.detail.p_i is None

    def add(clause, cfg, step, note=""):
        out.append(Forgery(clause, cfg, step, note))

    add("ingress.clock", icfg,
        _r(s_in, post_state=_r(s_in.post_state, t=s_in.post_state.t + 1)),
        "clock jumped by 2")
    add("ingress.frame.s_e", icfg,
        _r(s_in, post_state=_r(s_in.post_state, s_e=("tampered",))))
    add("ingress.frame.q_output", icfg,
        _r(s_in, post_queues=_r(s_in.post_queues,
                                q_output=s_in.post_queues.q_output + ((7, p_a),))))
    add("ingress.pktgen_behavior", icfg,
        _r(s_in, post_state=_r(s_in.post_state,
                               s_g=PktGenState("emitting", 9, 0, 1))),
        "generator state moved while disabled")
    add("ingress.input_ports", icfg,
        _r(s_in, post_queues=_r(s_in.post_queues, q_input=())),
        "two packets vanished in one step")
    add("ingress.pipeline", icfg,
        _r(s_in, post_state=_r(s_in.post_state,
                               s_i=(None, "corrupt", s_in.post_state.s_i[2]))))
    add("ingress.mirror_empty", icfg,
        _r(s_in, post_queues=_r(s_in.post_queues, q_mirror=(("m", p_a),))))
    add("ingress.no_packet_frame", icfg,
        _r(s_id, post_state=_r(s_id.post_state, s_i=(None, "x", None))))
    add("trace.step_kind", icfg, _r(s_in, kind="sideways"))
    add("ingress.undeclared_action", _r(icfg, actions=()), s_in,
        "an honest step judged under a config that declares no action")

    # replication/admission edits need the enqueued copy
    raw = s_in.detail.enqueued[0][1]
    bogus = (EgressMeta(egress_port=9, rid=0, source=UNICAST), raw)
    add("ingress.replication", icfg,
        _r(s_in, post_queues=_r(s_in.post_queues,
                                q_egress=s_in.post_queues.q_egress + (bogus,))),
        "copy to a port the pipeline never named")

    # -- egress-side edits ------------------------------------------------
    add("egress.clock", icfg,
        _r(s_eg, post_state=_r(s_eg.post_state, t=s_eg.post_state.t + 1)),
        "egress must not advance time")
    add("egress.frame.s_g", icfg,
        _r(s_eg, post_state=_r(s_eg.post_state,
                               s_g=PktGenState("emitting", 9, 0, 1))))
    add("egress.frame.s_i", icfg,
        _r(s_eg, post_state=_r(s_eg.post_state, s_i=(None, "x", None))))
    add("egress.frame.q_input", icfg,
        _r(s_eg, post_queues=_r(s_eg.post_queues,
                                q_input=tuple(s_eg.post_queues.q_input)[1:])))
    add("egress.frame.q_mirror", icfg,
        _r(s_eg, post_queues=_r(s_eg.post_queues, q_mirror=(("m", p_a),))))
    add("egress.enabled", icfg,
        _r(s_eg, pre_queues=_r(s_eg.pre_queues, p_recirc=p_a)),
        "register occupied, egress should be blocked")
    add("egress.pipeline", icfg,
        _r(s_eg, post_state=_r(s_eg.post_state, s_e=("tampered", None, None))))
    last_out = s_eg.post_queues.q_output[-1]
    add("egress.output_ports", icfg,
        _r(s_eg, post_queues=_r(s_eg.post_queues,
                                q_output=tuple(s_eg.post_queues.q_output)[:-1]
                                + ((last_out[0], _flip_bit(last_out[1])),))),
        "transmitted bytes differ from the deparser's output")

    # -- reject isolation --------------------------------------------------
    bad = p_a.take(100)
    tr_bad = run(icfg, initial_switch_state(icfg),
                 SwitchQueues(q_input=arrivals(bad)), 1, FifoDrainOracle())
    s_rej = tr_bad.steps[0]
    assert s_rej.detail.pipeline_out is None and s_rej.detail.p_i is not None
    add("ingress.reject_isolation", icfg,
        _r(s_rej, post_queues=_r(s_rej.post_queues,
                                 q_egress=s_in.post_queues.q_egress)),
        "rejected packet still reached the egress queue")

    # -- sampler material: two copies per packet, non-empty pre-queues ----
    scfg_sw = sampler_app(SamplerConfig(sample_every=1))
    tr_s = run(scfg_sw, initial_switch_state(scfg_sw),
               SwitchQueues(q_input=arrivals(p_a, p_b)), 2, AlwaysIngressOracle())
    st1 = tr_s.steps[1]
    assert len(st1.pre_queues.q_egress) == 2 and len(st1.detail.enqueued) == 2
    fwd, mon = st1.detail.enqueued
    base = st1.pre_queues.q_egress
    add("ingress.qac_prefix", scfg_sw,
        _r(st1, post_queues=_r(st1.post_queues,
                               q_egress=(base[1], base[0]) + (fwd, mon))),
        "pre-existing queue entries swapped")
    add("ingress.qac_subsequence", scfg_sw,
        _r(st1, post_queues=_r(st1.post_queues, q_egress=base + (mon, fwd))),
        "admitted copies out of pipeline order")

    # dropping a copy the policy marks mandatory
    rcfg = dataclasses.replace(icfg, qac=QacAlwaysReady())
    tr_r = run(rcfg, initial_switch_state(rcfg),
               SwitchQueues(q_input=arrivals(p_a)), 1, FifoDrainOracle())
    s_rdy = tr_r.steps[0]
    assert len(s_rdy.detail.enqueued) == 1
    add("ingress.qac_mandatory", rcfg,
        _r(s_rdy, post_queues=_r(s_rdy.post_queues,
                                 q_egress=s_rdy.pre_queues.q_egress)),
        "always-ready port dropped its copy")

    # scheduling two removals in one egress step
    tr_s2 = run(scfg_sw, initial_switch_state(scfg_sw),
                SwitchQueues(q_input=arrivals(p_a)), 2, FifoDrainOracle())
    s_eg2 = tr_s2.steps[1]
    assert s_eg2.kind == "egress" and len(s_eg2.pre_queues.q_egress) == 2
    add("egress.scheduler_split", scfg_sw,
        _r(s_eg2, post_queues=_r(s_eg2.post_queues, q_egress=())),
        "two queue entries left in one step")

    return out
