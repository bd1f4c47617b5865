"""Whole-switch step machine: framing, oracle fallback, faults,
recirculation, and trace serialization."""

import dataclasses
import hashlib
import io
import json
import random
import traceback
import tracemalloc

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dataplane.pipeline import TmMeta
from dataplane.engines import (
    UNICAST, EgressMeta, McConfig, PktGenConfig, QacAlwaysReady, QacMinimal, Seq,
)
from dataplane import audit, checker, engines, switch
from dataplane.packet_format import BitString
from dataplane.records import record
from dataplane.switch import (
    EGRESS,
    FifoDrainOracle,
    INGRESS,
    ORACLE_POLICIES,
    RandomOracle,
    ReplayOracle,
    Run,
    SwitchConfig,
    SwitchQueues,
    TRACE_FORMAT,
    canonical_bytes,
    config_digest,
    digest,
    egress_enabled,
    make_oracle,
    queue_digests,
    read_trace_lines,
    run,
    state_digests,
    step_to_json,
    trace_to_lines,
    write_trace,
)
from dataplane.apps import (
    FirewallConfig,
    IdentityConfig,
    SamplerConfig,
    SamplerState,
    app_from_config,
    firewall_app,
    identity_app,
    initial_switch_state,
    parse_standard,
    sampler_app,
    _tm,
)

from support import (
    AlwaysEgressOracle,
    PastTheEndOracle,
    arrivals,
    assert_format_4_loses_nothing,
    drain_run,
    drained,
    rand_packet,
    recirc_once_app,
    tcp_pkt,
    udp_pkt,
)


P1, P2, P3 = tcp_pkt(sp=1), udp_pkt(sp=2), tcp_pkt(sp=3)


def _slots(st):
    return (st.s_g, *st.s_i, *st.s_e)


class TestIdentityRun:
    def test_fifo_preserves_order(self):
        tr = drain_run(identity_app(IdentityConfig(9)), [P1, P2, P3])
        assert [(port, p) for port, p in tr.final_queues.q_output] \
            == [(9, P1), (9, P2), (9, P3)]

    def test_clock_counts_ingress_steps(self):
        tr = drain_run(identity_app(), [P1, P2])
        n_ingress = sum(1 for s in tr.steps if s.kind == INGRESS)
        assert tr.final_state.t == tr.initial_state.t + n_ingress

    def test_ingress_frames(self):
        tr = drain_run(identity_app(), [P1, P2])
        for s in tr.steps:
            if s.kind == INGRESS:
                assert s.post_state.s_e == s.pre_state.s_e
                assert s.post_queues.q_output == s.pre_queues.q_output
                assert s.post_state.t == s.pre_state.t + 1
            else:
                assert s.post_state.t == s.pre_state.t
                assert s.post_state.s_g == s.pre_state.s_g
                assert s.post_state.s_i == s.pre_state.s_i
                assert s.post_queues.q_input == s.pre_queues.q_input

    @pytest.mark.parametrize("policy", ["fifo-drain", "random"])
    def test_steps_share_queue_structure(self, policy):
        # a step's queues share all but at most one chunk with its pre
        # queues, so the snapshots a run keeps cost O(1) chunks a step
        cfg = identity_app()
        qs = SwitchQueues(q_input=Seq(arrivals(*(tcp_pkt(sp=i) for i in range(512)))))
        tr = run(cfg, initial_switch_state(cfg), qs, 8 * 512,
                 make_oracle(policy, seed=3), stop_when=lambda s, q: drained(q))
        assert drained(tr.final_queues) and len(tr.final_queues.q_output) > 256
        for s in tr.steps:
            for name in ("q_input", "q_output"):
                pre, post = getattr(s.pre_queues, name), getattr(s.post_queues, name)
                if post is not pre:
                    assert type(post) is Seq
                    old = {id(c) for c in getattr(pre, "chunks", ())}
                    new = {id(c) for c in post.chunks}
                    assert len(new - old) <= 1 and len(old - new) <= 1, (name, s.kind)

    def test_decisions_recorded(self):
        tr = drain_run(identity_app(), [P1])
        ing, egr = tr.steps[0], tr.steps[1]
        assert ing.decisions["input_index"] == 0
        assert ing.decisions["admitted_mask"] == [True]
        assert egr.decisions["sched_index"] == 0


def test_egress_request_falls_back_to_ingress():
    tr = drain_run(identity_app(), [P1], AlwaysEgressOracle())
    first = tr.steps[0]
    assert first.kind == INGRESS
    assert first.decisions["requested_kind"] == EGRESS
    # once enabled, the requested egress goes through as itself
    second = tr.steps[1]
    assert second.kind == EGRESS and second.decisions["requested_kind"] == EGRESS


def test_egress_step_requires_enabled():
    # Run.step, egress_step's one caller, takes it only when egress is enabled
    assert not egress_enabled(SwitchQueues())
    assert egress_enabled(SwitchQueues(q_egress=((None, P1),)))
    cfg = identity_app()
    occupied = SwitchQueues(p_recirc=P1, q_egress=((None, P1),))
    assert not egress_enabled(occupied)
    step = Run(cfg, initial_switch_state(cfg), occupied, AlwaysEgressOracle()).step()
    assert step.kind == INGRESS and step.decisions["requested_kind"] == EGRESS
    assert step.detail.from_recirc and step.post_queues.p_recirc is None


def test_no_copies_no_oracle_call():
    # a dropped packet has no copies: admission asks nothing, records []
    base = identity_app().components

    def dropping(d, s):
        return (_tm(drop=1), d[2]), s

    class Boom(FifoDrainOracle):
        def admitted_subset(self, mandatory):
            raise AssertionError("must not be consulted")

    cfg = SwitchConfig(dataclasses.replace(base, in_control=dropping),
                       McConfig(), PktGenConfig(), QacMinimal(), app_label="drop",
                       actions=(_tm(drop=1),))
    tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=arrivals(P1)), 1, Boom())
    (step,) = tr.steps
    assert step.detail.m_repl == () and step.post_queues.q_egress == ()
    assert step.decisions == {"requested_kind": INGRESS, "kind": INGRESS, "input_index": 0,
                              "admitted_mask": [], "sched_index": None}


class TestRunControl:
    def test_negative_steps(self):
        cfg = identity_app()
        with pytest.raises(ValueError):
            run(cfg, initial_switch_state(cfg),
                SwitchQueues(), -1, FifoDrainOracle())

    def test_stop_when_preempts(self):
        cfg = identity_app()
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(P1)), 100, FifoDrainOracle(),
                 stop_when=lambda s, q: True)
        assert tr.steps == [] and tr.final_state == tr.initial_state

    def test_fault_keeps_partial_trace(self):
        # control names a multicast group the tree does not contain
        base = identity_app().components

        def broken_control(d, s):
            t, port, slots = d
            return (_tm(mcast_a=77), slots), s

        cfg = SwitchConfig(
            components=dataclasses.replace(base, in_control=broken_control),
            mc=McConfig(), pktgen=PktGenConfig(), qac=QacMinimal(), app_label="broken",
            actions=(_tm(mcast_a=77),))
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(P1, P2)), 10, FifoDrainOracle())
        assert tr.fault is not None and tr.fault.startswith("UnknownGroup")
        assert tr.steps == []  # the very first step faulted
        assert len(tr.final_queues.q_input) == 2  # nothing was consumed

    def test_run_step_keeps_the_fault(self):
        base = identity_app().components

        def broken(d, s):
            return (_tm(mcast_a=1), d[2]), s

        cfg = SwitchConfig(dataclasses.replace(base, in_control=broken),
                           McConfig(), PktGenConfig(), QacMinimal(), app_label="b",
                           actions=(_tm(mcast_a=1),))
        st = initial_switch_state(cfg)
        r = Run(cfg, st, SwitchQueues(q_input=arrivals(P1, P2)),
                FifoDrainOracle())
        assert r.step() is None and r.fault.startswith("UnknownGroup")
        assert r.fault_decisions == {"requested_kind": "ingress", "input_index": 0}
        assert r.state == st and len(r.queues.q_input) == 2  # the faulted step changed nothing

    def test_an_engine_error_is_tabled_once(self, monkeypatch):
        # a declared action that names an unknown group is walked once, as
        # the run starts, and every step that emits it faults
        base = identity_app().components
        calls = []
        real = engines.replication_engine
        monkeypatch.setattr(engines, "replication_engine",
                            lambda c, m: calls.append(m) or real(c, m))

        def broken(d, s):
            return (_tm(mcast_a=1), d[2]), s

        cfg = SwitchConfig(dataclasses.replace(base, in_control=broken),
                           McConfig(), PktGenConfig(), QacMinimal(), app_label="b",
                           actions=(_tm(mcast_a=1),))
        r = Run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=arrivals(P1, P2)),
                FifoDrainOracle())
        err = r.replication[_tm(mcast_a=1)]
        assert calls == [_tm(mcast_a=1)] and isinstance(err, engines.UnknownGroup)
        depths = []
        for _ in range(2):
            assert r.step() is None and r.fault.startswith("UnknownGroup")
            depths.append(len(traceback.extract_tb(err.__traceback__)))
        # raised afresh each time, so its traceback does not pile up
        assert calls == [_tm(mcast_a=1)] and depths[0] == depths[1]

    def test_an_undeclared_action_faults_and_replays(self):
        # identity declares unicast to port 1 alone; a control that also
        # sends packets from port 5 to port 2 faults at the first of them
        base = identity_app()

        def two_ways(d, s):
            t, in_port, slots = d
            return (_tm(ucast=2 if in_port == 5 else 1), slots), s

        cfg = dataclasses.replace(
            base, components=dataclasses.replace(base.components, in_control=two_ways))
        st = initial_switch_state(cfg)
        qs = SwitchQueues(q_input=arrivals(P1) + arrivals(P2, port=5))
        tr = run(cfg, st, qs, 10, FifoDrainOracle())
        assert [s.kind for s in tr.steps] == [INGRESS, EGRESS]
        assert tr.fault == f"UndeclaredAction: the app does not declare {_tm(ucast=2)}"
        assert tr.fault_decisions == {"requested_kind": INGRESS, "input_index": 0}
        lines = trace_to_lines(tr)
        assert json.loads(lines[-2])["type"] == "fault"
        replay = ReplayOracle([*(s.decisions for s in tr.steps), tr.fault_decisions])
        assert trace_to_lines(run(cfg, st, qs, len(tr.steps) + 1, replay)) == lines


class TestRecirculation:
    def test_register_loop(self):
        cfg = recirc_once_app()
        tr = drain_run(cfg, [tcp_pkt(ttl=2)])
        kinds = [s.kind for s in tr.steps]
        assert kinds == [INGRESS, EGRESS, INGRESS, EGRESS]
        # first egress parks the decremented packet in the register
        assert tr.steps[1].detail.indication.recirculate
        assert tr.steps[1].post_queues.p_recirc is not None
        # the register packet preempts input and the generator
        s2 = tr.steps[2]
        assert s2.detail.from_recirc and s2.detail.p_g is not None
        assert s2.post_queues.p_recirc is None
        (port, out), = tr.final_queues.q_output
        assert port == 1
        got = parse_standard(out)
        assert got.slots["ipv4"]["ttl"] == 0

    def test_register_blocks_egress(self):
        occupied = SwitchQueues(p_recirc=P1, q_egress=(("x", P1),))
        assert not egress_enabled(occupied)
        assert egress_enabled(SwitchQueues(q_egress=(("x", P1),)))
        assert not egress_enabled(SwitchQueues())


class TestDigests:
    def test_deterministic(self):
        cfg = identity_app()
        st = initial_switch_state(cfg)
        assert digest(st) == digest(initial_switch_state(cfg))
        assert state_digests(st) == state_digests(initial_switch_state(cfg))

    def test_sensitive_to_state(self):
        cfg = identity_app()
        st = initial_switch_state(cfg)
        st2 = dataclasses.replace(st, t=st.t + 1)
        assert digest(st) != digest(st2)
        assert state_digests(st)["t"] != state_digests(st2)["t"]

    def test_queue_digests_include_lengths(self):
        qs = SwitchQueues(q_input=arrivals(P1, P2))
        # lens = (q_input, q_egress, q_output)
        assert queue_digests(qs)["lens"] == [2, 0, 0]

    def test_config_digest_covers_app_label(self):
        a = identity_app()
        b = dataclasses.replace(a, app_label="other")
        assert config_digest(a) != config_digest(b)

    @pytest.mark.parametrize("field, value", [
        ("params", IdentityConfig(forward_port=2)),
        ("mc", McConfig(cpu_port=65)),
        ("pktgen", PktGenConfig(period=999)),
        ("qac", QacAlwaysReady()),
    ], ids=["params", "mc", "pktgen", "qac"])
    def test_config_digest_covers_decoded_config(self, field, value):
        a = identity_app()
        b = dataclasses.replace(a, **{field: value})
        assert config_digest(a) != config_digest(b)

    @pytest.mark.parametrize("config, digests", [
        ({"app": "identity", "forward_port": 2}, ("29e9b5b06d2564ce", "3041a97b20b76238")),
        ({"app": "sampler", "forward_port": 1, "monitor_port": 3, "sample_every": 4},
         ("f07f9b1c5b257573", "909b8e97087f9c92")),
        ({"app": "firewall", "inside_port": 1, "outside_port": 2, "window": 100,
          "keepalive_period": 100}, ("3c8621caba147378", "6d10be3279cc583e")),
    ], ids=["identity", "sampler", "firewall"])
    def test_readme_config_digests_are_pinned(self, config, digests):
        # every trace header carries both, so a change here breaks every
        # recorded trace
        cfg = app_from_config(config)
        assert (config_digest(cfg), digest(initial_switch_state(cfg))) == digests


@record
class _Pair:
    a: object
    b: object


@record
class _Twin:
    """_Pair's fields under another class name."""

    a: object
    b: object


# ints on both sides of 63 bits and of zero; short bit strings, so that
# equal values of different lengths are drawn; no bools, which equal 1
# and 0 but encode apart
_INTS = st.one_of(st.integers(-3, 3), st.integers(2**63 - 2, 2**63 + 1),
                  st.integers(-2**63 - 1, -2**63 + 2), st.integers(-2**90, 2**90))
_BITS = st.integers(0, 9).flatmap(
    lambda n: st.builds(BitString, st.integers(0, (1 << n) - 1), st.just(n)))
_SCALARS = st.one_of(_INTS, _BITS, st.sampled_from(["", "a", "ab"]), st.none())
_VALUES = st.recursive(_SCALARS, lambda kids: st.one_of(
    st.lists(kids, max_size=3).map(tuple),
    st.builds(_Pair, kids, kids),
    st.builds(_Twin, kids, kids),
    st.frozensets(_SCALARS, max_size=3),
    st.dictionaries(_SCALARS, kids, max_size=3),
), max_leaves=8)


def _equal_copy(v):
    """v rebuilt as new objects of equal value: each tuple a Seq, each
    record a copy, each dict and set in reverse insertion order."""
    if type(v) is tuple:
        return Seq(_equal_copy(x) for x in v)
    if type(v) in (_Pair, _Twin):
        return type(v)(_equal_copy(v.a), _equal_copy(v.b))
    if type(v) is dict:
        return {k: _equal_copy(x) for k, x in reversed(v.items())}
    if type(v) is frozenset:
        return frozenset(reversed(list(v)))
    return v


class TestCanonicalBytes:
    @given(_VALUES)
    @example(frozenset({1, 9}))  # 1 and 9 share a slot: they iterate in insertion order
    def test_equal_values_encode_equally(self, v):
        twin = _equal_copy(v)
        assert twin == v and canonical_bytes(twin) == canonical_bytes(v)

    @given(_VALUES, _VALUES)
    @example(BitString(1, 3), BitString(1, 4))
    @example(((1, 2), 3), (1, 2, 3))
    @example(((1,), 2), ((1, 2),))
    @example((0x169, 2), (1, 0x6902))  # b"i" is 0x69: ints need their lengths
    @example(("as", ""), ("a", "s"))
    @example(2**63, -2**63)
    @example(-1, 255)
    @example(_Pair(1, 2), _Twin(1, 2))
    @example({1: 2}, {2: 1})
    @example("a", BitString(0x61, 8))
    def test_distinct_values_encode_distinctly(self, a, b):
        assert (a == b) == (canonical_bytes(a) == canonical_bytes(b))

    @given(_VALUES)
    @example(initial_switch_state(firewall_app(FirewallConfig(bits=65536))))
    @example(dataclasses.replace(firewall_app().init_ingress[1], pane0=(1 << 65536) - 1))
    @example((sampler_app().mc, McConfig(l2_exclusion={1: [2, 3]}),
              QacAlwaysReady(ready_ports={1, 2})))
    @example(SwitchQueues(q_input=Seq(arrivals(P1, P2)),
                          q_egress=((EgressMeta(1, 0, UNICAST), P3),)))
    def test_digest_is_sha256_of_the_canonical_bytes(self, v):
        # the interpreter's own sha256, which digest takes so as not to load
        # OpenSSL, agrees with hashlib's
        assert digest(v) == hashlib.sha256(canonical_bytes(v)).hexdigest()[:16]

    def test_unknown_type_refused(self):
        with pytest.raises(TypeError, match="cannot canonicalize object"):
            digest((1, object()))


class TestTraceSerialization:
    def test_file_round_trip(self, tmp_path):
        tr = drain_run(identity_app(), [P1, P2], RandomOracle(3, reorder=False))
        path = tmp_path / "t.jsonl"
        write_trace(tr, str(path))
        recs = read_trace_lines(str(path))
        assert recs[0]["type"] == "header"
        assert recs[0]["config_digest"] == tr.config_digest
        assert recs[-1]["type"] == "end"
        body = [r for r in recs if r.get("type") == "step"]
        assert len(body) == len(tr.steps)
        # every line is canonical JSON: compact separators, sorted keys
        for line in (tmp_path / "t.jsonl").read_text().splitlines():
            obj = json.loads(line)
            assert line == json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def test_replay_reproduces_trace_bytes(self):
        cfg = identity_app()
        tr = drain_run(cfg, [P1, P2, P3], RandomOracle(11))
        replay = ReplayOracle([s.decisions for s in tr.steps])
        tr2 = run(cfg, tr.initial_state, tr.initial_queues,
                  len(tr.steps), replay)
        assert trace_to_lines(tr2) == trace_to_lines(tr)

    def test_run_steps_are_the_steps_a_trace_keeps(self):
        cfg = identity_app()
        tr = drain_run(cfg, [P1, P2, P3], RandomOracle(11))
        r = Run(cfg, tr.initial_state, tr.initial_queues, RandomOracle(11))
        assert [r.step() for _ in tr.steps] == tr.steps
        assert (r.state, r.queues) == (tr.final_state, tr.final_queues)

    def test_run_steps_draw_each_decision_inside_next(self):
        # check reads a record only when its step begins: Run.steps must
        # ask the oracle nothing until next() asks for the step
        cfg = identity_app()
        tr = drain_run(cfg, [P1, P2, P3], FifoDrainOracle())
        answers = [tr.steps[0].decisions, tr.steps[1].decisions,
                   {"requested_kind": INGRESS, "input_index": 9}]
        drawn = []

        def draws():
            for i, d in enumerate(answers):
                drawn.append(i)
                yield d

        r = Run(cfg, tr.initial_state, tr.initial_queues, ReplayOracle(draws()))
        steps = r.steps(lambda st, qs: True)
        assert drawn == []
        for i in range(2):
            assert next(steps) == tr.steps[i] and drawn == list(range(i + 1))
        assert next(steps, None) is None and drawn == [0, 1, 2]
        assert r.fault == "OracleOutOfRange: input index 9 for queue of 2"
        assert r.fault_decisions == {"requested_kind": INGRESS, "input_index": 9}
        assert (r.state, r.queues) == (tr.steps[1].post_state, tr.steps[1].post_queues)

    def test_replay_of_a_null_index_faults(self):
        cfg = identity_app()
        tr = drain_run(cfg, [P1, P2], FifoDrainOracle())
        decisions = [dict(s.decisions) for s in tr.steps]
        assert decisions[0]["input_index"] == 0
        decisions[0]["input_index"] = None
        tr2 = run(cfg, tr.initial_state, tr.initial_queues,
                  len(decisions), ReplayOracle(iter(decisions)))
        assert tr2.steps == [] and tr2.fault == "OracleOutOfRange: no recorded input_index"

    def test_replay_past_its_decisions_faults(self):
        cfg = identity_app()
        tr = drain_run(cfg, [P1, P2], FifoDrainOracle())
        tr2 = run(cfg, tr.initial_state, tr.initial_queues, len(tr.steps) + 1,
                  ReplayOracle([s.decisions for s in tr.steps]))
        assert tr2.steps == tr.steps
        assert tr2.fault == "OracleOutOfRange: replay ran out of recorded decisions"

    def test_random_oracle_seed_determinism(self):
        a = drain_run(identity_app(), [P1, P2], RandomOracle(5))
        b = drain_run(identity_app(), [P1, P2], RandomOracle(5))
        assert trace_to_lines(a) == trace_to_lines(b)

    def test_tm_record_is_the_canonical_form(self):
        # every TmMeta the stock apps declare, and random ones, more than the
        # memo keeps: the record's tm_meta is _canon's view, its class name
        # and fields, for the first and any later equal value, so the record
        # bytes are too
        stock = {tm for cfg in (identity_app(), sampler_app(), firewall_app())
                 for tm in cfg.actions}
        assert stock == {_tm(ucast=1), _tm(ucast=2), _tm(mcast_a=100), _tm(drop=1)}
        assert switch._tm_canon(_tm(ucast=2)) == {
            "__kind": "TmMeta", "ucast_egress_port": 2, "copy_to_cpu": 0, "mcast_grp_a": 0,
            "mcast_grp_b": 0, "level1_exclusion_id": 0, "level2_exclusion_id": 0, "rid": 0,
            "drop": 0}
        rng = random.Random(16)
        widths = {"copy_to_cpu": 1, "mcast_grp_a": 16, "mcast_grp_b": 16,
                  "level1_exclusion_id": 16, "level2_exclusion_id": 9, "rid": 16,
                  "drop": 1}
        randoms = [TmMeta(ucast_egress_port=rng.choice([None, rng.randrange(512)]),
                          **{f: rng.getrandbits(w) for f, w in widths.items()})
                   for _ in range(200)]
        for tm in [*stock, *randoms]:
            twin = dataclasses.replace(tm)
            assert switch._tm_canon(tm) == switch._tm_canon(twin) == switch._canon(tm)

    @pytest.mark.parametrize("cfg, packets", [
        (identity_app(), [P1, P2, P3]),
        (recirc_once_app(), [tcp_pkt(ttl=2), tcp_pkt(ttl=4)]),
    ], ids=["identity", "recirculating"])
    def test_record_layout(self, cfg, packets):
        tr = drain_run(cfg, packets, RandomOracle(7))
        lines = trace_to_lines(tr)
        recs = [json.loads(line) for line in lines]
        header, steps, end = recs[0], recs[1:-1], recs[-1]
        assert header["format"] == TRACE_FORMAT == 7
        assert header["state_digest"] == digest(tr.initial_state)
        assert set(header["queues"]) == {"q_input"}
        assert len(steps) == len(tr.steps)
        for rec, step in zip(steps, tr.steps):
            # one snapshot per step: the post state's clock and replaced
            # slots, and of the queues only the lengths
            assert set(rec) == {"type", "decisions", "post", "detail"}
            assert rec["post"] == {**state_digests(step.post_state, step.pre_state),
                                   "lens": [len(step.post_queues.q_input),
                                            len(step.post_queues.q_egress),
                                            len(step.post_queues.q_output)]}
            parsed = step.kind == INGRESS and step.detail.pipeline_out is not None
            assert set(rec["detail"]) == (
                {"scheduled", "recirculate", "p_out"} if step.kind == EGRESS else
                {"from_recirc", "in_port", "p_i"} | ({"tm_meta", "raw_out", "m_repl"}
                                                    if parsed else set()))
        assert set(end) == {"type", "steps", "final_state_digest", "final_queues"}
        assert end["final_state_digest"] == digest(tr.final_state)
        assert end["final_queues"] == queue_digests(tr.final_queues)
        assert set(end["final_queues"]) == {"q_input", "q_egress", "q_output", "p_recirc",
                                            "lens"}
        assert_format_4_loses_nothing(tr, lines)

    @pytest.mark.parametrize("loaded", [
        {"p_recirc": P1},
        {"q_egress": ((EgressMeta(1, 0, UNICAST), P1),)},
        {"q_output": ((1, P1),)},
    ], ids=["p_recirc", "q_egress", "q_output"])
    def test_only_the_workload_starts_queued(self, tmp_path, loaded):
        # the header names the workload and no other queue, so a run that
        # started with more has no trace, and no file is begun
        cfg = identity_app()
        tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=arrivals(P2), **loaded),
                 3, FifoDrainOracle())
        path = tmp_path / "t.jsonl"
        with pytest.raises(ValueError, match="workload alone"):
            write_trace(tr, str(path))
        assert not path.exists()

    @staticmethod
    def _encode_calls_per_step(monkeypatch, n):
        tr = drain_run(identity_app(), [tcp_pkt(sp=i) for i in range(n)])
        calls = 0
        encode = switch._encode

        def counting(obj, out):
            nonlocal calls
            calls += 1
            return encode(obj, out)

        monkeypatch.setattr(switch, "_encode", counting)
        trace_to_lines(tr)
        monkeypatch.setattr(switch, "_encode", encode)
        assert calls
        return calls / len(tr.steps)

    def test_serialization_cost_per_step_does_not_grow(self, monkeypatch):
        # a count, not a timing: digesting whole queues on every step
        # makes the per-step work grow with the queue depth
        small = self._encode_calls_per_step(monkeypatch, 20)
        large = self._encode_calls_per_step(monkeypatch, 40)
        assert large <= 1.1 * small

    def test_untouched_slots_are_not_digested_again(self, monkeypatch):
        # a count: the records digest exactly the state slots whose object
        # a step replaced, on top of the header's state digest and the end
        # record's four (final state and three queues)
        cfg = sampler_app(SamplerConfig(sample_every=2))
        tr = drain_run(cfg, [tcp_pkt(sp=i) for i in range(40)])
        assert {s.kind for s in tr.steps} == {INGRESS, EGRESS}
        calls = 0
        digest_ = switch.digest

        def counting(obj):
            nonlocal calls
            calls += 1
            return digest_(obj)

        expected = trace_to_lines(tr)
        monkeypatch.setattr(switch, "digest", counting)
        assert trace_to_lines(tr) == expected
        monkeypatch.setattr(switch, "digest", digest_)
        replaced = sum(a is not b for s in tr.steps
                       for a, b in zip(_slots(s.pre_state), _slots(s.post_state)))
        assert 0 < replaced < len(tr.steps)
        assert calls == 1 + replaced + 4
        # each record holds the digests of exactly those slots
        assert sum(len(json.loads(line)["post"]) - 2 for line in expected[1:-1]) == replaced

    @pytest.mark.parametrize("oracle", ["fifo-drain", "random"])
    @pytest.mark.parametrize("app", ["identity", "sampler", "firewall"])
    def test_digest_reuse_is_invisible(self, app, oracle):
        # a slot whose object the step kept is absent from the record, and
        # one it replaced is written as the digest of its new object
        cfg = {"identity": identity_app(), "sampler": sampler_app(SamplerConfig(sample_every=2)),
               "firewall": firewall_app(FirewallConfig(window=16, keepalive_period=4))}[app]
        pkts = [rand_packet(random.Random(i)) for i in range(12)] + [tcp_pkt(sp=1)] * 4
        tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=arrivals(*pkts)),
                 60, make_oracle(oracle, seed=5))
        assert tr.fault is None and len(tr.steps) == 60
        for step in tr.steps:
            post = step_to_json(step)["post"]
            pre, new = switch._state_slots(step.pre_state), switch._state_slots(step.post_state)
            assert set(post) - {"t", "lens"} == {n for n in new if new[n] is not pre[n]}
            assert all(post[n] == digest(new[n]) for n in set(post) - {"t", "lens"})

    @pytest.mark.parametrize("keeps", ["same", "equal", "changed"])
    def test_reused_digest_is_the_slots_digest(self, keeps):
        # controls that return their state object itself, a new equal
        # one, or a new different one: a reader that carries each slot's
        # last written digest forward holds every slot's digest, and a new
        # object is written even when it equals the old one
        base = identity_app().components
        new = {"same": lambda s: s, "equal": lambda s: SamplerState(s.counter),
               "changed": lambda s: SamplerState(s.counter + 1)}[keeps]

        def in_control(d, s):
            return base.in_control(d, s)[0], new(s)

        def e_control(d, s):
            return base.e_control(d, s)[0], new(s)

        comps = dataclasses.replace(base, in_control=in_control, e_control=e_control)
        cfg = SwitchConfig(comps, McConfig(), PktGenConfig(), QacMinimal(), app_label="k",
                           init_ingress=(None, SamplerState(), None),
                           init_egress=(None, SamplerState(), None),
                           actions=identity_app().actions)
        tr = drain_run(cfg, [tcp_pkt(sp=i) for i in range(6)], RandomOracle(2))

        def control_slot(st, kind):
            return st.s_i[1] if kind == INGRESS else st.s_e[1]

        kept = {control_slot(s.post_state, s.kind) is control_slot(s.pre_state, s.kind)
                for s in tr.steps if s.call}
        assert kept == {keeps == "same"}
        carried = state_digests(tr.initial_state)
        for line, step in zip(trace_to_lines(tr)[1:], tr.steps):
            post = json.loads(line)["post"]
            name = "s_ic" if step.kind == INGRESS else "s_ec"
            assert (name in post) == (step.call is not None and keeps != "same")
            carried.update(post)
            assert carried["s_ic"] == digest(step.post_state.s_i[1])
            assert carried["s_ec"] == digest(step.post_state.s_e[1])

    @pytest.mark.parametrize("policy, answers, fault, consumed", [
        (QacMinimal(), {"admitted_subset": lambda self, mandatory: [1, 0] * len(mandatory)},
         "OracleOutOfRange: admission mask length 2 for 1 copies",
         {"requested_kind": "ingress", "input_index": 0, "admitted_mask": [True, False]}),
        (QacAlwaysReady(),
         {"admitted_subset": lambda self, mandatory: (x for x in [0] * len(mandatory))},
         "PolicyViolation: oracle dropped a copy destined to an always-ready port",
         {"requested_kind": "ingress", "input_index": 0, "admitted_mask": [False]}),
        (QacMinimal(), {"input_index": lambda self, n: n},
         "OracleOutOfRange: input index 1 for queue of 1",
         {"requested_kind": "ingress", "input_index": 1}),
        (QacMinimal(), {"sched_index": lambda self, n: n},
         "OracleOutOfRange: sched index 1 for queue of 1",
         {"requested_kind": "egress", "sched_index": 1}),
    ], ids=["length", "policy", "input", "sched"])
    def test_fault_records_the_answers(self, policy, answers, fault, consumed):
        # the faulting step's record keeps exactly the answers it consumed,
        # each as the oracle gave it (a mask, whatever iterable of truth
        # values, as a list of bools), and replays to the fault
        oracle = type("Answering", (FifoDrainOracle,), answers)()
        cfg = dataclasses.replace(identity_app(), qac=policy)
        st, qs = initial_switch_state(cfg), SwitchQueues(q_input=arrivals(P1))
        tr = run(cfg, st, qs, 5, oracle)
        assert tr.fault == fault and tr.fault_decisions == consumed
        lines = trace_to_lines(tr)
        assert json.loads(lines[-2]) == {"type": "fault", "error": fault, "decisions": consumed}
        replay = ReplayOracle([*(s.decisions for s in tr.steps), tr.fault_decisions])
        assert trace_to_lines(run(cfg, st, qs, len(tr.steps) + 1, replay)) == lines

    def test_recorded_input_index_is_the_oracles_pick(self):
        class Second(FifoDrainOracle):
            def input_index(self, n):
                return 1 if n > 1 else 0

        # equal arrivals: the queue after the step cannot tell which one
        # went, the record still names the pick
        tr = drain_run(identity_app(), [P1, P1, P2], Second())
        picks = [s.decisions["input_index"] for s in tr.steps if s.kind == INGRESS]
        assert picks == [1, 1, 0]

    def test_fault_record_serialized(self, tmp_path):
        base = identity_app().components

        def broken(d, s):
            return (_tm(mcast_a=1), d[2]), s

        cfg = SwitchConfig(dataclasses.replace(base, in_control=broken),
                           McConfig(), PktGenConfig(), QacMinimal(), app_label="b",
                           actions=(_tm(mcast_a=1),))
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(P1)), 5, FifoDrainOracle())
        path = tmp_path / "f.jsonl"
        write_trace(tr, str(path))
        recs = read_trace_lines(str(path))
        fr = [r for r in recs if r.get("type") == "fault"]
        assert len(fr) == 1
        # the faulting step's consumed choices ride along for replay;
        # UnknownGroup fires before queue admission is consulted
        assert fr[0]["decisions"] == {"requested_kind": "ingress",
                                      "input_index": 0}


def test_make_oracle_policies():
    assert isinstance(make_oracle("fifo-drain"), FifoDrainOracle)
    assert isinstance(make_oracle("random", seed=4), RandomOracle)
    make_oracle("adversarial-drop")
    with pytest.raises(ValueError):
        make_oracle("psychic")


# ---------------------------------------------------------------------------
# streamed runs: given a sink, run writes each line of the trace as its
# step is taken, keeps only the decisions, and replays the steps on demand

STREAM_CONFIGS = {
    "identity": {"app": "identity", "forward_port": 2},
    "sampler": {"app": "sampler", "forward_port": 1, "monitor_port": 3, "sample_every": 2},
    "firewall": {"app": "firewall", "inside_port": 1, "outside_port": 2, "window": 16,
                 "keepalive_period": 4},
}


def _workload(n: int, seed: int = 5) -> SwitchQueues:
    rng = random.Random(seed)
    return SwitchQueues(q_input=tuple(switch.Arrival(rng.choice((1, 2)), rand_packet(rng))
                                      for _ in range(n)))


def _streamed(cfg, qs, n_steps, oracle, **kw):
    """run with a sink that keeps the lines: (the Trace, the file's text)."""
    lines = []
    tr = run(cfg, initial_switch_state(cfg), qs, n_steps, oracle, sink=lines.append, **kw)
    return tr, "".join(lines)


@pytest.mark.parametrize("policy", ORACLE_POLICIES)
@pytest.mark.parametrize("app", list(STREAM_CONFIGS))
def test_a_streamed_run_writes_the_trace_it_would_keep(app, policy, tmp_path):
    cfg, qs = app_from_config(STREAM_CONFIGS[app]), _workload(24)
    stop = lambda s, q: drained(q)
    kept = run(cfg, initial_switch_state(cfg), qs, 300, make_oracle(policy, 3), stop_when=stop)
    streamed, text = _streamed(cfg, qs, 300, make_oracle(policy, 3), stop_when=stop)
    write_trace(kept, str(tmp_path / "t.jsonl"))
    assert text == (tmp_path / "t.jsonl").read_text()
    assert (streamed.final_state, streamed.final_queues, streamed.fault) \
        == (kept.final_state, kept.final_queues, kept.fault)
    assert len(streamed.steps) == len(kept.steps) > 0
    for _ in range(2):  # each pass replays the run
        assert list(streamed.steps) == kept.steps
    assert checker.check_trace(cfg, streamed).ok


def test_a_streamed_fault_writes_its_fault_and_end_records():
    cfg, qs = app_from_config(STREAM_CONFIGS["sampler"]), _workload(3)
    st = initial_switch_state(cfg)
    kept = run(cfg, st, qs, 10, PastTheEndOracle())
    streamed, text = _streamed(cfg, qs, 10, PastTheEndOracle())
    assert kept.fault.startswith("OracleOutOfRange")
    assert (streamed.fault, streamed.fault_decisions) == (kept.fault, kept.fault_decisions)
    assert text.splitlines() == trace_to_lines(kept)
    assert [json.loads(line)["type"] for line in text.splitlines()[-2:]] == ["fault", "end"]
    assert list(streamed.steps) == kept.steps
    # check's replay reproduces the streamed file record by record
    fold = checker.AxiomsFold(cfg, st, qs)
    replayed, n = audit.replay(audit.Records(io.BytesIO(text.encode())), [fold], cfg, st, qs)
    assert replayed is not None and replayed.fault == kept.fault
    assert n == len(kept.steps) and fold.finish(replayed.state, replayed.queues).ok


def test_a_streamed_run_keeps_a_third_of_the_memory_or_less():
    cfg, qs = identity_app(), _workload(2000)
    st = initial_switch_state(cfg)

    def retained(**sink) -> int:
        """Bytes still allocated while the returned Trace is alive."""
        tracemalloc.start()
        try:
            tr = run(cfg, st, qs, 10_000, FifoDrainOracle(),
                     stop_when=lambda s, q: drained(q), **sink)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert drained(tr.final_queues) and len(tr.steps) > 2000
        return held

    kept = retained()
    assert retained(sink=len) < kept / 3
