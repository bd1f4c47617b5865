"""Whole-switch step machine: framing, oracle fallback, faults,
recirculation, and trace serialization."""

import dataclasses
import json
import random

import pytest

from dataplane.pipeline import EgressIndication, TmMeta
from dataplane.engines import McConfig, PktGenConfig, QacAlwaysReady, QacMinimal, Seq
from dataplane import switch
from dataplane.switch import (
    EGRESS,
    FifoDrainOracle,
    INGRESS,
    RandomOracle,
    ReplayOracle,
    Run,
    SwitchConfig,
    SwitchQueues,
    TRACE_FORMAT,
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
    deparse_slots,
    firewall_app,
    identity_app,
    initial_switch_state,
    parse_standard,
    sampler_app,
    _tm,
)

from support import (
    AlwaysEgressOracle,
    arrivals,
    assert_format_4_loses_nothing,
    drain_run,
    drained,
    flow_pair,
    rand_packet,
    tcp_pkt,
    udp_pkt,
)


P1, P2, P3 = tcp_pkt(sp=1), udp_pkt(sp=2), tcp_pkt(sp=3)


def _slots(st):
    return (st.s_g, *st.s_i, *st.s_e)


class TestIdentityRun:
    def test_fifo_preserves_order(self):
        tr = drain_run(identity_app(forward_port=9), [P1, P2, P3])
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
                       McConfig(), PktGenConfig(), QacMinimal(), app_label="drop")
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
            mc=McConfig(), pktgen=PktGenConfig(), qac=QacMinimal(), app_label="broken")
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
                           McConfig(), PktGenConfig(), QacMinimal(), app_label="b")
        st = initial_switch_state(cfg)
        r = Run(cfg, st, SwitchQueues(q_input=arrivals(P1, P2)),
                FifoDrainOracle())
        assert r.step() is None and r.fault.startswith("UnknownGroup")
        assert r.fault_decisions == {"requested_kind": "ingress", "input_index": 0}
        assert r.state == st and len(r.queues.q_input) == 2  # the faulted step changed nothing


def _recirc_once_app() -> SwitchConfig:
    """Odd TTL recirculates after the egress control decrements it, so a
    ttl=2 packet loops exactly once through the register."""
    base = identity_app(forward_port=1).components

    def e_control(d, s):
        em, slots = d
        slots = dict(slots)
        slots["ipv4"] = slots["ipv4"].replace(ttl=slots["ipv4"]["ttl"] - 1)
        return slots, s

    def e_deparser(slots, s):
        ind = EgressIndication(recirculate=slots["ipv4"]["ttl"] & 1)
        return (ind, deparse_slots(slots)), s

    comps = dataclasses.replace(base, e_control=e_control, e_deparser=e_deparser)
    return SwitchConfig(components=comps, mc=McConfig(), pktgen=PktGenConfig(),
                        qac=QacMinimal(), app_label="ttl_loop")


class TestRecirculation:
    def test_register_loop(self):
        cfg = _recirc_once_app()
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
        ({"app": "identity", "forward_port": 2}, ("2eca42cf30a38dd5", "bbaaf906cbb37a61")),
        ({"app": "sampler", "forward_port": 1, "monitor_port": 3, "sample_every": 4},
         ("170b8958da0f5d7d", "c677097a038ea87a")),
        ({"app": "firewall", "inside_port": 1, "outside_port": 2, "window": 100,
          "keepalive_period": 100}, ("cbddef6a41234c54", "548e3381cbcdbd1f")),
    ], ids=["identity", "sampler", "firewall"])
    def test_readme_config_digests_are_pinned(self, config, digests):
        # every trace header carries both, so a change here breaks every
        # recorded trace
        cfg = app_from_config(config)
        assert (config_digest(cfg), digest(initial_switch_state(cfg))) == digests


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

    def test_replay_of_a_null_index_faults(self):
        cfg = identity_app()
        tr = drain_run(cfg, [P1, P2], FifoDrainOracle())
        decisions = [dict(s.decisions) for s in tr.steps]
        assert decisions[0]["input_index"] == 0
        decisions[0]["input_index"] = None
        tr2 = run(cfg, tr.initial_state, tr.initial_queues,
                  len(decisions), ReplayOracle(iter(decisions)))
        assert tr2.steps == [] and tr2.fault == "OracleOutOfRange: no recorded input_index"

    def test_random_oracle_seed_determinism(self):
        a = drain_run(identity_app(), [P1, P2], RandomOracle(5))
        b = drain_run(identity_app(), [P1, P2], RandomOracle(5))
        assert trace_to_lines(a) == trace_to_lines(b)

    def test_tm_record_is_the_canonical_form(self):
        # every TmMeta the stock apps emit, and random ones: the record's
        # tm_meta is the generic _canon walk's, so the record bytes are too
        pkts = [rand_packet(random.Random(i)) for i in range(8)]
        runs = [(identity_app(), arrivals(*pkts)),
                (sampler_app(SamplerConfig(sample_every=2)), arrivals(*pkts)),
                (firewall_app(FirewallConfig(window=16, keepalive_period=4)),
                 sum((arrivals(out, port=1) + arrivals(back, port=2)
                      for out, back in map(flow_pair, range(4))), ()))]
        stock = set()
        for cfg, q_input in runs:
            tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=q_input), 40,
                     FifoDrainOracle())
            stock |= {s.detail.pipeline_out[0] for s in tr.steps
                      if s.kind == INGRESS and s.detail.pipeline_out is not None}
        assert stock == {_tm(ucast=1), _tm(ucast=2), _tm(mcast_a=100), _tm(drop=1)}
        rng = random.Random(16)
        widths = {"copy_to_cpu": 1, "mcast_grp_a": 16, "mcast_grp_b": 16,
                  "level1_exclusion_id": 16, "level2_exclusion_id": 9, "rid": 16,
                  "drop": 1}
        randoms = [TmMeta(ucast_egress_port=rng.choice([None, rng.randrange(512)]),
                          **{f: rng.getrandbits(w) for f, w in widths.items()})
                   for _ in range(200)]
        for tm in [*stock, *randoms]:
            assert switch._tm_json(tm) == switch._canon(tm)

    @pytest.mark.parametrize("cfg, packets", [
        (identity_app(), [P1, P2, P3]),
        (_recirc_once_app(), [tcp_pkt(ttl=2), tcp_pkt(ttl=4)]),
    ], ids=["identity", "recirculating"])
    def test_record_layout(self, cfg, packets):
        tr = drain_run(cfg, packets, RandomOracle(7))
        lines = trace_to_lines(tr)
        recs = [json.loads(line) for line in lines]
        header, steps, end = recs[0], recs[1:-1], recs[-1]
        assert header["format"] == TRACE_FORMAT == 5
        assert header["state_digest"] == digest(tr.initial_state)
        assert set(header["queues"]) == {"q_input", "p_recirc", "q_egress", "q_output"}
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

    @staticmethod
    def _canon_calls_per_step(monkeypatch, n):
        tr = drain_run(identity_app(), [tcp_pkt(sp=i) for i in range(n)])
        calls = 0
        canon = switch._canon

        def counting(obj):
            nonlocal calls
            calls += 1
            return canon(obj)

        monkeypatch.setattr(switch, "_canon", counting)
        trace_to_lines(tr)
        monkeypatch.setattr(switch, "_canon", canon)
        return calls / len(tr.steps)

    def test_serialization_cost_per_step_does_not_grow(self, monkeypatch):
        # a count, not a timing: digesting whole queues on every step
        # makes the per-step work grow with the queue depth
        small = self._canon_calls_per_step(monkeypatch, 20)
        large = self._canon_calls_per_step(monkeypatch, 40)
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
                           init_egress=(None, SamplerState(), None))
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
        cfg = identity_app(qac=policy)
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
                           McConfig(), PktGenConfig(), QacMinimal(), app_label="b")
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
