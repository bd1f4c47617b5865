"""The relational checker: honest runs pass, doctored runs are blamed
on exactly the clause their edit violates, and the specialized stream
checks agree with independent quadratic formulations."""

import dataclasses
import inspect
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from dataplane import apps, engines, switch
from dataplane.cli import main
from dataplane.packet_format import (
    BitString, Branch, Concat, ExactValue, HeaderType, IllFormedFormat, TypedValue,
    compile_format, encode,
)
from dataplane.engines import PktGenConfig
from dataplane.pipeline import ingress_pipeline
from dataplane.switch import (
    AdversarialDropOracle,
    Arrival,
    FifoDrainOracle,
    RandomOracle,
    SwitchQueues,
    run,
)
from dataplane.apps import (
    KEEPALIVE_ETHERTYPE,
    FirewallConfig,
    SamplerConfig,
    SamplerState,
    _parser,
    firewall_app,
    flow_key,
    identity_app,
    initial_switch_state,
    parse_sampled,
    parse_standard,
    sampler_app,
)
from dataplane.headers import (
    ETHERNET, INTRINSIC_META, IP_PROTO_TCP, IP_PROTO_UDP, IPV4, PORT_META, SAMPLE_HEADER,
    SAMPLED_FORMAT, STANDARD_FORMAT, TCP, UDP,
)
from dataplane.checker import (
    ALL_CLAUSES,
    CLAUSES,
    AxiomsFold,
    LangsecFold,
    SamplerFold,
    Verdict,
    _bad,
    _subsequence_mask,
    check_step,
    check_trace,
    dense_flow_check,
    expected_outputs,
    expected_sample_packet,
    firewall_freshness_check,
    five_tuple_key,
    fold_trace,
    format_acceptance_check,
    parser_oblivious_check,
    sampler_spec_check,
    sampler_trace_check,
    wire_fields,
)

from support import (
    AlwaysIngressOracle,
    arrivals,
    count_pipeline_calls,
    drain_run,
    drained,
    drop_last_multicast_copy,
    forge_catalog,
    mangle,
    rand_packet,
    rand_typed,
    recirc_once_app,
    ref_is_subsequence,
    ref_parse_sampled,
    ref_parse_standard,
    ref_sampler_check,
    ref_sampler_outputs,
    replication_of,
    tcp_pkt,
    udp_pkt,
    with_fields,
    write_wrong_sample_count,
)


# ---------------------------------------------------------------------------
# honest runs satisfy every per-step clause


HONEST_CASES = [
    ("identity-fifo", identity_app(), FifoDrainOracle(), 3),
    ("identity-random", identity_app(), RandomOracle(1), 5),
    ("identity-drop", identity_app(), AdversarialDropOracle(), 4),
    ("sampler-fifo", sampler_app(SamplerConfig(sample_every=2)), FifoDrainOracle(), 6),
    ("sampler-random", sampler_app(SamplerConfig(sample_every=2)), RandomOracle(2), 6),
    ("firewall-fifo", firewall_app(FirewallConfig(window=16, keepalive_period=4)),
     FifoDrainOracle(), 4),
]


@pytest.mark.parametrize("label,cfg,oracle,n", HONEST_CASES,
                         ids=[c[0] for c in HONEST_CASES])
def test_honest_traces_pass(label, cfg, oracle, n):
    pkts = [rand_packet(random.Random(10 + i)) for i in range(n)]
    tr = run(cfg, initial_switch_state(cfg),
             SwitchQueues(q_input=arrivals(*pkts)), 6 * n, oracle)
    assert tr.fault is None
    v = check_trace(cfg, tr)
    assert v.ok, (label, v)


def test_honest_trace_with_reordering_oracle():
    cfg = identity_app()
    pkts = [tcp_pkt(sp=i) for i in range(6)]
    tr = run(cfg, initial_switch_state(cfg),
             SwitchQueues(q_input=arrivals(*pkts)), 40, RandomOracle(7, reorder=True))
    assert check_trace(cfg, tr).ok


# ---------------------------------------------------------------------------
# forgeries: one edit, one clause


FORGERIES = forge_catalog()


@pytest.mark.parametrize("forgery", FORGERIES, ids=[f.clause for f in FORGERIES])
def test_forgery_blamed_on_exact_clause(forgery):
    v = check_step(forgery.cfg, forgery.step, replication_of(forgery.cfg))
    assert not v.ok, forgery.clause
    assert v.violated_clause == forgery.clause, (v.violated_clause, v.detail)


def test_forgery_catalog_is_broad():
    covered = {f.clause for f in FORGERIES}
    assert len(covered) == len(FORGERIES)  # one forgery per clause
    # every step-level clause is represented; continuity and divergence
    # are trace/file-level and covered elsewhere
    assert covered == set(CLAUSES) - {"trace.continuity", "trace.divergence"}


@pytest.mark.parametrize("forgery", FORGERIES, ids=[f.clause for f in FORGERIES])
def test_forgery_blamed_alike_with_and_without_its_call(forgery):
    # a forged step keeps the honest step's pipeline call; the checker
    # may lend it only where a recomputation would say the same
    bare = dataclasses.replace(forgery.step, call=None)
    assert bare == forgery.step  # the call takes no part in equality
    table = replication_of(forgery.cfg)
    v_call, v_bare = (check_step(forgery.cfg, forgery.step, table),
                      check_step(forgery.cfg, bare, table))
    assert v_call.violated_clause == v_bare.violated_clause == forgery.clause


def test_forgeries_carry_their_honest_calls():
    # only the idle tick ran no pipeline
    assert {f.clause for f in FORGERIES if f.step.call is None} == {"ingress.no_packet_frame"}


def test_trace_continuity_forgery():
    cfg = identity_app()
    tr = drain_run(cfg, [tcp_pkt(), udp_pkt()])
    assert len(tr.steps) >= 2
    hacked = dataclasses.replace(
        tr.steps[1],
        pre_state=dataclasses.replace(tr.steps[1].pre_state, t=999))
    tr.steps[1] = hacked
    v = check_trace(cfg, tr)
    assert not v.ok and v.violated_clause == "trace.continuity" and v.step == 1


def test_edited_final_queues_break_trace_continuity_at_step_n():
    cfg = identity_app()
    tr = drain_run(cfg, [tcp_pkt(), udp_pkt()])
    tr = dataclasses.replace(tr, final_queues=dataclasses.replace(tr.final_queues, q_output=()))
    v = check_trace(cfg, tr)
    assert not v.ok and v.violated_clause == "trace.continuity" and v.step == len(tr.steps)


# ---------------------------------------------------------------------------
# branches of the per-step clauses that no forgery of the catalog reaches


def _with_queues(step, **kw):
    return dataclasses.replace(step, post_queues=dataclasses.replace(step.post_queues, **kw))


def test_recirculation_passes_and_also_emitting_is_egress_output_ports():
    cfg = recirc_once_app()
    tr = drain_run(cfg, [tcp_pkt(ttl=2)])
    assert check_trace(cfg, tr).ok
    s = next(s for s in tr.steps if s.kind == "egress" and s.detail.indication.recirculate)
    assert s.post_queues.p_recirc is not None
    forged = _with_queues(s, q_output=(*s.post_queues.q_output, (1, s.post_queues.p_recirc)))
    assert check_step(cfg, forged, replication_of(cfg)).violated_clause == "egress.output_ports"


def test_generated_packet_with_moving_input_queue_is_ingress_input_ports():
    cfg = dataclasses.replace(identity_app(), pktgen=PktGenConfig(
        enabled=True, period=5, template=tcp_pkt(sp=1)))
    tr = run(cfg, initial_switch_state(cfg),
             SwitchQueues(q_input=arrivals(tcp_pkt(), udp_pkt())), 10, AlwaysIngressOracle())
    s = next(s for s in tr.steps if s.detail.p_g is not None and s.pre_queues.q_input)
    table = replication_of(cfg)
    assert check_step(cfg, s, table).ok
    forged = _with_queues(s, q_input=tuple(s.pre_queues.q_input)[1:])
    v = check_step(cfg, forged, table)
    assert v.violated_clause == "ingress.input_ports" and "generator" in v.detail


def test_empty_input_queue_changing_is_ingress_input_ports():
    cfg = identity_app()
    s = run(cfg, initial_switch_state(cfg), SwitchQueues(), 1, FifoDrainOracle()).steps[0]
    table = replication_of(cfg)
    assert not s.pre_queues.q_input and check_step(cfg, s, table).ok
    v = check_step(cfg, _with_queues(s, q_input=arrivals(tcp_pkt())), table)
    assert v.violated_clause == "ingress.input_ports" and "empty" in v.detail


# ---------------------------------------------------------------------------
# subsequence scan vs reachability table


def test_subsequence_agreement():
    rng = random.Random(31)
    for _ in range(500):
        seq = [rng.randrange(4) for _ in range(rng.randrange(10))]
        if rng.random() < 0.5:
            sub = [x for x in seq if rng.random() < 0.6]
        else:
            sub = [rng.randrange(4) for _ in range(rng.randrange(8))]
        embeds = sum(_subsequence_mask(sub, seq)) == len(sub)
        assert embeds == ref_is_subsequence(sub, seq), (sub, seq)


# ---------------------------------------------------------------------------
# sampler stream relation


SC = SamplerConfig(forward_port=1, monitor_port=3, sample_every=4)


class TestSamplerSpecCheck:
    def test_complete_stream(self):
        inputs = [tcp_pkt(sp=i, payload=bytes([i])) for i in range(9)]
        outs = ref_sampler_outputs(0, inputs, SC)
        assert sampler_spec_check(0, inputs, outs, SC, require_complete=True).ok

    def test_nonzero_initial_count(self):
        # n=3: the very first packet lands on a sampling multiple
        inputs = [udp_pkt(sp=50)]
        outs = ref_sampler_outputs(3, inputs, SC)
        assert len(outs) == 2
        assert sampler_spec_check(3, inputs, outs, SC, require_complete=True).ok
        # claiming the wrong initial count must fail
        assert not sampler_spec_check(0, inputs, outs, SC).ok

    def test_drops_allowed_without_completeness(self):
        rng = random.Random(5)
        inputs = [tcp_pkt(sp=i) for i in range(12)]
        outs = [o for o in ref_sampler_outputs(0, inputs, SC) if rng.random() < 0.6]
        assert sampler_spec_check(0, inputs, outs, SC).ok
        if len(outs) < len(ref_sampler_outputs(0, inputs, SC)):
            v = sampler_spec_check(0, inputs, outs, SC, require_complete=True)
            assert not v.ok and v.violated_clause == "sampler.incomplete"

    def test_monitor_before_forward_rejected(self):
        inputs = [tcp_pkt(sp=9)]
        outs = ref_sampler_outputs(3, inputs, SC)
        swapped = [outs[1], outs[0]]
        v = sampler_spec_check(3, inputs, swapped, SC)
        assert not v.ok and v.violated_clause == "sampler.stream"

    def test_foreign_output_rejected(self):
        inputs = [tcp_pkt(sp=1)]
        outs = ref_sampler_outputs(0, inputs, SC) + [(SC.forward_port, udp_pkt(sp=404))]
        v = sampler_spec_check(0, inputs, outs, SC)
        assert not v.ok and v.violated_clause == "sampler.stream"

    def test_unexpected_port(self):
        inputs = [tcp_pkt(sp=1)]
        v = sampler_spec_check(0, inputs, [(17, inputs[0])], SC)
        assert not v.ok and v.violated_clause == "sampler.unexpected_port"

    def test_wrong_sample_count_rejected(self):
        inputs = [tcp_pkt(sp=2)]
        bad = [(SC.forward_port, inputs[0]),
               (SC.monitor_port, expected_sample_packet(5, inputs[0]))]
        # count 4 is expected at n=3; 5 is a lie
        v = sampler_spec_check(3, inputs, bad, SC)
        assert not v.ok and v.violated_clause == "sampler.stream"

    def test_empty_is_fine(self):
        assert sampler_spec_check(0, [], [], SC, require_complete=True).ok

    def test_agreement_with_reachability_table(self):
        rng = random.Random(8)
        pool = [tcp_pkt(sp=1), tcp_pkt(sp=1, payload=b"x"), udp_pkt(sp=2)]
        for _ in range(300):
            n = rng.randrange(6)
            inputs = [rng.choice(pool) for _ in range(rng.randrange(8))]
            full = ref_sampler_outputs(n, inputs, SC)
            outs = [o for o in full if rng.random() < 0.7]
            if rng.random() < 0.3:
                rng.shuffle(outs)
            if rng.random() < 0.2 and outs:
                outs[rng.randrange(len(outs))] = (SC.forward_port, udp_pkt(sp=99))
            got = sampler_spec_check(n, inputs, outs, SC).ok
            want = ref_sampler_check(n, inputs, outs, SC)
            assert got == want, (n, len(inputs), outs)

    @pytest.mark.parametrize("n", [0, 3, (1 << 32) - 2])
    def test_expected_outputs_match_reference(self, n):
        # n = 2^32 - 2 wraps the count to 0, a multiple of every period
        rng = random.Random(n)
        for _ in range(20):
            inputs = [rand_packet(rng) for _ in range(rng.randrange(10))]
            assert expected_outputs(n, inputs, SC) == ref_sampler_outputs(n, inputs, SC)


# every packet sampled, so each one's monitor copy is compared
EVERY_PACKET = SamplerConfig(forward_port=1, monitor_port=3, sample_every=1)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_wire_fields_agree_with_the_parsers(data):
    # random fixed headers with a drawn ethertype and protocol, then
    # random bits, cut at or around the lengths where the layout's
    # acceptance changes, byte aligned or not
    meta, port_md, eth, ipv4 = (TypedValue.of_word(h, data.draw(st.integers(0, h.mask)))
                                for h in (INTRINSIC_META, PORT_META, ETHERNET, IPV4))
    eth = with_fields(eth, ethertype=data.draw(
        st.sampled_from([KEEPALIVE_ETHERTYPE, 0x0800]) | st.integers(0, 0xFFFF), "ethertype"))
    ipv4 = with_fields(ipv4, protocol=data.draw(
        st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP]) | st.integers(0, 0xFF), "protocol"))
    full = (encode(meta) + encode(port_md) + encode(eth) + encode(ipv4)
            + BitString(data.draw(st.integers(0, (1 << 240) - 1)), 240))
    n = data.draw(st.sampled_from([0, 399, 400, 463, 464, 559, 560])
                  | st.integers(0, full.nbits), "length")
    p = full.take(n)

    w, parsed = wire_fields(p), parse_standard(p)
    assert (w is not None) == (ref_parse_standard(p) is not None) == (parsed is not None)
    if w is None:
        return
    assert w.ethertype == parsed.slots["ethernet"]["ethertype"]
    for inbound in (True, False):
        assert five_tuple_key(w, inbound) == flow_key(parsed.slots, inbound)
    count = data.draw(st.integers(0, 3), "count")
    assert (expected_outputs(count, [p], EVERY_PACKET)
            == ref_sampler_outputs(count, [p], EVERY_PACKET))


def test_sampler_trace_check_end_to_end():
    cfg = sampler_app(SC)
    pkts = [tcp_pkt(sp=i, payload=bytes([i % 256])) for i in range(11)]
    tr = drain_run(cfg, pkts)
    assert sampler_trace_check(tr, SC).ok
    # under random admission the relation still holds, minus completeness
    tr2 = run(cfg, initial_switch_state(cfg),
              SwitchQueues(q_input=arrivals(*pkts)), 80,
              RandomOracle(3, reorder=False))
    assert sampler_trace_check(tr2, SC).ok


def test_sampler_trace_check_nonzero_counter():
    cfg = sampler_app(SC)
    cfg = dataclasses.replace(cfg, init_ingress=(None, SamplerState(counter=2), None))
    tr = drain_run(cfg, [tcp_pkt(sp=1), tcp_pkt(sp=2)])
    # counts 3 and 4; 4 samples
    assert sampler_trace_check(tr, SC).ok
    assert len(tr.final_queues.q_output) == 3


def test_sampler_trace_check_catches_a_dropped_copy(tmp_path, monkeypatch):
    # every copy replication made was admitted and the run drained, so
    # the outputs must be complete; the mutant loses the 50 monitor copies
    wl = tmp_path / "w.jsonl"
    assert main(["gen", "--count", "200", "--seed", "7", "--ports", "1,2",
                 "--out", str(wl)]) == 0
    q_input = tuple(Arrival(o["port"], BitString.from_json(o["packet"]))
                    for o in map(json.loads, wl.read_text().splitlines()))
    drop_last_multicast_copy(monkeypatch)
    cfg = sampler_app(SC)
    tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=q_input), 1000,
             FifoDrainOracle(), stop_when=lambda s, q: drained(q))
    assert drained(tr.final_queues) and check_trace(cfg, tr).ok
    v = sampler_trace_check(tr, SC)
    assert (v.violated_clause, v.detail) == ("sampler.incomplete",
                                             "200 outputs for 250 expected")


def test_no_replication_table_outlives_its_run(monkeypatch):
    # the executor tables replication per Run and the axioms per fold, so
    # an engine patched in after one run is seen by every later run, of
    # an equal config or of the very same one, and by every later fold
    pkts = [tcp_pkt(sp=i) for i in range(8)]
    first, second = sampler_app(SC), sampler_app(SC)
    assert first.mc == second.mc and first.mc is not second.mc
    honest = drain_run(first, pkts)
    assert sampler_trace_check(honest, SC).ok and check_trace(first, honest).ok
    drop_last_multicast_copy(monkeypatch)
    for cfg in (second, first):
        tr = drain_run(cfg, pkts)
        v = sampler_trace_check(tr, SC)
        assert (v.violated_clause, v.detail) == ("sampler.incomplete",
                                                 "8 outputs for 10 expected")
        assert check_trace(cfg, tr).ok
    # the honest run made the monitor copies the patched engine does not
    v = check_trace(first, honest)
    assert (v.violated_clause, v.step) == ("ingress.replication",
                                           _first_sampled_ingress(honest))


def _first_sampled_ingress(tr) -> int:
    return next(i for i, s in enumerate(tr.steps)
                if s.kind == "ingress" and s.detail.m_repl and len(s.detail.m_repl) > 1)


def test_axioms_fold_replicates_once_per_tm_meta(monkeypatch):
    # the run and the fold each walk every declared action once, in
    # declaration order, before their first step
    calls = []
    real = engines.replication_engine
    monkeypatch.setattr(engines, "replication_engine",
                        lambda c, m: calls.append(m) or real(c, m))
    cfg = sampler_app(SC)
    declared = [apps._tm(ucast=SC.forward_port), apps._tm(mcast_a=SC.monitor_group)]
    assert list(cfg.actions) == declared
    switch.Run(cfg, initial_switch_state(cfg), SwitchQueues(), FifoDrainOracle())
    assert calls == declared  # the run's table, with no step taken
    calls.clear()
    tr = drain_run(cfg, [tcp_pkt(sp=i) for i in range(8)])
    assert calls == declared
    calls.clear()
    fold = AxiomsFold(cfg, tr.initial_state, tr.initial_queues)
    assert calls == declared  # the fold's own, with no step fed
    assert fold_trace(fold, tr).ok and calls == declared
    # check_step walks no tree: it reads the table it is handed
    calls.clear()
    parsed = [s for s in tr.steps if s.kind == "ingress" and s.detail.pipeline_out]
    assert all(check_step(cfg, s, fold.replication).ok for s in parsed)
    assert len(parsed) == 8 and calls == []


def test_an_action_whose_walk_fails_has_no_copies():
    # the checker's table keeps the error of a declared action's walk, so
    # a step emitting that action is blamed like one emitting no declared
    # action at all
    cfg = sampler_app(SamplerConfig(sample_every=1))
    tr = drain_run(cfg, [tcp_pkt()])
    v = check_trace(dataclasses.replace(cfg, mc=engines.McConfig()), tr)
    assert (v.violated_clause, v.step) == ("ingress.undeclared_action", 0)
    assert v.detail.endswith(": multicast group 100 not configured")


class _NewestArrivalFirst(FifoDrainOracle):
    def input_index(self, n):
        return n - 1


class _NewestCopyFirst(FifoDrainOracle):
    def sched_index(self, n):
        return n - 1


@pytest.mark.parametrize("oracle, in_order", [
    (RandomOracle(5, reorder=True), False),
    (_NewestArrivalFirst(), True),
    (_NewestCopyFirst(), False),
], ids=["random", "newest-arrival", "newest-copy"])
def test_sampler_trace_check_needs_oldest_first(oracle, in_order):
    # the ordered relation needs copies scheduled oldest first; the
    # counts follow consumption order, so which arrival a step takes
    # does not matter.  A run that schedules otherwise is judged as a
    # multiset, which its permuted outputs meet and the order does not
    pkts = [tcp_pkt(sp=i, payload=bytes([i])) for i in range(11)]
    tr = drain_run(sampler_app(SC), pkts, oracle)
    fold = SamplerFold(tr.initial_state, SC)
    assert fold_trace(fold, tr).ok and fold.in_order is in_order
    inputs = [s.detail.p_i for s in tr.steps if s.kind == "ingress" and s.detail.pipeline_out]
    outs = tr.final_queues.q_output
    assert sampler_spec_check(0, inputs, outs, SC).ok is in_order
    assert sampler_spec_check(0, inputs, outs, SC, ordered=False).ok


def test_sampler_order_is_by_position_not_value():
    # four equal packets, the third sampled: the first egress step takes
    # the last copy, equal to the head, and the monitor copy then leaves
    # before the fourth packet's forward copy.  Only the multiset holds
    scfg = SamplerConfig(forward_port=1, monitor_port=3, sample_every=3)
    tr = drain_run(sampler_app(scfg), [tcp_pkt()] * 4, RandomOracle(48, reorder=True, drop_rate=0))
    first = next(s for s in tr.steps if s.kind == "egress")
    assert first.decisions["sched_index"] == 4
    assert first.detail.scheduled == first.pre_queues.q_egress[0]
    fold = SamplerFold(tr.initial_state, scfg)
    assert fold_trace(fold, tr).ok and fold.in_order is False
    assert [port for port, _ in tr.final_queues.q_output] == [1, 1, 1, 1, 3]
    assert not sampler_spec_check(0, fold.inputs, tr.final_queues.q_output, scfg).ok


# a small pool, so a workload repeats packets and equal outputs are
# matched by count; the last one the parser rejects
_POOL = [tcp_pkt(sp=1), tcp_pkt(sp=1, payload=b"x"), udp_pkt(sp=2), tcp_pkt().take(100)]


@settings(max_examples=80, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16), drop_rate=st.sampled_from([0.0, 0.3, 0.7]),
       every=st.integers(1, 4), picks=st.lists(st.integers(0, len(_POOL) - 1), max_size=14))
def test_sampler_relation_holds_under_any_schedule(seed, drop_rate, every, picks):
    scfg = SamplerConfig(forward_port=1, monitor_port=3, sample_every=every)
    tr = drain_run(sampler_app(scfg), [_POOL[i] for i in picks],
                   RandomOracle(seed, reorder=True, drop_rate=drop_rate))
    fold = SamplerFold(tr.initial_state, scfg)
    assert fold_trace(fold, tr).ok
    if drop_rate == 0:  # nothing dropped and the run drained: every packet left
        assert fold.dropped is False
        assert len(tr.final_queues.q_output) == len(expected_outputs(0, fold.inputs, scfg))


@pytest.mark.parametrize("mutant, clause", [
    (drop_last_multicast_copy, "sampler.incomplete"),
    (write_wrong_sample_count, "sampler.stream"),
], ids=["dropped-copy", "wrong-count"])
def test_sampler_mutants_killed_under_any_schedule(monkeypatch, mutant, clause):
    pkts = [tcp_pkt(sp=i % 5, payload=bytes([i % 3])) for i in range(24)]
    mutant(monkeypatch)
    cfg = sampler_app(SC)
    for seed in range(10):
        tr = drain_run(cfg, pkts, RandomOracle(seed, reorder=True, drop_rate=0))
        assert check_trace(cfg, tr).ok
        assert sampler_trace_check(tr, SC).violated_clause == clause


def test_sampler_generated_packets_are_not_arrivals():
    # the generator preempts a non-empty input queue without taking from it
    pktgen = PktGenConfig(enabled=True, period=3, template=tcp_pkt(sp=999))
    pkts = [tcp_pkt(sp=i, payload=bytes([i])) for i in range(11)]
    tr = drain_run(dataclasses.replace(sampler_app(SC), pktgen=pktgen), pkts)
    assert any(s.kind == "ingress" and s.detail.p_g is not None and s.pre_queues.q_input
               for s in tr.steps)
    assert sampler_trace_check(tr, SC).ok


# ---------------------------------------------------------------------------
# malformed-input isolation


def _langsec_one(cfg, p):
    """LangsecFold's verdict on the one ingress step that takes p."""
    return fold_trace(LangsecFold(cfg), run(cfg, initial_switch_state(cfg),
                                            SwitchQueues(q_input=arrivals(p)), 1,
                                            FifoDrainOracle()))


class TestLangsec:
    def test_truncated_packet_isolated(self):
        cfg = sampler_app(SC)
        for cut in (0, 1, 17, 399):
            bad = tcp_pkt().take(cut)
            assert _langsec_one(cfg, bad).ok

    def test_mangled_corpus(self):
        rng = random.Random(12)
        cfg = sampler_app(SC)
        for _ in range(50):
            assert _langsec_one(cfg, mangle(rng, rand_packet(rng))).ok

    def test_parseable_packet_passes(self):
        # a parsed input belongs to the program, whatever it does
        assert _langsec_one(sampler_app(SC), tcp_pkt()).ok

    def test_reject_after_a_parse_is_judged(self):
        # a copy of the parsed packet is queued when the malformed one is
        # taken: the reject may move neither it nor the control's state
        cfg = sampler_app(SamplerConfig(sample_every=1))
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(tcp_pkt(), tcp_pkt().take(30))), 2,
                 AlwaysIngressOracle())
        first, reject = tr.steps
        assert reject.pre_queues.q_egress and fold_trace(LangsecFold(cfg), tr).ok
        for forged, clause in (
                (_with_queues(reject, q_egress=()), "langsec.queue_frame"),
                (dataclasses.replace(reject, post_state=dataclasses.replace(
                    reject.post_state, s_i=(None, SamplerState(7), None))), "langsec.state_frame")):
            v = fold_trace(LangsecFold(cfg), dataclasses.replace(tr, steps=[first, forged]))
            assert (v.violated_clause, v.step) == (clause, 1)

    def test_generator_preemption_detected(self):
        # a burst of three malformed packets moves the generator's state
        # on ticks whose rejected packet is its own, and on no other
        noisy = dataclasses.replace(sampler_app(SC), pktgen=PktGenConfig(
            enabled=True, period=5, pkts_per_batch=3, template=tcp_pkt().take(10)))
        tr = run(noisy, initial_switch_state(noisy),
                 SwitchQueues(q_input=arrivals(tcp_pkt().take(20), tcp_pkt().take(30))), 6,
                 FifoDrainOracle())
        kinds = [(s.detail.p_g is not None, s.pre_state.s_g != s.post_state.s_g)
                 for s in tr.steps]
        assert kinds == [(True, True)] * 3 + [(False, False)] * 2 + [(True, True)]
        assert fold_trace(LangsecFold(noisy), tr).ok
        moved = dataclasses.replace(tr.steps[3], post_state=dataclasses.replace(
            tr.steps[3].post_state, s_g=tr.steps[0].post_state.s_g))
        v = fold_trace(LangsecFold(noisy), dataclasses.replace(
            tr, steps=tr.steps[:3] + [moved] + tr.steps[4:]))
        assert (v.violated_clause, v.step) == ("langsec.state_frame", 3)
        # the same run judged as one with the generator off
        quiet = dataclasses.replace(noisy, pktgen=PktGenConfig())
        v = fold_trace(LangsecFold(quiet), tr)
        assert (v.violated_clause, v.step) == ("langsec.state_frame", 0)

    def test_trace_form_passes_on_honest_run(self):
        rng = random.Random(3)
        cfg = identity_app()
        bads = [mangle(rng, rand_packet(rng)) for _ in range(20)]
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(*bads)), 20, FifoDrainOracle())
        assert fold_trace(LangsecFold(cfg), tr).ok

    def test_trace_form_blames_state_edit(self):
        cfg = identity_app()
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(tcp_pkt().take(30))), 1,
                 FifoDrainOracle())
        tr.steps[0] = dataclasses.replace(
            tr.steps[0],
            post_state=dataclasses.replace(tr.steps[0].post_state,
                                           s_i=(None, "leak", None)))
        v = fold_trace(LangsecFold(cfg), tr)
        assert not v.ok and v.violated_clause == "langsec.state_frame"

    def test_trace_form_blames_queue_edit(self):
        cfg = identity_app()
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(tcp_pkt().take(30))), 1,
                 FifoDrainOracle())
        tr.steps[0] = dataclasses.replace(
            tr.steps[0],
            post_queues=dataclasses.replace(tr.steps[0].post_queues,
                                            q_output=((1, tcp_pkt()),)))
        v = fold_trace(LangsecFold(cfg), tr)
        assert not v.ok and v.violated_clause == "langsec.queue_frame"

    def test_egress_step_is_langsec_queue_frame(self):
        cfg = identity_app()
        tr = drain_run(cfg, [tcp_pkt()])
        tr = dataclasses.replace(tr, steps=[s for s in tr.steps if s.kind == "egress"])
        v = fold_trace(LangsecFold(cfg), tr)
        assert not v.ok and v.violated_clause == "langsec.queue_frame" and v.step == 0

    def test_two_arrivals_dropped_is_langsec_queue_frame(self):
        cfg = identity_app()
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(tcp_pkt().take(30), tcp_pkt().take(20))), 1,
                 FifoDrainOracle())
        tr.steps[0] = dataclasses.replace(
            tr.steps[0], post_queues=dataclasses.replace(tr.steps[0].post_queues, q_input=()))
        v = fold_trace(LangsecFold(cfg), tr)
        assert not v.ok and v.violated_clause == "langsec.queue_frame" and v.step == 0
        assert "at most one" in v.detail

    def test_trace_form_judges_a_generator(self):
        # the firewall's keepalives parse, and the malformed arrivals
        # between them are judged
        cfg = firewall_app(FirewallConfig())
        rng = random.Random(4)
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=arrivals(*(mangle(rng, rand_packet(rng))
                                                 for _ in range(20)))), 40, FifoDrainOracle())
        assert any(s.detail.p_g is not None for s in tr.steps if s.kind == "ingress")
        assert fold_trace(LangsecFold(cfg), tr).ok


# ---------------------------------------------------------------------------
# parser obliviousness and format acceptance


def _parser_corpus():
    """Whole and cut-short packets, then the same behind sample records;
    the cuts include every byte boundary of a TCP and a UDP packet."""
    rng = random.Random(6)
    corpus = [rand_packet(rng) for _ in range(30)]
    corpus += [mangle(rng, p) for p in corpus[:15]]
    for p in (tcp_pkt(payload=b"xy"), udp_pkt()):
        corpus += [p.take(n) for n in range(0, len(p) + 1, 8)]
    sampled = [encode(rand_typed(rng, SAMPLE_HEADER)) + p for p in corpus]
    return corpus, sampled


def _rewrite(f, piece):
    """f with every piece g replaced by piece(g)."""
    f = piece(f)
    if isinstance(f, Concat):
        return Concat(_rewrite(f.left, piece), _rewrite(f.right, piece))
    if isinstance(f, Branch):
        return dataclasses.replace(f, then=_rewrite(f.then, piece), els=_rewrite(f.els, piece))
    return f


def _wide_ethertype(g):
    """Mutant: ethernet's ethertype declared 17 bits wide."""
    if isinstance(g, ExactValue) and g.htype == ETHERNET:
        return ExactValue(g.name, HeaderType("ethernet", ETHERNET.fields[:-1] + (("ethertype", 17),)))
    return g


def _swapped_l4_arms(g):
    """Mutant: the tcp arm extracts a UDP header and the udp arm a TCP one."""
    if isinstance(g, ExactValue) and g.htype in (TCP, UDP):
        return ExactValue("udp", UDP) if g.htype == TCP else ExactValue("tcp", TCP)
    return g


class TestParserChecks:
    def test_stock_parsers_oblivious(self):
        rng = random.Random(4)
        parsers = [identity_app().components.in_parser,
                   sampler_app(SC).components.in_parser,
                   firewall_app(FirewallConfig()).components.in_parser]
        states = [None, 0, "s", SamplerState(9), ("a", "b")]
        for _ in range(60):
            parser = rng.choice(parsers)
            p = rand_packet(rng) if rng.random() < 0.5 else mangle(rng, rand_packet(rng))
            s1, s2 = rng.choice(states), rng.choice(states)
            assert parser_oblivious_check(parser, p, s1, s2).ok

    def test_stateful_parser_caught(self):
        def moody(p, s):
            return (parse_standard(p) if s is None else None), s

        v = parser_oblivious_check(moody, tcp_pkt(), None, "grumpy")
        assert not v.ok and v.violated_clause == "parser.obliviousness"

    def test_format_acceptance(self):
        corpus, sampled = _parser_corpus()
        assert format_acceptance_check(ref_parse_standard, STANDARD_FORMAT,
                                       corpus).ok
        assert format_acceptance_check(ref_parse_sampled, SAMPLED_FORMAT,
                                       sampled).ok
        # the stock parsers are compiled from the formats; hold them
        # against the hand-coded chains, slot for slot
        for p in corpus + sampled:
            assert parse_standard(p) == ref_parse_standard(p)
            assert parse_sampled(p) == ref_parse_sampled(p)

    def test_ill_formed_format_refused(self):
        # checked once, before the first packet, so also with none
        ill = Concat(ExactValue("x", ETHERNET), ExactValue("x", ETHERNET))
        for packets in ([], [tcp_pkt()]):
            with pytest.raises(IllFormedFormat, match="duplicate binding 'x'"):
                format_acceptance_check(parse_standard, ill, packets)

    def test_stock_parsers_accept_their_formats(self):
        # the formats' matcher interprets them; the stock parsers run
        # them compiled, so this compares two implementations
        corpus, sampled = _parser_corpus()
        assert format_acceptance_check(parse_standard, STANDARD_FORMAT, corpus).ok
        assert format_acceptance_check(parse_sampled, SAMPLED_FORMAT, sampled).ok

    @pytest.mark.parametrize("mutate", [_wide_ethertype, _swapped_l4_arms],
                             ids=["ethertype-one-bit-wider", "tcp-udp-arms-swapped"])
    def test_mutant_compiled_parser_caught(self, mutate):
        corpus, sampled = _parser_corpus()
        for fmt, packets in ((STANDARD_FORMAT, corpus),
                             (SAMPLED_FORMAT, sampled)):
            mutant = _parser(compile_format(_rewrite(fmt, mutate)))
            v = format_acceptance_check(mutant, fmt, packets)
            assert not v.ok
            assert v.violated_clause in ("parser.format_acceptance", "parser.roundtrip")

    def test_overly_permissive_parser_caught(self):
        def lax(p):
            got = parse_standard(p)
            if got is None and len(p) >= 400:
                return parse_standard(p + BitString(0, 560 - len(p)))
            return got

        short = tcp_pkt().take(402)
        v = format_acceptance_check(lax, STANDARD_FORMAT, [short])
        assert not v.ok and v.violated_clause == "parser.format_acceptance"

    def test_lossy_parser_caught(self):
        def lossy(p):
            got = parse_standard(p)
            if got is None:
                return None
            slots = dict(got.slots)
            slots["ethernet"] = with_fields(slots["ethernet"], src=0)
            from dataplane.pipeline import ParsedData
            return ParsedData(slots, got.payload)

        v = format_acceptance_check(lossy, STANDARD_FORMAT,
                                    [tcp_pkt(src=5)])
        assert not v.ok and v.violated_clause == "parser.roundtrip"


# ---------------------------------------------------------------------------
# flow density and firewall freshness over traces


def _glue(tr_a, tr_b):
    """Concatenate two runs of the same config into one trace object."""
    assert tr_a.config_digest == tr_b.config_digest
    return dataclasses.replace(
        tr_a, steps=tr_a.steps + tr_b.steps,
        final_state=tr_b.final_state, final_queues=tr_b.final_queues)


class TestDenseFlow:
    def test_keepalives_satisfy_period_gap(self):
        fw = FirewallConfig(window=32, keepalive_period=8)
        cfg = firewall_app(fw)
        tr = run(cfg, initial_switch_state(cfg), SwitchQueues(), 60,
                 FifoDrainOracle())
        assert dense_flow_check(tr, fw.keepalive_period).ok
        v = dense_flow_check(tr, fw.keepalive_period - 1)
        assert not v.ok and v.violated_clause == "denseflow.gap"

    def test_sparse_arrivals_fail(self):
        cfg = identity_app()
        st = initial_switch_state(cfg)
        a = run(cfg, st, SwitchQueues(q_input=arrivals(tcp_pkt())), 12,
                FifoDrainOracle())
        late = dataclasses.replace(a.final_queues, q_input=arrivals(udp_pkt()))
        b = run(cfg, a.final_state, late, 2, FifoDrainOracle())
        glued = _glue(a, b)
        # ten idle ticks between the two packet-carrying steps
        assert dense_flow_check(glued, 20).ok
        v = dense_flow_check(glued, 5)
        assert not v.ok and v.violated_clause == "denseflow.gap"

    def test_empty_trace_passes(self):
        cfg = identity_app()
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(), 0, FifoDrainOracle())
        assert dense_flow_check(tr, 1).ok


class TestFirewallFreshness:
    FW = FirewallConfig(inside_port=1, outside_port=2, window=64,
                        keepalive_period=16)

    def _scenario_trace(self):
        cfg = firewall_app(self.FW)
        out = tcp_pkt(src=0x0A000001, dst=0xC0A80001, sp=4000, dp=443)
        back = tcp_pkt(src=0xC0A80001, dst=0x0A000001, sp=443, dp=4000)
        qs = SwitchQueues(q_input=(arrivals(out, port=1) + arrivals(back, port=2)))
        tr = run(cfg, initial_switch_state(cfg), qs, 12, FifoDrainOracle())
        assert tr.fault is None
        return tr

    def test_honest_run_passes(self):
        tr = self._scenario_trace()
        assert firewall_freshness_check(tr, self.FW, self.FW.window).ok

    def test_forged_drop_detected(self):
        tr = self._scenario_trace()
        idx, step = next(
            (i, s) for i, s in enumerate(tr.steps)
            if s.kind == "ingress" and s.detail.p_i is not None
            and s.detail.in_port == self.FW.outside_port)
        doctored = dataclasses.replace(
            step, detail=dataclasses.replace(step.detail, m_repl=()))
        tr.steps[idx] = doctored
        v = firewall_freshness_check(tr, self.FW, self.FW.window)
        assert not v.ok and v.violated_clause == "firewall.false_negative"

    def test_dropped_reply_blamed_alike_in_library_and_cli(self, tmp_path, capsys,
                                                           monkeypatch):
        # a reply 6 ticks after the outbound packet that set up its
        # flow, behind filler the parser rejects; dropping it is blamed on
        # the reply's step both in a forged in-memory trace and in the
        # trace of a mutant firewall whose inbound key never matches
        out = tcp_pkt(src=0x0A000001, dst=0xC0A80001, sp=4000, dp=443)
        back = tcp_pkt(src=0xC0A80001, dst=0x0A000001, sp=443, dp=4000)
        fw = FirewallConfig(inside_port=1, outside_port=2, window=32, keepalive_period=8)
        q_input = arrivals(out, port=1) + arrivals(*[BitString(0, 8)] * 5, port=1) \
            + arrivals(back, port=2)
        clause, i, detail = "firewall.false_negative", 8, "flow refreshed 6 ticks ago was dropped"

        cfg = firewall_app(fw)
        tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=q_input), 40,
                 FifoDrainOracle(), stop_when=lambda s, q: drained(q))
        assert firewall_freshness_check(tr, fw, fw.window).ok
        assert tr.steps[i].detail.p_i == back and tr.steps[i].detail.m_repl
        tr.steps[i] = dataclasses.replace(
            tr.steps[i], detail=dataclasses.replace(tr.steps[i].detail, m_repl=()))
        v = firewall_freshness_check(tr, fw, fw.window)
        assert (v.violated_clause, v.step, v.detail) == (clause, i, detail)

        real = apps.flow_key

        def forgetful(slots, inbound):
            key = real(slots, inbound)
            return key + 1 if inbound and key is not None else key

        monkeypatch.setattr(apps, "flow_key", forgetful)
        config, workload, trace = (str(tmp_path / f) for f in ("fw.json", "w.jsonl", "t.jsonl"))
        with open(config, "w") as fh:
            json.dump({"app": "firewall", **dataclasses.asdict(fw)}, fh)
        with open(workload, "w") as fh:
            fh.writelines(json.dumps({"port": a.port, "packet": a.packet.to_json()}) + "\n"
                          for a in q_input)
        assert main(["sim", "--config", config, "--input", workload, "--steps", "40",
                     "--drain", "--trace", trace]) == 0
        capsys.readouterr()
        assert main(["check", trace, "--config", config, "--spec", "firewall:32"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            "axioms: ok", f"firewall: VIOLATION clause={clause} step={i} {detail}"]


# ---------------------------------------------------------------------------
# a step's own pipeline call stands in for a recomputation on its key only


class TestPipelineCallReuse:
    FW = FirewallConfig(inside_port=1, outside_port=2, window=64, keepalive_period=16)

    def _firewall_trace(self):
        cfg = firewall_app(self.FW)
        out = tcp_pkt(src=0x0A000001, dst=0xC0A80001, sp=4000, dp=443)
        back = tcp_pkt(src=0xC0A80001, dst=0x0A000001, sp=443, dp=4000)
        qs = SwitchQueues(q_input=arrivals(out, port=self.FW.inside_port)
                          + arrivals(back, port=self.FW.outside_port))
        tr = run(cfg, initial_switch_state(cfg), qs, 12, FifoDrainOracle())
        assert tr.fault is None
        return cfg, tr

    def _swap(self, port):
        """The inside port passed as the outside one."""
        return self.FW.outside_port if port == self.FW.inside_port else port

    def _first_inside_step(self, tr):
        return next(i for i, s in enumerate(tr.steps) if s.kind == "ingress"
                    and s.detail.p_i is not None and s.detail.in_port == self.FW.inside_port)

    def test_honest_firewall_run_passes(self):
        cfg, tr = self._firewall_trace()
        assert check_trace(cfg, tr).ok

    def test_miswired_executor_binding_is_recomputed(self, monkeypatch):
        # the executor calls a different function, so no key matches
        def miswired(comps, t, in_port, p, s):
            return ingress_pipeline(comps, t, self._swap(in_port), p, s)
        monkeypatch.setattr(switch, "ingress_pipeline", miswired)
        cfg, tr = self._firewall_trace()
        v = check_trace(cfg, tr)
        assert not v.ok and v.violated_clause == "ingress.pipeline"
        assert v.step == self._first_inside_step(tr)

    def test_miswired_ingress_step_is_recomputed(self, monkeypatch):
        # a scratch copy of ingress_step calls the real pipeline with the
        # wrong port and records the arguments it passed
        src = inspect.getsource(switch.ingress_step)
        honest = "t, in_port, p_i, s_i)"  # in the call and in its record
        assert src.count(honest) == 2
        scope = dict(vars(switch), _swap=self._swap)
        exec(src.replace(honest, "t, _swap(in_port), p_i, s_i)"), scope)
        monkeypatch.setattr(switch, "ingress_step", scope["ingress_step"])
        cfg, tr = self._firewall_trace()
        i = self._first_inside_step(tr)
        assert tr.steps[i].call[0][2][1] == self.FW.outside_port
        assert tr.steps[i].detail.in_port == self.FW.inside_port
        v = check_trace(cfg, tr)
        assert not v.ok and v.violated_clause == "ingress.pipeline" and v.step == i

    @pytest.mark.parametrize("kind", ["ingress", "egress"])
    def test_honest_trace_runs_no_pipeline_and_a_bare_step_one(self, monkeypatch, kind):
        calls = count_pipeline_calls(monkeypatch)
        cfg = sampler_app(SamplerConfig(sample_every=2))
        tr = drain_run(cfg, [tcp_pkt(sp=i) for i in range(4)])
        assert calls
        calls.clear()
        assert check_trace(cfg, tr).ok
        assert calls == []
        i = next(i for i, s in enumerate(tr.steps) if s.kind == kind and s.call is not None)
        tr.steps[i] = dataclasses.replace(tr.steps[i], call=None)
        assert check_trace(cfg, tr).ok
        assert calls == [f"{kind}_pipeline"]


# ---------------------------------------------------------------------------
# registry stability


def test_clause_registry_pinned():
    assert set(ALL_CLAUSES) == {
        "ingress.clock", "ingress.frame.s_e", "ingress.frame.q_output",
        "ingress.pktgen_behavior", "ingress.input_ports",
        "ingress.no_packet_frame", "ingress.reject_isolation",
        "ingress.pipeline", "ingress.mirror_empty", "ingress.undeclared_action",
        "ingress.replication",
        "ingress.qac_prefix", "ingress.qac_subsequence", "ingress.qac_mandatory",
        "egress.enabled", "egress.clock", "egress.frame.s_g",
        "egress.frame.s_i", "egress.frame.q_input", "egress.frame.q_mirror",
        "egress.scheduler_split", "egress.pipeline", "egress.output_ports",
        "trace.continuity", "trace.step_kind", "trace.divergence",
        "sampler.stream", "sampler.unexpected_port", "sampler.incomplete",
        "langsec.state_frame", "langsec.queue_frame",
        "parser.obliviousness", "parser.format_acceptance", "parser.roundtrip",
        "denseflow.gap", "firewall.false_negative",
    }
    for cid, text in ALL_CLAUSES.items():
        assert isinstance(text, str) and text


def test_bad_takes_registered_clauses_only():
    for cid in ALL_CLAUSES:
        assert _bad(cid, "why", 3) == Verdict(False, cid, "why", 3)
    for cid in ("trace.nonsense", "sampler", ""):
        with pytest.raises(KeyError):
            _bad(cid)


def test_verdict_truthiness():
    assert Verdict(True)
    assert not Verdict(False, "trace.continuity")
