"""Acceptance gate: ten end-to-end checks, one per headline claim.

Each test prints a single CRITERION line so a plain pytest run doubles
as a scorecard.  Where a wall-clock budget applies it is asserted, not
just reported.
"""

import dataclasses
import random
import time

import pytest

from dataplane.packet_format import (
    BitString, ExtractStatus, TypedValue, encode, extract, match_report,
)
from dataplane.headers import (
    ETHERNET, INTRINSIC_META, IPV4, PORT_META, SAMPLE_HEADER, SAMPLE_MARKER,
    TCP, UDP,
)
from dataplane.engines import EgressMeta, PktGenConfig, QacAlwaysReady, QacMinimal, UNICAST
from dataplane.switch import (
    AdversarialDropOracle, Arrival, FifoDrainOracle, RandomOracle,
    ReplayOracle, SwitchQueues, run, state_digests, write_trace,
)
from dataplane.apps import (
    FirewallConfig, IdentityConfig, SamplerConfig, SamplerState, firewall_app, identity_app,
    initial_switch_state, parse_standard, sampler_app,
)
from dataplane.checker import (
    CLAUSES, LangsecFold, check_step, check_trace, dense_flow_check,
    firewall_freshness_check, fold_trace, parser_oblivious_check, sampler_trace_check,
)

from support import (
    FwDriver, PastTheEndOracle, RefFirewall, arrivals, executed_pktgen_times, flow_pair,
    forge_catalog, mangle, rand_packet, random_format, ref_matches,
    ref_pktgen_times, replication_of, sample_matching_input, tcp_pkt, udp_pkt,
)


_TERMINAL = None
_CAPTURE = None


@pytest.fixture(autouse=True, scope="session")
def _scorecard_writer(request):
    # pytest's fd-level capture swallows plain prints, so keep handles
    # to its own reporter for the scorecard lines
    global _TERMINAL, _CAPTURE
    _TERMINAL = request.config.pluginmanager.get_plugin("terminalreporter")
    _CAPTURE = request.config.pluginmanager.get_plugin("capturemanager")
    yield


def report(k: int, desc: str, ok: bool, elapsed: float | None = None,
           budget: float | None = None) -> None:
    within = budget is None or (elapsed is not None and elapsed < budget)
    mark = "PASS" if (ok and within) else "FAIL"
    tail = "" if elapsed is None else f" ({elapsed:.1f}s)"
    line = f"CRITERION {k}: {mark} - {desc}{tail}"
    print(line, flush=True)
    if (_TERMINAL is not None and _CAPTURE is not None
            and _CAPTURE.is_globally_capturing()):
        _TERMINAL.write_line(line)
    assert ok, f"criterion {k}: {desc}"
    assert within, f"criterion {k} over budget: {elapsed:.1f}s >= {budget}s"


# ---------------------------------------------------------------------------


def test_criterion_01_codec_roundtrip():
    """10^4 random values per header type decode back exactly, with the
    residual bits untouched."""
    rng = random.Random(0xACC1)
    types = (INTRINSIC_META, PORT_META, ETHERNET, IPV4, TCP, UDP,
             SAMPLE_HEADER)
    t0 = time.perf_counter()
    failures = 0
    for htype in types:
        for _ in range(10_000):
            v = TypedValue(htype, {name: rng.getrandbits(w)
                                   for name, w in htype.fields})
            rest = BitString(rng.getrandbits(64), 64).take(rng.randrange(65))
            got, status, rem = extract(htype, encode(v) + rest)
            if got != v or status is not ExtractStatus.SUCCESS or rem != rest:
                failures += 1
    elapsed = time.perf_counter() - t0
    report(1, f"codec round-trip, {len(types)}x10^4 values, "
              f"{failures} failures", failures == 0, elapsed, 5.0)


def test_criterion_02_matcher_vs_brute_force():
    """The format matcher agrees with an all-splits reference on 10^3
    random formats and inputs."""
    rng = random.Random(0xACC2)
    t0 = time.perf_counter()
    disagreements = 0
    positives = 0
    for i in range(1_000):
        f = random_format(rng)
        if i % 2 == 0:
            p = sample_matching_input(rng, f)
            if len(p) > 64:
                p = p.take(64)
        else:
            n = rng.randrange(65)
            p = BitString(rng.getrandbits(n) if n else 0, n)
        got = match_report(p, f)["ok"]
        want = ref_matches(p, f)
        if got != want:
            disagreements += 1
        if got:
            positives += 1
    elapsed = time.perf_counter() - t0
    report(2, f"matcher vs brute force, 10^3 cases ({positives} matching), "
              f"{disagreements} disagreements",
           disagreements == 0 and positives >= 200, elapsed, 30.0)


# ---------------------------------------------------------------------------


def _random_scenario(rng: random.Random):
    kind = rng.choice(("identity", "sampler", "firewall"))
    if kind == "identity":
        pg = PktGenConfig()
        if rng.random() < 0.4:
            pg = PktGenConfig(enabled=True, period=rng.randrange(5, 40),
                              batch_count=rng.randrange(1, 3),
                              pkts_per_batch=rng.randrange(1, 3),
                              inter_batch_gap=rng.randrange(1, 5),
                              inter_pkt_gap=rng.randrange(1, 4),
                              template=tcp_pkt(payload=b"gen"))
        qac = QacAlwaysReady() if rng.random() < 0.5 else QacMinimal()
        cfg = dataclasses.replace(identity_app(IdentityConfig(rng.randrange(1, 9))),
                                  pktgen=pg, qac=qac)
    elif kind == "sampler":
        scfg = SamplerConfig(sample_every=rng.randrange(1, 7))
        qac = QacAlwaysReady() if rng.random() < 0.5 else QacMinimal()
        cfg = dataclasses.replace(sampler_app(scfg), qac=qac)
    else:
        w = rng.randrange(16, 65)
        fcfg = FirewallConfig(window=w,
                              keepalive_period=rng.randrange(4, w + 1),
                              bits=rng.choice((128, 256)),
                              hash_count=rng.randrange(2, 5))
        cfg = firewall_app(fcfg)

    pkts = []
    for _ in range(rng.randrange(5, 36)):
        r = rng.random()
        if kind == "firewall" and r < 0.5:
            out, back = flow_pair(rng.randrange(8))
            pkts.append(Arrival(rng.choice((1, 2)),
                                out if rng.random() < 0.5 else back))
        else:
            p = rand_packet(rng)
            if r > 0.8:
                p = mangle(rng, p)
            pkts.append(Arrival(rng.randrange(0, 4), p))

    oracle = rng.choice((FifoDrainOracle(),
                         RandomOracle(rng.randrange(1 << 16)),
                         AdversarialDropOracle()))
    return kind, cfg, tuple(pkts), oracle, rng.randrange(30, 121)


def test_criterion_03_executor_within_axioms():
    """Every step the executor takes satisfies the step relation, across
    10^4 steps of randomized apps, workloads and oracles."""
    rng = random.Random(0xACC3)
    t0 = time.perf_counter()
    total = 0
    bad = 0
    seen = set()
    while total < 10_000:
        kind, cfg, pkts, oracle, n_steps = _random_scenario(rng)
        seen.add(kind)
        tr = run(cfg, initial_switch_state(cfg),
                 SwitchQueues(q_input=pkts), n_steps, oracle)
        assert tr.fault is None, (kind, tr.fault)
        table = replication_of(cfg)
        for step in tr.steps:
            if not check_step(cfg, step, table).ok:
                bad += 1
        total += len(tr.steps)
    elapsed = time.perf_counter() - t0
    report(3, f"executor within axioms, {total} steps over {sorted(seen)}, "
              f"{bad} violations",
           bad == 0 and seen == {"identity", "sampler", "firewall"},
           elapsed, 60.0)


def test_criterion_04_forgeries_rejected():
    """Hand-forged steps violating each axiom clause are rejected and
    blamed on exactly that clause."""
    catalog = forge_catalog()
    wrong = []
    for f in catalog:
        v = check_step(f.cfg, f.step, replication_of(f.cfg))
        if v.ok or v.violated_clause != f.clause:
            wrong.append((f.clause, v.violated_clause))

    # clock continuity is a trace-level clause, forged separately
    cfg = identity_app()
    tr = run(cfg, initial_switch_state(cfg),
             SwitchQueues(q_input=arrivals(tcp_pkt(), udp_pkt())), 8,
             FifoDrainOracle())
    steps = list(tr.steps)
    steps[1] = dataclasses.replace(
        steps[1], pre_state=dataclasses.replace(steps[1].pre_state, t=999))
    forged = dataclasses.replace(tr, steps=steps)
    v = check_trace(cfg, forged)
    if v.ok or v.violated_clause != "trace.continuity":
        wrong.append(("trace.continuity", v.violated_clause))

    covered = {f.clause for f in catalog} | {"trace.continuity"}
    missing = set(CLAUSES) - covered - {"trace.divergence"}
    report(4, f"{len(catalog) + 1} forgeries rejected with exact blame, "
              f"{len(covered)} clauses covered",
           not wrong and not missing and len(catalog) >= 12)


# ---------------------------------------------------------------------------


def _stream(rng: random.Random, length: int) -> list:
    pkts = []
    for i in range(length):
        payload = i.to_bytes(4, "big")
        if rng.random() < 0.5:
            pkts.append(tcp_pkt(sp=rng.getrandbits(16), payload=payload))
        else:
            pkts.append(udp_pkt(sp=rng.getrandbits(16), payload=payload))
    return pkts


def test_criterion_05_sampler_theorem():
    """200 random streams drain to outputs satisfying the sampler's
    input/output relation; with no drops the output count matches the
    closed form exactly."""
    rng = random.Random(0xACC5)
    lengths = ([rng.randint(1, 512) for _ in range(150)]
               + [rng.randint(512, 2048) for _ in range(40)]
               + [rng.randint(2048, 4096) for _ in range(10)])
    t0 = time.perf_counter()
    scfg = SamplerConfig()  # sampling period 1024
    exact_runs = 0
    for length in lengths:
        n = rng.randrange(0, (1 << 32) - 5000)
        mode = rng.random()
        if mode < 0.45:
            qac, oracle, exact = QacAlwaysReady(), FifoDrainOracle(), True
        elif mode < 0.8:
            qac = QacMinimal()
            oracle = RandomOracle(rng.getrandbits(30), reorder=False)
            exact = False
        else:
            qac, oracle, exact = QacMinimal(), AdversarialDropOracle(), False
        cfg = dataclasses.replace(
            sampler_app(scfg), qac=qac,
            init_ingress=(None, SamplerState(counter=n), None))
        qs = SwitchQueues(q_input=arrivals(*_stream(rng, length)))
        tr = run(cfg, initial_switch_state(cfg), qs, 12 * length + 200,
                 oracle, stop_when=lambda s, q: (not q.q_input
                                                 and not q.q_egress
                                                 and q.p_recirc is None))
        assert tr.fault is None
        assert not tr.final_queues.q_input and not tr.final_queues.q_egress
        v = sampler_trace_check(tr, scfg)
        assert v.ok, (length, n, v)
        if exact:
            want = length + (n + length) // 1024 - n // 1024
            got = len(tr.final_queues.q_output)
            assert got == want, (length, n, got, want)
            exact_runs += 1
    elapsed = time.perf_counter() - t0
    report(5, f"sampler relation on {len(lengths)} streams "
              f"({exact_runs} with exact output counts)",
           len(lengths) == 200 and exact_runs >= 50, elapsed, 300.0)


def test_criterion_06_malformed_input_isolated():
    """10^3 malformed packets are consumed without touching generator,
    control, deparser or egress state, or any queue but the input."""
    rng = random.Random(0xACC6)
    cfg = sampler_app(SamplerConfig(sample_every=2))
    st0 = initial_switch_state(cfg)
    before = state_digests(st0)

    t0 = time.perf_counter()
    bad = []
    for _ in range(1_000):
        p = mangle(rng, rand_packet(rng))
        assert parse_standard(p) is None
        bad.append(Arrival(rng.randrange(4), p))
    tr = run(cfg, st0, SwitchQueues(q_input=tuple(bad)), 1_200,
             FifoDrainOracle(),
             stop_when=lambda s, q: not q.q_input)
    after = state_digests(tr.final_state)
    qs = tr.final_queues
    state_ok = all(before[k] == after[k]
                   for k in ("s_g", "s_ic", "s_id", "s_ep", "s_ec", "s_ed"))
    queues_ok = (not qs.q_input and not qs.q_egress and not qs.q_output
                 and qs.p_recirc is None)
    relation = fold_trace(LangsecFold(cfg), tr)
    elapsed = time.perf_counter() - t0
    report(6, f"10^3 malformed packets isolated "
              f"({len(tr.steps)} steps, states {'un' if state_ok else ''}changed)",
           state_ok and queues_ok and relation.ok, elapsed, 30.0)


def test_criterion_07_parser_obliviousness():
    """Parsing never depends on the parser state argument: 10^3 random
    (packet, state, state) triples across every stock parser."""
    rng = random.Random(0xACC7)
    apps = (identity_app(), sampler_app(), firewall_app(FirewallConfig()))
    # ingress parsers take the raw packet; egress parsers take (em, p)
    parsers = [(b.components.in_parser, False) for b in apps]
    parsers += [(b.components.e_parser, True) for b in apps]
    junk = (None, 0, 1, 17, "x", (1, 2), SamplerState(counter=5))
    failures = 0
    for _ in range(1_000):
        parser, egress = rng.choice(parsers)
        r = rng.random()
        p = rand_packet(rng)
        if r < 0.3:
            p = mangle(rng, p)
        elif r < 0.4:
            p = udp_pkt(in_port=SAMPLE_MARKER)
        data = (EgressMeta(rng.randrange(8), 0, UNICAST), p) if egress else p
        s1, s2 = rng.choice(junk), rng.choice(junk)
        if not parser_oblivious_check(parser, data, s1, s2).ok:
            failures += 1
    report(7, f"parser obliviousness on 10^3 triples, {failures} failures",
           failures == 0)


# ---------------------------------------------------------------------------


FW100 = FirewallConfig(inside_port=1, outside_port=2, window=100,
                       bits=1024, hash_count=3, keepalive_period=100)
# the window is 100 model ticks; at e.g. 10 ticks per millisecond that
# reads as a 10 ms idle timeout, but nothing below depends on the scale

TEN_WINDOWS = 10 * FW100.window + 60


def test_criterion_08_firewall():
    """With the keepalive period equal to the admission window, traffic
    stays dense over ten windows for arbitrary input, fresh flows are
    never dropped, and the filter over-approximates an exact table on
    100 random scenarios."""
    t0 = time.perf_counter()
    rng = random.Random(0xACC8)
    cfg = firewall_app(FW100)

    # empty input: keepalives alone must carry the density obligation
    tr = run(cfg, initial_switch_state(cfg), SwitchQueues(), TEN_WINDOWS,
             FifoDrainOracle())
    assert tr.fault is None
    dense_empty = dense_flow_check(tr, FW100.window)
    fresh_empty = firewall_freshness_check(tr, FW100, FW100.window)

    # a burst of real traffic, then a long quiet tail
    pkts = []
    for _ in range(60):
        out, back = flow_pair(rng.randrange(10))
        if rng.random() < 0.1:
            pkts.append(Arrival(rng.choice((1, 2)),
                                mangle(rng, rand_packet(rng))))
        elif rng.random() < 0.5:
            pkts.append(Arrival(1, out))
        else:
            pkts.append(Arrival(2, back))
    tr2 = run(cfg, initial_switch_state(cfg),
              SwitchQueues(q_input=tuple(pkts)), TEN_WINDOWS,
              FifoDrainOracle())
    assert tr2.fault is None
    dense_busy = dense_flow_check(tr2, FW100.window)
    fresh_busy = firewall_freshness_check(tr2, FW100, FW100.window)

    # one-sidedness against an exact last-insertion table
    misses = 0
    probes = 0
    for _ in range(100):
        fw = FwDriver(FW100)
        ref = RefFirewall(FW100.window)
        flows = [flow_pair(i) for i in range(6)]
        t = 0
        horizon = rng.randrange(300, 800)
        next_keepalive = 0
        while t < horizon:
            if t >= next_keepalive:
                fw.keepalive(t)
                next_keepalive += FW100.keepalive_period
            r = rng.random()
            i = rng.randrange(len(flows))
            out, back = flows[i]
            if r < 0.4:
                fw.outbound(t, out)
                ref.insert(i, t)
            else:
                admitted = fw.inbound(t, back)
                if ref.must_admit(i, t):
                    probes += 1
                    if not admitted:
                        misses += 1
            t += rng.randrange(1, FW100.window // 4)

    elapsed = time.perf_counter() - t0
    report(8, f"firewall density and freshness over 10 windows, "
              f"{probes} fresh probes with {misses} false drops",
           dense_empty.ok and fresh_empty.ok and dense_busy.ok
           and fresh_busy.ok and misses == 0 and probes >= 300,
           elapsed, 120.0)


def test_criterion_09_pktgen_schedule():
    """Generator emission instants match the closed-form schedule for
    100 random configurations over 10^4 ticks."""
    rng = random.Random(0xACC9)
    mismatches = 0
    for _ in range(100):
        c = PktGenConfig(enabled=rng.random() < 0.9,
                         period=rng.randrange(2, 400),
                         batch_count=rng.randrange(1, 5),
                         pkts_per_batch=rng.randrange(1, 5),
                         inter_batch_gap=rng.randrange(1, 8),
                         inter_pkt_gap=rng.randrange(1, 6),
                         template=BitString(1, 8))
        if executed_pktgen_times(c, 10_000) != ref_pktgen_times(c, 10_000):
            mismatches += 1
    report(9, f"pktgen schedule closed form, 100 configs x 10^4 ticks, "
              f"{mismatches} mismatches", mismatches == 0)


def test_criterion_10_replayability(tmp_path):
    """Re-running the recorded oracle decisions reproduces each trace
    file byte for byte, including a faulted run."""
    rng = random.Random(0xACCA)
    scenarios = [
        ("identity", identity_app(), arrivals(*(rand_packet(rng)
                                                for _ in range(10))),
         RandomOracle(5), 80),
        ("sampler", sampler_app(SamplerConfig(sample_every=2)),
         arrivals(*(rand_packet(rng) for _ in range(12))),
         RandomOracle(9, reorder=True), 120),
        ("firewall", firewall_app(FirewallConfig(window=40,
                                                 keepalive_period=10)),
         (Arrival(1, flow_pair(3)[0]), Arrival(2, flow_pair(3)[1])),
         FifoDrainOracle(), 300),
        ("faulting sampler", sampler_app(), arrivals(udp_pkt()), PastTheEndOracle(), 10),
    ]
    mismatched, faulted = [], []
    for label, cfg, pkts, oracle, n_steps in scenarios:
        st = initial_switch_state(cfg)
        qs = SwitchQueues(q_input=tuple(pkts))
        tr = run(cfg, st, qs, n_steps, oracle)
        if tr.fault is not None:
            faulted.append(label)

        decisions = [s.decisions for s in tr.steps]
        if tr.fault is not None:
            decisions.append(tr.fault_decisions)
        replayed = run(cfg, st, qs, len(decisions), ReplayOracle(decisions))

        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_trace(tr, str(a))
        write_trace(replayed, str(b))
        if a.read_bytes() != b.read_bytes() or replayed.fault != tr.fault:
            mismatched.append(label)
    report(10, f"byte-identical replay of {len(scenarios)} traces "
               f"(including one faulted)", not mismatched)
    assert faulted == ["faulting sampler"]
