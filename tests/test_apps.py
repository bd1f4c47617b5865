"""The two stock applications plus the identity baseline.

Sampler expectations are computed by hand from the counting rule; the
firewall is held against the exact last-seen-time table in
tests/support.py, which it may only ever over-approximate.
"""

import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from dataplane.packet_format import BitString, extract, ExtractStatus
from dataplane.headers import SAMPLE_HEADER, SAMPLE_MARKER
from dataplane.engines import (
    L1Node, McConfig, PktGenConfig, PktGenState, QacAlwaysReady, QacMinimal,
)
from dataplane.switch import FifoDrainOracle, SwitchQueues, run
from dataplane.apps import (
    FirewallConfig,
    IdentityConfig,
    SamplerConfig,
    SamplerState,
    app_from_config,
    firewall_app,
    flow_key,
    identity_app,
    initial_switch_state,
    parse_standard,
    sampler_app,
)
from dataplane.checker import expected_sample_packet

from support import (
    BAD_NESTED_CONFIGS,
    FwDriver as BaseFwDriver,
    RefFirewall,
    arrivals,
    bare_ip_pkt,
    drain_run,
    flow_pair as _flow,
    tcp_pkt,
    udp_pkt,
)


class TestIdentity:
    def test_forwards_everything(self):
        pkts = [tcp_pkt(sp=i) for i in range(4)]
        tr = drain_run(identity_app(forward_port=6), pkts)
        assert [p for _, p in tr.final_queues.q_output] == pkts
        assert {port for port, _ in tr.final_queues.q_output} == {6}


SCFG = SamplerConfig(forward_port=1, monitor_port=3, sample_every=3)


class TestSampler:
    def test_every_third_packet_sampled(self):
        pkts = [tcp_pkt(sp=100 + i, payload=bytes([i])) for i in range(7)]
        tr = drain_run(sampler_app(SCFG), pkts)
        expected = []
        for i, p in enumerate(pkts, start=1):
            expected.append((1, p))
            if i % 3 == 0:
                expected.append((3, expected_sample_packet(i, p)))
        assert list(tr.final_queues.q_output) == expected

    def test_monitor_record_contents(self):
        p = udp_pkt(src=0x01020304, dst=0x05060708, sp=7777, dp=53,
                    payload=b"PAYLOAD")
        tr = drain_run(sampler_app(SamplerConfig(sample_every=1)), [p])
        (fp, normal), (mp, special) = tr.final_queues.q_output
        assert (fp, normal) == (1, p)
        assert mp == 3 or mp == SCFG.monitor_port
        rec, status, rest = extract(SAMPLE_HEADER, special)
        assert status is ExtractStatus.SUCCESS
        assert rec["marker_ethertype"] == SAMPLE_MARKER
        assert rec["src_addr"] == 0x01020304 and rec["dst_addr"] == 0x05060708
        assert rec["src_port"] == 7777 and rec["dst_port"] == 53
        assert rec["sample_count"] == 1
        # payload rides along behind the record
        assert rest.to_bytes() == b"PAYLOAD"

    def test_no_l4_ports_are_zero(self):
        p = bare_ip_pkt(protocol=1, payload=b"q")
        tr = drain_run(sampler_app(SamplerConfig(sample_every=1)), [p])
        (_, special) = tr.final_queues.q_output[1]
        rec, _, _ = extract(SAMPLE_HEADER, special)
        assert rec["src_port"] == 0 and rec["dst_port"] == 0

    def test_forward_copy_bit_identical(self):
        # the sampled copy grows a record in front; the forward copy
        # must still leave as the exact original bytes
        p = tcp_pkt(payload=b"\x00\xff\x13")
        tr = drain_run(sampler_app(SamplerConfig(sample_every=1)), [p])
        assert tr.final_queues.q_output[0] == (1, p)

    def test_counter_wraps(self):
        cfg = sampler_app(SamplerConfig(sample_every=4))
        near_wrap = dataclasses.replace(
            cfg, init_ingress=(None, SamplerState(counter=(1 << 32) - 2), None))
        p1, p2 = tcp_pkt(sp=1), tcp_pkt(sp=2)
        tr = drain_run(near_wrap, [p1, p2])
        # counts are 2^32-1 then 0; only 0 is a multiple of 4
        outs = list(tr.final_queues.q_output)
        assert outs[0] == (1, p1) and outs[1] == (1, p2)
        rec, _, _ = extract(SAMPLE_HEADER, outs[2][1])
        assert rec["sample_count"] == 0

    def test_distinct_rids_required(self):
        with pytest.raises(ValueError):
            SamplerConfig(forward_rid=5, monitor_rid=5)

    def test_parser_refuses_truncation(self):
        # full isolation of rejected packets is exercised in
        # test_checker and the acceptance suite
        assert parse_standard(tcp_pkt().take(123)) is None


FWCFG = FirewallConfig(inside_port=1, outside_port=2, window=32,
                       bits=256, hash_count=3, keepalive_period=8)


class FwDriver(BaseFwDriver):
    def __init__(self, cfg=FWCFG):
        super().__init__(cfg)


class TestFirewall:
    def test_unknown_inbound_dropped(self):
        fw = FwDriver()
        _, back = _flow(1)
        assert fw.inbound(0, back) is False

    def test_reply_admitted_within_window(self):
        fw = FwDriver()
        out, back = _flow(2)
        fw.outbound(10, out)
        assert fw.inbound(10 + FWCFG.window, back) is True

    def test_keys_pair_up_across_directions(self):
        out, back = _flow(3)
        k_out = flow_key(parse_standard(out).slots, inbound=False)
        k_back = flow_key(parse_standard(back).slots, inbound=True)
        assert k_out == k_back
        # a different flow maps elsewhere
        other, _ = _flow(4)
        assert flow_key(parse_standard(other).slots, inbound=False) != k_out

    def test_eventual_expiry(self):
        fw = FwDriver()
        out, back = _flow(5)
        fw.outbound(0, out)
        # run maintenance every tick; both panes must be swept clean
        # within three windows of the insert
        horizon = 3 * FWCFG.window + 2
        for t in range(1, horizon):
            fw.keepalive(t)
        assert fw.inbound(horizon, back) is False

    def test_refresh_extends_lifetime(self):
        fw = FwDriver()
        out, back = _flow(6)
        for t in range(0, 8 * FWCFG.window, FWCFG.window // 2):
            fw.outbound(t, out)
            assert fw.inbound(t + 1, back) is True

    def test_unrelated_flow_not_admitted(self):
        fw = FwDriver()
        out, _ = _flow(7)
        fw.outbound(0, out)
        _, other_back = _flow(8)
        # not a guarantee of the construction (false positives are
        # possible in principle) but deterministic for these constants
        assert fw.inbound(1, other_back) is False

    def test_non_tcp_udp_never_remembered(self):
        fw = FwDriver()
        p = bare_ip_pkt(protocol=1)
        tm = fw.outbound(0, p)
        assert tm.ucast_egress_port == FWCFG.outside_port  # still forwarded
        assert fw.inbound(1, p) is False

    def test_one_sided_against_reference(self):
        rng = random.Random(99)
        flows = [_flow(i) for i in range(10, 18)]
        for scenario in range(25):
            fw = FwDriver()
            ref = RefFirewall(FWCFG.window)
            t = 0
            for _ in range(120):
                t += rng.randrange(1, 6)
                i = rng.randrange(len(flows))
                out, back = flows[i]
                key = flow_key(parse_standard(out).slots, inbound=False)
                action = rng.random()
                if action < 0.4:
                    fw.outbound(t, out)
                    ref.insert(key, t)
                elif action < 0.8:
                    admitted = fw.inbound(t, back)
                    if ref.must_admit(key, t):
                        assert admitted, (scenario, t, i)
                else:
                    fw.keepalive(t)

    def test_keepalives_cross_the_switch_silently(self):
        cfg = firewall_app(FWCFG)
        st = initial_switch_state(cfg)
        tr = run(cfg, st, SwitchQueues(), 5 * FWCFG.keepalive_period,
                 FifoDrainOracle())
        assert tr.fault is None
        assert tr.final_queues.q_output == ()
        assert tr.final_queues.q_egress == ()
        fired = [s for s in tr.steps if s.detail.p_g is not None]
        assert len(fired) >= 4  # one per period boundary crossed

    def test_inside_outside_must_differ(self):
        with pytest.raises(ValueError):
            FirewallConfig(inside_port=4, outside_port=4)


def _frozen(v) -> bool:
    """A dataclass none of whose fields can be set, not even to the value
    it holds."""
    if not dataclasses.is_dataclass(v):
        return False
    for f in dataclasses.fields(v):
        try:
            setattr(v, f.name, getattr(v, f.name))
        except dataclasses.FrozenInstanceError:
            continue
        return False
    return True


def _immutable(v) -> bool:
    """None, a scalar, or a tuple, frozenset or frozen dataclass of
    immutable values."""
    if v is None or isinstance(v, (bool, int, str, BitString)):
        return True
    if isinstance(v, (tuple, frozenset)):
        return all(map(_immutable, v))
    return _frozen(v) and all(_immutable(getattr(v, f.name)) for f in dataclasses.fields(v))


@pytest.mark.parametrize("cfg", [identity_app(), sampler_app(SCFG), firewall_app(FWCFG)],
                         ids=["identity", "sampler", "firewall"])
def test_state_slots_are_immutable(cfg):
    # a trace record reuses the digest of every slot its step kept, which
    # holds only because a kept slot object cannot change (SwitchState)
    pkts = [tcp_pkt(sp=i) for i in range(6)] + list(_flow(1))
    tr = run(cfg, initial_switch_state(cfg), SwitchQueues(q_input=arrivals(*pkts, port=1)),
             60, FifoDrainOracle())
    assert tr.fault is None
    for st in (tr.initial_state, tr.final_state):
        assert type(st.s_g) is PktGenState
        for slot in (st.s_g, *st.s_i, *st.s_e):
            assert slot is None or (_frozen(slot) and _immutable(slot)), slot


class TestAppFromConfig:
    def test_identity_defaults(self):
        b = app_from_config({})
        assert b.app_label == "identity"

    def test_sampler_fields(self):
        b = app_from_config({"app": "sampler", "sample_every": 7,
                             "monitor_port": 9})
        assert b.app_label == "sampler"
        tr = drain_run(b, [tcp_pkt(sp=i) for i in range(7)])
        ports = [port for port, _ in tr.final_queues.q_output]
        assert ports.count(9) == 1

    def test_firewall_fields(self):
        b = app_from_config({"app": "firewall", "window": 64,
                             "keepalive_period": 16})
        assert b.pktgen.enabled and b.pktgen.period == 16

    def test_qac_override(self):
        b = app_from_config({"qac": {"kind": "always_ready"}})
        assert isinstance(b.qac, QacAlwaysReady)

    def test_pktgen_override(self):
        b = app_from_config({"pktgen": {"enabled": True, "period": 50, "template": "01"}})
        assert b.pktgen.enabled and b.pktgen.period == 50

    def test_mc_decode(self):
        b = app_from_config({"mc": {
            "groups": {"5": [
                {"dev_port_list": [1, 2], "lag_list": [], "l1_xid_valid": False,
                 "l1_xid": 0, "rid": 10},
                {"dev_port_list": [3], "lag_list": [7], "l1_xid_valid": True,
                 "l1_xid": 42, "rid": 11}]},
            "lags": {"7": [20, 21, 22]},
            "l2_exclusion": {"9": [2, 21]},
            "cpu_port": 64}})
        assert b.mc == McConfig(
            groups={5: (L1Node(dev_port_list=(1, 2), rid=10),
                        L1Node(dev_port_list=(3,), lag_list=(7,),
                               l1_xid_valid=True, l1_xid=42, rid=11))},
            lags={7: (20, 21, 22)},
            l2_exclusion={9: frozenset({2, 21})})

    def test_pktgen_decode(self):
        b = app_from_config({"pktgen": {
            "enabled": True, "period": 100, "batch_count": 2, "pkts_per_batch": 2,
            "inter_batch_gap": 3, "inter_pkt_gap": 1, "template": "cafe",
            "source_port": 68}})
        assert b.pktgen == PktGenConfig(enabled=True, period=100, batch_count=2,
                                        pkts_per_batch=2, inter_batch_gap=3,
                                        inter_pkt_gap=1, template=BitString(0xCAFE, 16))

    def test_qac_decode(self):
        for obj, pol in ((None, QacMinimal()), ("minimal", QacMinimal()),
                         ({"kind": "minimal"}, QacMinimal()),
                         ({"kind": "always_ready", "ready_ports": "all"}, QacAlwaysReady()),
                         ({"kind": "always_ready", "ready_ports": [1, 2]},
                          QacAlwaysReady(ready_ports=frozenset({1, 2})))):
            assert app_from_config({"qac": obj}).qac == pol
        with pytest.raises(ValueError):
            app_from_config({"qac": {"kind": "mystery"}})

    def test_params_are_the_decoded_app_config(self):
        assert app_from_config({"forward_port": 4}).params == IdentityConfig(forward_port=4)
        b = app_from_config({"app": "sampler", "sample_every": 7})
        assert b.params == SamplerConfig(sample_every=7)
        b = app_from_config({"app": "firewall", "hash_seed": 9})
        assert b.params == FirewallConfig(hash_seed=9)

    def test_unknown_app(self):
        with pytest.raises(ValueError):
            app_from_config({"app": "teleport"})

    @pytest.mark.parametrize("config", [
        {"app": "sampler", "sample_evry": 4},
        # the firewall runs its own keepalive generator
        {"app": "firewall", "pktgen": {"enabled": False}},
        {"app": "sampler", "mc": {}},
        {"forward_prot": 2},
        {"app": ["sampler"]},
        ["app", "identity"],
    ])
    def test_unknown_key_rejected(self, config):
        with pytest.raises(ValueError):
            app_from_config(config)

    @pytest.mark.parametrize("config", [
        {"app": "sampler", "sample_every": None},
        {"app": "identity", "forward_port": [1]},
        {"app": "firewall", "window": "64"},
        {"app": "sampler", "monitor_port": True},
    ])
    def test_non_integer_value_rejected(self, config):
        key = next(k for k in config if k != "app")
        with pytest.raises(ValueError, match=key):
            app_from_config(config)

    @pytest.mark.parametrize(
        "config, path", BAD_NESTED_CONFIGS,
        ids=[json.dumps(c, separators=(",", ":")) for c, _ in BAD_NESTED_CONFIGS])
    def test_bad_nested_config_rejected(self, config, path):
        with pytest.raises(ValueError, match=re.escape(repr(path))):
            app_from_config(config)


# stock configs with every engine section set, so every kind of leaf occurs
STOCK_CONFIGS = [
    {"app": "identity", "forward_port": 2,
     "mc": {"groups": {"5": [{"dev_port_list": [1, 2], "lag_list": [7],
                              "l1_xid_valid": True, "l1_xid": 42, "rid": 10}]},
            "lags": {"7": [20, 21]}, "l2_exclusion": {"9": [2]}, "cpu_port": 64},
     "pktgen": {"enabled": True, "period": 50, "template": "cafe"},
     "qac": {"kind": "always_ready", "ready_ports": [1, 2]}},
    {"app": "sampler", "forward_port": 1, "monitor_port": 3, "sample_every": 4,
     "pktgen": {"enabled": False}, "qac": "minimal"},
    {"app": "firewall", "inside_port": 1, "outside_port": 2, "window": 32,
     "keepalive_period": 8, "qac": None},
]


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _leaf_paths(v, path + (k,))
    elif isinstance(obj, list) and obj:
        for i, v in enumerate(obj):
            yield from _leaf_paths(v, path + (i,))
    else:
        yield path


# every JSON type but integers: a huge hash_count or bits makes the
# firewall loop or allocate that much, which no type check can refuse
OTHER_JSON = st.one_of(
    st.none(), st.booleans(), st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=4), st.lists(st.integers(-3, 600), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(-3, 600), max_size=2))


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_mutated_config_decodes_or_raises_value_error(data):
    config = json.loads(json.dumps(data.draw(st.sampled_from(STOCK_CONFIGS))))
    path = data.draw(st.sampled_from(list(_leaf_paths(config))))
    *parents, last = path
    holder = config
    for k in parents:
        holder = holder[k]
    old = holder[last]
    holder[last] = data.draw(OTHER_JSON.filter(lambda v: type(v) is not type(old)))
    try:
        cfg = app_from_config(config)
    except ValueError:
        return
    assert cfg.params is not None
