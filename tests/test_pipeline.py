"""Pipeline composition: parse -> control -> deparse, and the isolation
guarantees around parser rejection."""

import pytest

from dataplane.packet_format import BitString
from dataplane.pipeline import (
    Components,
    EgressIndication,
    EgressParseFailure,
    TmMeta,
    egress_pipeline,
    ingress_pipeline,
)
from dataplane.engines import EgressMeta, UNICAST
from dataplane.apps import IdentityConfig, deparse_slots, identity_app, parse_standard

from support import tcp_pkt, udp_pkt, with_fields


def _tm(port=1):
    return TmMeta(ucast_egress_port=port, copy_to_cpu=0, mcast_grp_a=0,
                  mcast_grp_b=0, level1_exclusion_id=0, level2_exclusion_id=0,
                  rid=0, drop=0)


class TestTmMeta:
    def test_port_range(self):
        with pytest.raises(ValueError):
            _tm(port=512)

    def test_port_may_be_absent(self):
        assert _tm(port=None).ucast_egress_port is None

    def test_flag_ranges(self):
        with pytest.raises(ValueError):
            TmMeta(ucast_egress_port=None, copy_to_cpu=2, mcast_grp_a=0,
                   mcast_grp_b=0, level1_exclusion_id=0, level2_exclusion_id=0,
                   rid=0, drop=0)
        with pytest.raises(ValueError):
            TmMeta(ucast_egress_port=None, copy_to_cpu=0, mcast_grp_a=1 << 16,
                   mcast_grp_b=0, level1_exclusion_id=0, level2_exclusion_id=0,
                   rid=0, drop=0)
        with pytest.raises(ValueError):
            TmMeta(ucast_egress_port=None, copy_to_cpu=0, mcast_grp_a=0,
                   mcast_grp_b=0, level1_exclusion_id=0, level2_exclusion_id=1 << 9,
                   rid=0, drop=0)


def test_indication_flag():
    with pytest.raises(ValueError):
        EgressIndication(recirculate=2)


class TestIngressPipeline:
    def test_identity_preserves_bits(self):
        comps = identity_app(IdentityConfig(5)).components
        p = tcp_pkt(payload=b"hello")
        out, state = ingress_pipeline(comps, 0, 0, p, (None, None, None))
        assert out is not None
        tm, bits = out
        assert tm.ucast_egress_port == 5 and tm.drop == 0
        assert bits == p

    def test_reject_leaves_control_state_alone(self):
        comps = identity_app().components
        sentinel_c, sentinel_d = object(), object()
        out, state = ingress_pipeline(comps, 3, 0, tcp_pkt().take(50),
                                      (None, sentinel_c, sentinel_d))
        assert out is None
        assert state[1] is sentinel_c and state[2] is sentinel_d

    def test_control_sees_tick_and_port(self):
        seen = []

        def spy_control(d, s):
            t, port, slots = d
            seen.append((t, port))
            return (_tm(), slots), s

        def spy_deparser(slots, s):
            return deparse_slots(slots), s

        comps = Components(
            in_parser=lambda p, s: (parse_standard(p), s),
            in_control=spy_control,
            in_deparser=spy_deparser,
            e_parser=lambda d, s: (None, s),
            e_control=lambda d, s: (d[1], s),
            e_deparser=lambda sl, s: ((EgressIndication(), BitString()), s),
        )
        ingress_pipeline(comps, 42, 7, udp_pkt(), (None, None, None))
        assert seen == [(42, 7)]

    def test_payload_survives_header_rewrite(self):
        # control rewrites the ethernet source; payload must pass through
        def rewriting_control(d, s):
            t, port, slots = d
            slots = dict(slots)
            slots["ethernet"] = with_fields(slots["ethernet"], src=0xDEAD)
            return (_tm(), slots), s

        base = identity_app().components
        comps = Components(
            in_parser=base.in_parser, in_control=rewriting_control,
            in_deparser=base.in_deparser, e_parser=base.e_parser,
            e_control=base.e_control, e_deparser=base.e_deparser)
        payload = b"opaque payload bytes"
        p = udp_pkt(payload=payload)
        out, _ = ingress_pipeline(comps, 0, 0, p, (None, None, None))
        bits = out[1]
        assert bits != p
        assert bits.drop(len(bits) - 8 * len(payload)) == BitString.from_bytes(payload)
        assert len(bits) == len(p)


class TestEgressPipeline:
    def test_round_trip(self):
        comps = identity_app().components
        p = tcp_pkt(payload=b"x")
        em = EgressMeta(egress_port=1, rid=0, source=UNICAST)
        (ind, bits), state = egress_pipeline(comps, em, p, (None, None, None))
        assert ind.recirculate == 0 and bits == p

    def test_reject_raises(self):
        comps = identity_app().components
        em = EgressMeta(egress_port=1, rid=0, source=UNICAST)
        with pytest.raises(EgressParseFailure):
            egress_pipeline(comps, em, BitString(0, 8), (None, None, None))

