"""Header catalog: field widths, packet assembly, the two wire formats."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dataplane.apps import parse_sampled, parse_standard
from dataplane.packet_format import (
    BitString, ExtractStatus, TypedValue, encode, extract, match_report,
)
from dataplane.headers import (
    ETHERNET,
    INTRINSIC_META,
    IPV4,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    PORT_META,
    SAMPLE_HEADER,
    SAMPLE_MARKER,
    SAMPLED_FORMAT,
    STANDARD_FORMAT,
    TCP,
    UDP,
    build_packet,
    deparse_slots,
    make_ethernet,
    make_intrinsic_meta,
    make_ipv4,
    make_sample,
    make_tcp,
    make_udp,
    sampled_bindings,
    standard_bindings,
)

from support import STOCK_SLOT_TYPES, bare_ip_pkt, interpreted, tcp_pkt, udp_pkt, with_fields


def test_widths():
    assert ETHERNET.total_width == 112
    assert IPV4.total_width == 160
    assert TCP.total_width == 160
    assert UDP.total_width == 64
    assert INTRINSIC_META.total_width == 64
    assert PORT_META.total_width == 64
    assert SAMPLE_HEADER.total_width == 144


def test_protocol_branches():
    # every protocol value, amid random other fields: the declared branch
    # tests read the protocol bits alone.  160 more bits fit a TCP header,
    # so each arm's header can be bound
    rng = random.Random(27)
    for proto in range(256):
        ipv4 = TypedValue(IPV4, {name: proto if name == "protocol" else rng.getrandbits(width)
                                 for name, width in IPV4.fields})
        env = standard_bindings(build_packet(ipv4=ipv4) + BitString(0, 160))
        assert ("tcp" in env) is (proto == IP_PROTO_TCP)
        assert ("udp" in env) is (proto == IP_PROTO_UDP)


def test_build_packet_widths():
    assert len(tcp_pkt()) == 64 + 64 + 112 + 160 + 160
    assert len(udp_pkt()) == 64 + 64 + 112 + 160 + 64
    assert len(bare_ip_pkt()) == 400
    assert len(tcp_pkt(payload=b"abc")) == 560 + 24


def test_build_packet_layout():
    p = tcp_pkt(in_port=7, sp=1234, dp=80)
    meta, s, rest = extract(INTRINSIC_META, p)
    assert s is ExtractStatus.SUCCESS and meta["ingress_port"] == 7
    _, s, rest = extract(PORT_META, rest)
    eth, s, rest = extract(ETHERNET, rest)
    assert eth["ethertype"] == 0x0800
    ip, s, rest = extract(IPV4, rest)
    assert ip["protocol"] == IP_PROTO_TCP
    tcp, s, rest = extract(TCP, rest)
    assert (tcp["src_port"], tcp["dst_port"]) == (1234, 80)
    assert len(rest) == 0


class TestStandardFormat:
    def test_tcp_binds_l4(self):
        r = match_report(tcp_pkt(sp=99, payload=b"xy"), STANDARD_FORMAT)
        assert r["ok"]
        env = r["env"]
        assert env["tcp"]["src_port"] == 99
        assert env["payload"] == BitString.from_bytes(b"xy")
        assert "udp" not in env

    def test_udp_binds_l4(self):
        r = match_report(udp_pkt(dp=53), STANDARD_FORMAT)
        assert r["ok"] and r["env"]["udp"]["dst_port"] == 53 and "tcp" not in r["env"]

    def test_other_protocol_skips_l4(self):
        r = match_report(bare_ip_pkt(protocol=1, payload=b"z"), STANDARD_FORMAT)
        assert r["ok"] and "tcp" not in r["env"] and "udp" not in r["env"]

    def test_minimum_width(self):
        assert match_report(bare_ip_pkt(), STANDARD_FORMAT)["ok"]
        short = bare_ip_pkt().take(399)
        assert not match_report(short, STANDARD_FORMAT)["ok"]

    def test_truncated_l4_rejected(self):
        p = tcp_pkt()
        assert not match_report(p.take(len(p) - 1), STANDARD_FORMAT)["ok"]


class TestSampledFormat:
    def test_accepts_sample_prefix(self):
        from dataplane.packet_format import encode
        inner = udp_pkt()
        p = encode(make_sample(src_addr=1, dst_addr=2)) + inner
        r = match_report(p, SAMPLED_FORMAT)
        assert r["ok"] and r["env"]["sample"]["marker_ethertype"] == SAMPLE_MARKER

    def test_rejects_plain_packet(self):
        assert not match_report(udp_pkt(), SAMPLED_FORMAT)["ok"]


def test_make_defaults_in_range():
    # builders must produce encodable values out of the box
    for v in (make_ethernet(), make_ipv4(), make_tcp(), make_udp(),
              make_intrinsic_meta(), make_sample()):
        for name, width in v.htype.fields:
            assert 0 <= v[name] < (1 << width)


def test_make_rejects_unknown_field():
    with pytest.raises(ValueError):
        make_udp(bogus=1)


def test_build_packet_refuses_an_l4_that_is_not_tcp_or_udp():
    with pytest.raises(ValueError, match="^l4 must be a tcp or udp header, not ethernet$"):
        build_packet(l4=make_ethernet())


def test_build_packet_payload_only():
    tail = BitString(0b1, 1)
    p = build_packet(payload=tail)
    assert len(p) == 401 and p.drop(400) == tail


def test_parse_and_deparse_skip_validation(monkeypatch):
    # parsed headers are built from their wire words, which are in range
    # by construction; only hand-built values go through the checks
    pkt = tcp_pkt()
    sampled = encode(make_sample(sample_count=7)) + pkt
    calls = 0
    init = TypedValue.__init__

    def counting(self, *args, **kwargs):
        nonlocal calls
        calls += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(TypedValue, "__init__", counting)
    for p, parse in ((pkt, parse_standard), (sampled, parse_sampled)):
        d = parse(p)
        assert d is not None and deparse_slots(d.slots) + d.payload == p
    assert calls == 0


# ---------------------------------------------------------------------------
# the compiled stock parsers against the format interpreter, the spec

# first bit of the IPv4 protocol byte in a standard packet
PROTOCOL_BIT = (INTRINSIC_META.total_width + PORT_META.total_width + ETHERNET.total_width
                + IPV4.total_width - IPV4.layout["protocol"][0] - 8)


@st.composite
def wire_packets(draw):
    """A packet carrying TCP, UDP or another protocol, every header field
    drawn, with a payload of any bit length, half of them behind a
    sample record."""
    def value(name):
        htype = STOCK_SLOT_TYPES[name]
        return TypedValue(htype, {f: draw(st.integers(0, (1 << w) - 1)) for f, w in htype.fields})

    names = ["meta", "port_md", "ethernet", "ipv4"]
    protocol = draw(st.sampled_from([IP_PROTO_TCP, IP_PROTO_UDP]) | st.integers(0, 255))
    names += {IP_PROTO_TCP: ["tcp"], IP_PROTO_UDP: ["udp"]}.get(protocol, [])
    if draw(st.booleans()):
        names.append("sample")
    slots = {name: value(name) for name in names}
    slots["ipv4"] = with_fields(slots["ipv4"], protocol=protocol)
    n = draw(st.integers(0, 40))
    return deparse_slots(slots) + BitString(draw(st.integers(0, (1 << n) - 1)), n)


def _flip(p: BitString, i: int) -> BitString:
    return BitString(p.value ^ (1 << (len(p) - 1 - i)), len(p))


def _agree(p: BitString) -> None:
    """Both compiled stock parsers bind what the interpreter binds, in
    the same order, and reject what it rejects."""
    for fmt, compiled in ((STANDARD_FORMAT, standard_bindings),
                          (SAMPLED_FORMAT, sampled_bindings)):
        got, want = compiled(p), interpreted(p, fmt)
        assert got == want, (fmt is SAMPLED_FORMAT, p)
        if got is not None:
            assert list(got) == list(want)


class TestCompiledParsers:
    @settings(max_examples=40, deadline=None)
    @given(wire_packets())
    def test_every_truncation(self, p):
        for n in range(len(p) + 1):
            _agree(p.take(n))

    @settings(max_examples=40, deadline=None)
    @given(wire_packets())
    def test_every_single_bit_flip(self, p):
        _agree(p)
        for i in range(len(p)):
            _agree(_flip(p, i))

    def test_protocol_byte_flips_switch_arms(self):
        payload = bytes(range(24))  # room for a TCP header if a flip asks for one
        seen = set()
        for protocol in (IP_PROTO_TCP, IP_PROTO_UDP, 1, 2):
            p = bare_ip_pkt(protocol=protocol, payload=payload)
            for prefix in (BitString(), encode(make_sample())):
                q = prefix + p
                for bit in range(8):
                    flipped = _flip(q, len(prefix) + PROTOCOL_BIT + bit)
                    _agree(flipped)
                    got = (sampled_bindings if len(prefix) else standard_bindings)(flipped)
                    seen.add("tcp" if "tcp" in got else "udp" if "udp" in got else "none")
        # 1 ^ 16 is UDP, 2 ^ 4 is TCP, and TCP or UDP flip to neither
        assert seen == {"tcp", "udp", "none"}
