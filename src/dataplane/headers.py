"""Concrete header layouts and the standard packet shape.

Every packet handled by the stock applications carries, in order: an
8-byte intrinsic metadata block, an 8-byte opaque port metadata block,
Ethernet, IPv4, then TCP or UDP depending on the IPv4 protocol number,
then an arbitrary payload.  Sampled copies additionally carry an
18-byte sample digest in front, told apart by the copy's rid: the
digest's leading marker may begin any packet too.

The declared formats are the single source of this wire layout.
STANDARD_FORMAT and SAMPLED_FORMAT are built, validated and compiled
once, at import: standard_bindings and sampled_bindings are their
compiled matchers, which the stock parsers in apps call, and
deparse_slots emits headers in the order SAMPLED_FORMAT binds them.
"""

from __future__ import annotations

from .packet_format import (
    BitString, Branch, Concat, Empty, ExactPlain, ExactValue,
    HeaderType, TypedValue, _bits, compile_format, seq, value_bindings,
)

ETHERNET = HeaderType("ethernet", (
    ("dst", 48),
    ("src", 48),
    ("ethertype", 16),
))

IPV4 = HeaderType("ipv4", (
    ("version", 4),
    ("ihl", 4),
    ("dscp_ecn", 8),
    ("total_len", 16),
    ("id", 16),
    ("flags_frag", 16),
    ("ttl", 8),
    ("protocol", 8),
    ("checksum", 16),
    ("src", 32),
    ("dst", 32),
))

TCP = HeaderType("tcp", (
    ("src_port", 16),
    ("dst_port", 16),
    ("seq", 32),
    ("ack", 32),
    ("offset_flags", 16),
    ("window", 16),
    ("checksum", 16),
    ("urgent", 16),
))

UDP = HeaderType("udp", (
    ("src_port", 16),
    ("dst_port", 16),
    ("length", 16),
    ("checksum", 16),
))

INTRINSIC_META = HeaderType("intrinsic_meta", (
    ("ingress_port", 16),
    ("reserved", 48),
))

# the switch never interprets these 8 bytes
PORT_META = HeaderType("port_meta", (("blob", 64),))

SAMPLE_HEADER = HeaderType("sample", (
    ("marker_ethertype", 16),
    ("src_addr", 32),
    ("dst_addr", 32),
    ("src_port", 16),
    ("dst_port", 16),
    ("sample_count", 32),
))

# first 16 bits of a sampled copy.  A regular packet starts with its
# meta.ingress_port, a 16-bit field that may hold the same value, so
# these bits alone do not tell the two apart; the sampler's egress
# parser goes by the copy's rid instead
SAMPLE_MARKER = 0x9999

IP_PROTO_TCP = 6
IP_PROTO_UDP = 17


# ipv4["protocol"]'s shift and mask, which the predicates apply themselves
_PROTO_SHIFT, _PROTO_MASK = IPV4.layout["protocol"]


def is_tcp(ipv4: TypedValue) -> bool:
    return ipv4.word >> _PROTO_SHIFT & _PROTO_MASK == IP_PROTO_TCP


def is_udp(ipv4: TypedValue) -> bool:
    return ipv4.word >> _PROTO_SHIFT & _PROTO_MASK == IP_PROTO_UDP


# meta ; port_meta ; ethernet ; ipv4 ; (tcp | udp | nothing) ; payload
STANDARD_FORMAT = seq(
    ExactValue("meta", INTRINSIC_META),
    ExactValue("port_md", PORT_META),
    ExactValue("ethernet", ETHERNET),
    ExactValue("ipv4", IPV4),
    Branch(
        lambda env: is_tcp(env["ipv4"]),
        ExactValue("tcp", TCP),
        Branch(
            lambda env: is_udp(env["ipv4"]),
            ExactValue("udp", UDP),
            Empty(),
            label="is_udp",
        ),
        label="is_tcp",
    ),
    ExactPlain("payload"),
)
# sample ; the standard packet format
SAMPLED_FORMAT = Concat(ExactValue("sample", SAMPLE_HEADER), STANDARD_FORMAT)
# the bindings of complete matches of STANDARD_FORMAT and SAMPLED_FORMAT
standard_bindings = compile_format(STANDARD_FORMAT)
sampled_bindings = compile_format(SAMPLED_FORMAT)

# every header slot in wire order; "tcp" and "udp" are alternatives, so
# a parsed packet holds at most one of them
WIRE_ORDER = value_bindings(SAMPLED_FORMAT)


def deparse_slots(slots: dict[str, TypedValue]) -> BitString:
    """Encode the header slots present, in WIRE_ORDER: their words
    shifted and ORed into one bit string."""
    word = nbits = 0
    for name in WIRE_ORDER:
        v = slots.get(name)
        if v is not None:
            width = v.htype.total_width
            word = (word << width) | v.word
            nbits += width
    return _bits(word, nbits)


def _maker(htype: HeaderType, **defaults: int):
    """Keyword constructor of htype values: every declared field starts
    at 0, then takes its default here, then the caller's value."""
    base = {**dict.fromkeys((name for name, _ in htype.fields), 0), **defaults}

    def make(**fields: int) -> TypedValue:
        return TypedValue(htype, {**base, **fields})
    return make


make_ethernet = _maker(ETHERNET)
make_ipv4 = _maker(IPV4, version=4, ihl=5, ttl=64)
make_tcp = _maker(TCP, offset_flags=0x5000)
make_udp = _maker(UDP, length=8)
make_intrinsic_meta = _maker(INTRINSIC_META)
make_port_meta = _maker(PORT_META)
make_sample = _maker(SAMPLE_HEADER, marker_ethertype=SAMPLE_MARKER)


def build_packet(*, meta: TypedValue | None = None,
                 port_md: TypedValue | None = None,
                 ethernet: TypedValue | None = None,
                 ipv4: TypedValue | None = None,
                 l4: TypedValue | None = None,
                 payload: BitString = BitString()) -> BitString:
    """Assemble a full on-the-wire packet in standard layout; l4 is a
    TCP or UDP header."""
    slots = {
        "meta": meta if meta is not None else make_intrinsic_meta(),
        "port_md": port_md if port_md is not None else make_port_meta(),
        "ethernet": ethernet if ethernet is not None else make_ethernet(),
        "ipv4": ipv4 if ipv4 is not None else make_ipv4(),
    }
    if l4 is not None:
        if l4.htype not in (TCP, UDP):
            raise ValueError(f"l4 must be a tcp or udp header, not {l4.htype.name}")
        slots[l4.htype.name] = l4
    return deparse_slots(slots) + payload
