"""Bundled applications: identity forwarder, packet sampler, stateful
firewall.

An application is the SwitchConfig its builder returns: the six pipeline
component functions plus the engine configuration they assume (multicast
groups, generator timing, admission policy), the initial per-component
state and the actions its ingress control can emit, so a switch can be
instantiated in one call.  A builder takes only its app's config record
and sets only the engines the app fixes; APPS names the engine sections
a config file may set for each app, and app_from_config puts them in.
"""

from __future__ import annotations

import random
from functools import lru_cache, partial
from typing import Callable, Optional

from .engines import L1Node, McConfig, PktGenConfig, PktGenState, QacAlwaysReady, QacMinimal
from .headers import (
    build_packet, deparse_slots, make_ethernet, make_intrinsic_meta,
    make_ipv4, make_sample, sampled_bindings, standard_bindings,
)
from .packet_format import BitString, TypedValue
from .pipeline import Components, EgressIndication, ParsedData, TmMeta
from .records import fields, is_record, record, replace
from .switch import SwitchConfig, SwitchState, expect, port_from_json

# ethertype of the generator keepalive template; disjoint from the
# sample marker and from anything a host would send in these tests
KEEPALIVE_ETHERTYPE = 0x9A9A


def initial_switch_state(cfg: SwitchConfig) -> SwitchState:
    return SwitchState(t=0, s_g=PktGenState(), s_i=cfg.init_ingress, s_e=cfg.init_egress)


def switch_config(cfg: SwitchConfig) -> SwitchConfig:
    """cfg itself: an app is already its SwitchConfig.  Kept only because
    the benchmark harness (`perfbench/worker.py`) still calls it."""
    return cfg


# ---------------------------------------------------------------------------
# stock parsers: the declared formats in headers, compiled


def _parser(bindings: Callable) -> Callable[[BitString], Optional[ParsedData]]:
    """The parser over the compiled matcher bindings.  It calls bindings
    itself, so a parse is one frame below the component that asks."""
    def parse(p: BitString) -> Optional[ParsedData]:
        """Split a wire packet along the matcher's format.  Returns None
        when the input is too short for the headers its own protocol
        field promises; trailing bits become the payload."""
        slots = bindings(p)
        if slots is None:
            return None
        payload = slots.pop("payload")
        return ParsedData(slots, payload)
    return parse


parse_standard = _parser(standard_bindings)
parse_sampled = _parser(sampled_bindings)  # a sample record up front


def _tm(*, ucast: Optional[int] = None, mcast_a: int = 0, drop: int = 0) -> TmMeta:
    return TmMeta(ucast_egress_port=ucast, copy_to_cpu=0, mcast_grp_a=mcast_a,
                  mcast_grp_b=0, level1_exclusion_id=0, level2_exclusion_id=0,
                  rid=0, drop=drop)


# ---------------------------------------------------------------------------
# app skeleton: the pass-through components the apps share.  They call
# parse_standard and deparse_slots through this module's globals.  The
# metadata a stock component emits depends on the app's config at most,
# so each value is built once, at import or with the app, and emitted
# for every packet; the TmMeta values are the app's declared actions.

_NO_RECIRCULATE = EgressIndication()


def _in_parser(p, s):
    return parse_standard(p), s


def _e_parser(d, s):
    em, p = d
    return parse_standard(p), s


def _e_control(d, s):
    em, slots = d
    return slots, s


def _in_deparser(slots, s):
    return deparse_slots(slots), s


def _e_deparser(slots, s):
    return (_NO_RECIRCULATE, deparse_slots(slots)), s


def _app(label: str, params, in_control: Callable, actions: tuple, *,
         e_parser: Callable = _e_parser, e_control: Callable = _e_control, **fixed) -> SwitchConfig:
    """An app on the shared skeleton whose in_control emits actions; fixed
    holds the other SwitchConfig fields the app sets (the engines it
    fixes, its initial state)."""
    comps = Components(_in_parser, in_control, _in_deparser, e_parser, e_control, _e_deparser)
    return SwitchConfig(comps, app_label=label, params=params, actions=actions, **fixed)


# ---------------------------------------------------------------------------
# identity forwarder


@record
class IdentityConfig:
    forward_port: int = 1

    def __post_init__(self) -> None:
        port_from_json(self.forward_port, "forward_port")


def identity_app(cfg: IdentityConfig = IdentityConfig()) -> SwitchConfig:
    """Sends every parseable packet, unchanged, out one port."""
    tm = _tm(ucast=cfg.forward_port)

    def in_control(d, s):
        t, in_port, slots = d
        return (tm, slots), s
    return _app("identity", cfg, in_control, (tm,))


# ---------------------------------------------------------------------------
# packet sampler


@record
class SamplerConfig:
    forward_port: int = 1
    monitor_port: int = 3
    monitor_group: int = 100
    sample_every: int = 1024
    forward_rid: int = 2
    monitor_rid: int = 1

    def __post_init__(self) -> None:
        for name in ("forward_port", "monitor_port"):
            port_from_json(getattr(self, name), name)
        g = self.monitor_group
        expect(0 < g < 1 << 16, g, "in 1..65535", "monitor_group")
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if self.forward_rid == self.monitor_rid:
            raise ValueError("forward and monitor copies need distinct rids")
        # the egress parser tells a sampled copy by its rid
        for name in ("forward_rid", "monitor_rid"):
            rid = getattr(self, name)
            if expect(0 <= rid < 1 << 16, rid, "in 0..65535", name) == 0:
                raise ValueError(f"{name} must not be 0, the rid of every unicast copy")


@record
class SamplerState:
    counter: int = 0  # packets seen so far, mod 2^32


def sampler_app(cfg: SamplerConfig = SamplerConfig()) -> SwitchConfig:
    """Every sample_every-th packet is multicast as two copies: one to
    the monitor with a sample record in front, one to the normal
    forward port with the original bytes restored on egress.  All
    other packets are plain unicast forwards."""
    # forward node first: FIFO drains then emit the restored original
    # before the monitor record, which is the order the relation expects
    mc = McConfig(groups={cfg.monitor_group: (
        L1Node(dev_port_list=(cfg.forward_port,), rid=cfg.forward_rid),
        L1Node(dev_port_list=(cfg.monitor_port,), rid=cfg.monitor_rid),
    )})
    to_monitor = _tm(mcast_a=cfg.monitor_group)
    to_forward = _tm(ucast=cfg.forward_port)

    def in_control(d, s):
        t, in_port, slots = d
        c2 = (s.counter + 1) % (1 << 32)
        if c2 % cfg.sample_every == 0:
            ipv4 = slots["ipv4"]
            l4 = slots.get("tcp") or slots.get("udp")
            sample = make_sample(
                src_addr=ipv4["src"], dst_addr=ipv4["dst"],
                src_port=l4["src_port"] if l4 is not None else 0,
                dst_port=l4["dst_port"] if l4 is not None else 0,
                sample_count=c2)
            out = (to_monitor, {"sample": sample, **slots})
        else:
            out = (to_forward, slots)
        return out, SamplerState(c2)

    sampled_rids = (cfg.forward_rid, cfg.monitor_rid)

    def e_parser(d, s):
        em, p = d
        # the copy's rid, not its bits, says whether ingress put a sample
        # record in front: any packet may start with the marker's bits
        if em.rid in sampled_rids:
            return parse_sampled(p), s
        return parse_standard(p), s

    def e_control(d, s):
        em, slots = d
        if "sample" not in slots:
            return slots, s
        if em.rid == cfg.monitor_rid:
            return {"sample": slots["sample"]}, s
        return {k: v for k, v in slots.items() if k != "sample"}, s

    return _app("sampler", cfg, in_control, (to_forward, to_monitor), e_parser=e_parser,
                e_control=e_control, mc=mc, init_ingress=(None, SamplerState(), None))


# ---------------------------------------------------------------------------
# stateful firewall


@record
class FirewallConfig:
    inside_port: int = 1
    outside_port: int = 2
    window: int = 256        # ticks a flow stays admitted after its last insert
    bits: int = 512          # filter bits per pane
    hash_count: int = 3
    hash_seed: int = 0x5EED
    keepalive_period: int = 16

    def __post_init__(self) -> None:
        for name in ("inside_port", "outside_port"):
            port_from_json(getattr(self, name), name)
        if min(self.window, self.bits, self.hash_count, self.keepalive_period) < 1:
            raise ValueError("window, bits, hash_count and keepalive_period must all be >= 1")
        # each pane is an integer of `bits` bits, rebuilt on every insert and
        # kept by every recorded state, and each packet is hashed hash_count
        # times; unbounded, a config value alone could exhaust memory
        if self.bits > 1 << 16 or self.hash_count > 16:
            raise ValueError("bits must be at most 65536 and hash_count at most 16")
        if self.inside_port == self.outside_port:
            raise ValueError("inside and outside must be distinct ports")


@record
class FirewallState:
    """Two filter panes aged against the clock.

    Inserts set bits in both panes; lookups consult their union.  Only
    the inactive pane is ever cleaned, one slice of bits per tick, so
    that by the time it becomes active again it is empty.  A flow
    inserted at tick t therefore stays visible in the union at least
    until t + window: the pane that is active (or about to become
    active) at insert time is not touched by the cleaner for a full
    window after the next rotation.
    """

    pane0: int = 0
    pane1: int = 0
    active: int = 0      # pane currently exempt from cleaning
    rotated_at: int = 0  # tick of the last pane swap
    cursor: int = 0      # first uncleaned bit of the inactive pane


# flows whose filter positions a firewall app keeps at once
FLOW_POSITIONS_KEPT = 1024


def _hash_params(seed: int, k: int) -> tuple[tuple[int, int], ...]:
    rng = random.Random(seed)
    return tuple((rng.getrandbits(64) | 1, rng.getrandbits(64)) for _ in range(k))


def flow_key(slots: dict[str, TypedValue], inbound: bool) -> Optional[int]:
    """Canonical bidirectional 5-tuple fingerprint, oriented as seen
    from the outside.  None for non-TCP/UDP traffic."""
    ipv4 = slots["ipv4"]
    l4 = slots.get("tcp") or slots.get("udp")
    if l4 is None:
        return None
    src, dst = ipv4["src"], ipv4["dst"]
    sp, dp = l4["src_port"], l4["dst_port"]
    if not inbound:
        src, dst, sp, dp = dst, src, dp, sp
    return (src << 80) | (dst << 48) | (sp << 32) | (dp << 16) | ipv4["protocol"]


def keepalive_template() -> BitString:
    return build_packet(
        meta=make_intrinsic_meta(ingress_port=68),
        ethernet=make_ethernet(ethertype=KEEPALIVE_ETHERTYPE),
        ipv4=make_ipv4(protocol=0xFF))


def firewall_app(cfg: FirewallConfig = FirewallConfig()) -> SwitchConfig:
    """Allow-by-default from the inside, allow-by-history from the
    outside.

    Outbound packets record their flow in the filter; inbound packets
    are forwarded only when the filter remembers the flow, otherwise
    dropped.  Generator keepalives guarantee the aging logic runs at
    least every keepalive_period ticks even with no traffic; they are
    consumed without producing output.
    """
    params = _hash_params(cfg.hash_seed, cfg.hash_count)
    m = cfg.bits
    mask = (1 << 64) - 1

    # a flow's packets repeat its key, and the positions are a pure
    # function of it, so each app remembers the latest flows' positions
    @lru_cache(maxsize=FLOW_POSITIONS_KEPT)
    def positions(key: int) -> tuple[int, ...]:
        # the affine step alone is useless here: key bits below 16 are
        # constant per protocol and "% m" with a power-of-two m reads
        # only low bits, so fold the high bits down first
        out = []
        for a, b in params:
            h = (a * key + b) & mask
            h ^= h >> 30
            h = (h * 0xBF58476D1CE4E5B9) & mask
            h ^= h >> 27
            h = (h * 0x94D049BB133111EB) & mask
            h ^= h >> 31
            out.append(h % m)
        return tuple(out)

    def maintain(t: int, s: FirewallState) -> FirewallState:
        """s aged to tick t: s itself when nothing changes, else one new
        state."""
        panes, active, rotated_at, cursor = [s.pane0, s.pane1], s.active, s.rotated_at, s.cursor
        # swap panes once a full window has elapsed; the rest of the
        # inactive pane is wiped here so the new active pane is clean
        if t - rotated_at >= cfg.window:
            active = 1 - active
            if cursor < m:
                panes[active] &= ~((1 << m) - (1 << cursor))
            rotated_at, cursor = t, 0
        # pace the cleaner so the whole inactive pane is covered within
        # one window regardless of how often traffic arrives
        target = min(m, m * (t - rotated_at) // cfg.window)
        if target > cursor:
            panes[1 - active] &= ~((1 << target) - (1 << cursor))
            cursor = target
        if rotated_at == s.rotated_at and cursor == s.cursor:
            return s
        return FirewallState(panes[0], panes[1], active, rotated_at, cursor)

    def insert(s: FirewallState, key: int) -> FirewallState:
        bits = 0
        for pos in positions(key):
            bits |= 1 << pos
        return FirewallState(s.pane0 | bits, s.pane1 | bits,
                             s.active, s.rotated_at, s.cursor)

    def remembered(s: FirewallState, key: int) -> bool:
        union = s.pane0 | s.pane1
        return all(union >> pos & 1 for pos in positions(key))

    drop = _tm(drop=1)
    to_inside = _tm(ucast=cfg.inside_port)
    to_outside = _tm(ucast=cfg.outside_port)

    def in_control(d, s):
        t, in_port, slots = d
        s = maintain(t, s)
        if slots["ethernet"]["ethertype"] == KEEPALIVE_ETHERTYPE:
            return (drop, slots), s
        if in_port == cfg.outside_port:
            key = flow_key(slots, inbound=True)
            if key is not None and remembered(s, key):
                return (to_inside, slots), s
            return (drop, slots), s
        key = flow_key(slots, inbound=False)
        if key is not None:
            s = insert(s, key)
        return (to_outside, slots), s

    pktgen = PktGenConfig(enabled=True, period=cfg.keepalive_period,
                          template=keepalive_template())
    return _app("firewall", cfg, in_control, (drop, to_inside, to_outside), pktgen=pktgen,
                init_ingress=(None, FirewallState(), None))


# ---------------------------------------------------------------------------
# config-file entry point: the config records are the schema


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _expect(ok, v, what: str, where: str):
    """v when ok holds, else a ValueError naming the key path."""
    return expect(ok, v, what, f"config key {where!r}")


def _value(default, v, where: str):
    """v decoded against default, whose JSON type it must have: an integer
    (true and false do not count), a bool, a hex string for a BitString,
    an object of a config record's fields, or a list of items like a
    tuple's first one (integers for an empty tuple)."""
    if isinstance(default, bool):
        return _expect(isinstance(v, bool), v, "true or false", where)
    if isinstance(default, int):
        return _expect(isinstance(v, int) and not isinstance(v, bool), v, "an integer", where)
    if isinstance(default, BitString):
        return _checked(where, BitString.from_hex,
                        _expect(isinstance(v, str), v, "a hex string", where))
    if is_record(default):
        return _decode(type(default), v, where)
    v = _expect(isinstance(v, list), v, "a list", where)
    return tuple(_value(default[0] if default else 0, x, f"{where}[{i}]") for i, x in enumerate(v))


def _decode(cls, obj, where: str, **decoders):
    """Config record cls from the JSON object obj of its fields, each
    decoded by decoders[field] or else by _value against its default."""
    defaults = {f.name: f.default for f in fields(cls)}
    unknown = sorted(set(_expect(isinstance(obj, dict), obj, "an object", where)) - set(defaults))
    if unknown:
        raise ValueError(f"unknown config keys {[_path(where, k) for k in unknown]}")
    kwargs = {k: decoders.get(k, partial(_value, defaults[k]))(v, _path(where, k))
              for k, v in obj.items()}
    return _checked(where, cls, **kwargs)


def _checked(where: str, make: Callable, *args, **kwargs):
    """make(*args, **kwargs), a ValueError from its own checks prefixed
    with the key path of the value it rejected."""
    try:
        return make(*args, **kwargs)
    except ValueError as e:
        raise ValueError(f"config key {where!r}: {e}" if where else f"config: {e}") from None


def _table(decode_value: Callable, obj, where: str) -> dict:
    """A JSON object keyed by decimal integers, its values decoded by decode_value."""
    for k in _expect(isinstance(obj, dict), obj, "an object", where):
        _expect(k.isdecimal(), k, "keyed by decimal integers", where)
    return {int(k): decode_value(v, _path(where, k)) for k, v in obj.items()}


def _mc(obj, where: str) -> McConfig:
    ports = partial(_table, partial(_value, ()))
    return _decode(McConfig, obj, where, groups=partial(_table, partial(_value, (L1Node(),))),
                   lags=ports, l2_exclusion=ports)


def _qac(obj, where: str):
    """null, "minimal", {"kind": "minimal"}, or {"kind": "always_ready"} with
    "ready_ports" "all" (the default) or a list of ports."""
    if obj in (None, "minimal", {"kind": "minimal"}):
        return QacMinimal()
    _expect(isinstance(obj, dict) and obj.get("kind") == "always_ready", obj, "a qac policy", where)
    return _decode(QacAlwaysReady, obj, where, kind=lambda v, w: v,
                   ready_ports=lambda v, w: None if v == "all" else _value((), v, w))


ENGINE_SECTIONS = {"mc": _mc, "pktgen": partial(_decode, PktGenConfig), "qac": _qac}

# app -> (config record, builder, engine sections the app reads): the
# one place that says which engines a config file may set for an app
APPS = {
    "identity": (IdentityConfig, identity_app, ("mc", "pktgen", "qac")),
    "sampler": (SamplerConfig, sampler_app, ("pktgen", "qac")),
    "firewall": (FirewallConfig, firewall_app, ("qac",)),
}


def app_from_config(obj) -> SwitchConfig:
    """Build an app from a config mapping (see the CLI).  Raises ValueError,
    naming the key path, on an unknown app or key or a mistyped value."""
    if not isinstance(obj, dict):
        raise ValueError("config must be a JSON object")
    kind = obj.get("app", "identity")
    _expect(isinstance(kind, str) and kind in APPS, kind, f"one of {sorted(APPS)}", "app")
    cls, build, sections = APPS[kind]
    own = {k: v for k, v in obj.items() if k != "app" and k not in sections}
    engines = {k: ENGINE_SECTIONS[k](obj[k], k) for k in sections if k in obj}
    return replace(build(_decode(cls, own, "")), **engines)
