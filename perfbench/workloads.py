"""Workload definitions and seeded input generators.

Packets are assembled here with ``struct`` from the documented wire
layout, not with the package's own header builders, so the inputs (and
the expectations in ``model.py``) do not move when the program does.

Standard layout, all big-endian:

  intrinsic meta  8 bytes  (ingress port:16, reserved:48)
  port meta       8 bytes  (opaque)
  ethernet       14 bytes  (dst:48, src:48, ethertype:16)
  ipv4           20 bytes  (protocol at byte 9, src at 12, dst at 16)
  tcp 20 bytes | udp 8 bytes | nothing
  payload
"""

from __future__ import annotations

import json
import os
import random
import struct
from collections import deque

FIXED_LEN = 50  # meta + port meta + ethernet + ipv4
TCP, UDP = 6, 17
L4_LEN = {TCP: 20, UDP: 8}
ETHERTYPE_IPV4 = 0x0800

# name -> app config, packets at full size, and generator/oracle knobs
WORKLOADS = {
    "sampler-cli": {
        "config": {"app": "sampler", "forward_port": 1, "monitor_port": 3,
                   "sample_every": 4},
        "packets": 160,
        "malformed": 0.05,
    },
    "identity-random": {
        "config": {"app": "identity", "forward_port": 2},
        "packets": 800,
        "malformed": 0.02,
        "drop_rate": 0.3,
    },
    "firewall-flows": {
        "config": {"app": "firewall", "inside_port": 1, "outside_port": 2,
                   "window": 64, "keepalive_period": 16},
        "packets": 1200,
    },
}

# firewall filter parameters left at the app's defaults
FIREWALL_DEFAULTS = {"bits": 512, "hash_count": 3, "hash_seed": 0x5EED}

# step limit handed to the program; every workload drains long before
STEP_BUDGET = 1_000_000


def cli_argv(phase: str, workdir: str, input_name: str) -> list[str]:
    """Arguments of `dataplane sim` or `dataplane check` for the
    sampler-cli workload, whose files live in workdir."""
    config = os.path.join(workdir, "config.json")
    trace = os.path.join(workdir, "trace.jsonl")
    if phase == "sim":
        return ["sim", "--config", config, "--input", os.path.join(workdir, input_name),
                "--policy", "fifo-drain", "--drain", "--steps", str(STEP_BUDGET),
                "--trace", trace]
    return ["check", trace, "--config", config, "--spec", "sampler"]


def packet(rng: random.Random, port: int, proto: int, src: int, dst: int,
           sport: int, dport: int) -> bytes:
    payload = rng.randbytes(rng.randrange(0, 33))
    if proto == TCP:
        l4 = struct.pack(">HHIIHHHH", sport, dport, rng.getrandbits(32), 0,
                         0x5000, 0xFFFF, 0, 0)
    else:
        l4 = struct.pack(">HHHH", sport, dport, 8 + len(payload), 0)
    ipv4 = struct.pack(">BBHHHBBHII", 0x45, 0, 20 + len(l4) + len(payload),
                       rng.getrandbits(16), 0, 64, proto, 0, src, dst)
    ethernet = rng.randbytes(12) + struct.pack(">H", ETHERTYPE_IPV4)
    meta = struct.pack(">H6x", port)  # ingress port < 512: never a sample marker
    return meta + rng.randbytes(8) + ethernet + ipv4 + l4 + payload


def mixed_packets(rng: random.Random, n: int, ports: tuple[int, ...],
                  malformed: float) -> list[tuple[int, bytes]]:
    """Random TCP/UDP packets; a `malformed` share is cut short inside
    its headers so that no parser can accept it."""
    out = []
    for _ in range(n):
        port = rng.choice(ports)
        proto = rng.choice((TCP, UDP))
        p = packet(rng, port, proto, rng.getrandbits(32), rng.getrandbits(32),
                   rng.getrandbits(16), rng.getrandbits(16))
        if rng.random() < malformed:
            p = p[:rng.randrange(1, FIXED_LEN + L4_LEN[proto])]
        out.append((port, p))
    return out


def firewall_flows(rng: random.Random, n: int, inside: int, outside: int,
                   window: int) -> list[tuple[int, bytes]]:
    """Request/reply traffic: outbound packets open or refresh flows on
    the inside port; most inbound packets reply to a flow refreshed
    less than half a window ago; the rest belong to unknown flows or
    to flows idle for more than four windows.

    A flow is (inside addr, outside addr, inside port, outside port,
    protocol).  Positions stand in for ticks: the generator only adds
    ticks between arrivals, so a reply within window/2 positions is
    within the window.
    """
    def new_flow():
        return (rng.getrandbits(32), rng.getrandbits(32), rng.getrandbits(16),
                rng.getrandbits(16), rng.choice((TCP, UDP)))

    last_out: dict[tuple, int] = {}
    live: deque = deque()   # (flow, position of its last outbound packet)
    aging: deque = deque()  # left live, may turn stale
    stale: list = []
    out = []
    for pos in range(n):
        while live and pos - live[0][1] > window // 2:
            aging.append(live.popleft())
        while aging and pos - aging[0][1] > 4 * window:
            flow, at = aging.popleft()
            if last_out[flow] == at:
                stale.append(flow)
        r = rng.random()
        if r < 0.4 or not live:
            if live and rng.random() < 0.3:
                flow = rng.choice(live)[0]
            else:
                flow = new_flow()
            last_out[flow] = pos
            live.append((flow, pos))
            a_in, a_out, p_in, p_out, proto = flow
            out.append((inside, packet(rng, inside, proto, a_in, a_out, p_in, p_out)))
            continue
        if r < 0.85:
            flow = rng.choice(live)[0]
        elif r < 0.95 or not stale:
            flow = new_flow()
        else:
            flow = rng.choice(stale)
        a_in, a_out, p_in, p_out, proto = flow
        out.append((outside, packet(rng, outside, proto, a_out, a_in, p_out, p_in)))
    return out


def generate(name: str, seed: int, packets: int) -> list[tuple[int, bytes]]:
    """The inputs of one run: the same (name, seed, packets) always
    gives the same arrivals."""
    w = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{packets}")
    if name == "firewall-flows":
        c = w["config"]
        return firewall_flows(rng, packets, c["inside_port"], c["outside_port"],
                              c["window"])
    return mixed_packets(rng, packets, (1, 2), w["malformed"])


def write_jsonl(inputs: list[tuple[int, bytes]], path: str) -> None:
    """The `dataplane gen` file format: one {"packet", "port"} per line."""
    with open(path, "w") as fh:
        for port, p in inputs:
            fh.write(json.dumps({"packet": p.hex(), "port": port}, sort_keys=True) + "\n")
