"""Reference models: what each workload must produce, from its inputs.

Each model is written from the documented behaviour of the app, the
traffic manager and the oracle policy the workload uses, not by calling
the package, and predicts the run's step count, its outputs in order
and the exit codes and verdict lines of the CLI.  ``fingerprint`` is
the benchmark's own digest of an output sequence; the program's outputs
are reduced the same way and must agree.
"""

from __future__ import annotations

import hashlib
import random
import struct
from collections import deque
from typing import Optional

from workloads import FIREWALL_DEFAULTS, FIXED_LEN, L4_LEN, STEP_BUDGET, WORKLOADS

SAMPLE_MARKER = 0x9999
MASK64 = (1 << 64) - 1


def parse(p: bytes) -> Optional[dict]:
    """Addressing fields of a standard-layout packet, or None when it is
    shorter than the headers its protocol promises."""
    if len(p) < FIXED_LEN:
        return None
    proto = p[39]
    end = FIXED_LEN + L4_LEN.get(proto, 0)
    if len(p) < end:
        return None
    src, dst = struct.unpack_from(">II", p, 42)
    sport, dport = struct.unpack_from(">HH", p, FIXED_LEN) if proto in L4_LEN else (0, 0)
    return {"proto": proto, "src": src, "dst": dst, "sport": sport,
            "dport": dport, "payload": p[end:]}


def fingerprint(outputs) -> str:
    """Digest of (port, bit length, hex) per output, in order."""
    h = hashlib.sha256()
    for port, nbits, hexstr in outputs:
        h.update(f"{port}:{nbits}:{hexstr}\n".encode())
    return h.hexdigest()[:16]


def _stats(steps: int, outputs: list[tuple[int, bytes]]) -> dict:
    return {"steps": steps, "outputs": len(outputs),
            "fingerprint": fingerprint((port, 8 * len(b), b.hex()) for port, b in outputs)}


def sampler(inputs, cfg: dict) -> dict:
    """FIFO drain: each arrival takes one ingress step and each copy one
    egress step.  Every parsed packet leaves unchanged on the forward
    port; every sample_every-th parsed packet is followed by a sample
    record (marker, addresses, ports, count) plus its payload on the
    monitor port."""
    count, outputs = 0, []
    for _port, p in inputs:
        h = parse(p)
        if h is None:
            continue
        count += 1
        outputs.append((cfg["forward_port"], p))
        if count % cfg["sample_every"] == 0:
            rec = struct.pack(">HIIHHI", SAMPLE_MARKER, h["src"], h["dst"],
                              h["sport"], h["dport"], count)
            outputs.append((cfg["monitor_port"], rec + h["payload"]))
    return _stats(len(inputs) + len(outputs), outputs)


def identity_random(inputs, cfg: dict, seed: int, drop_rate: float,
                    max_steps: int) -> dict:
    """The seeded random oracle, call for call: per step one draw for
    the step kind (egress below 0.5, taken only if the egress queue is
    non-empty), then an index draw into the queue the step takes from,
    and one admission draw per parsed arrival (dropped below drop_rate).
    Stops once both queues are empty."""
    rng = random.Random(seed)
    q_in, q_eg, outputs, steps = list(inputs), [], [], 0
    while steps < max_steps and (q_in or q_eg):
        steps += 1
        if rng.random() < 0.5 and q_eg:
            outputs.append((cfg["forward_port"], q_eg.pop(rng.randrange(len(q_eg)))))
        elif q_in:
            _port, p = q_in.pop(rng.randrange(len(q_in)))
            if parse(p) is not None and rng.random() >= drop_rate:
                q_eg.append(p)
    return _stats(steps, outputs)


class _PaneFilter:
    """The firewall's two Bloom panes aged against the clock: inserts set
    bits in both, lookups read their union, and the inactive pane is
    wiped at a pace that covers it once per window, then the panes
    swap."""

    def __init__(self, window: int, bits: int, hash_count: int, hash_seed: int):
        rng = random.Random(hash_seed)
        self.params = [(rng.getrandbits(64) | 1, rng.getrandbits(64))
                       for _ in range(hash_count)]
        self.window, self.bits = window, bits
        self.panes = [0, 0]
        self.active, self.rotated_at, self.cursor = 0, 0, 0

    def positions(self, key: int) -> list[int]:
        out = []
        for a, b in self.params:
            h = (a * key + b) & MASK64  # then the splitmix64 finaliser
            h ^= h >> 30
            h = (h * 0xBF58476D1CE4E5B9) & MASK64
            h ^= h >> 27
            h = (h * 0x94D049BB133111EB) & MASK64
            h ^= h >> 31
            out.append(h % self.bits)
        return out

    def _wipe_inactive(self, upto: int) -> None:
        self.panes[1 - self.active] &= ~((1 << upto) - (1 << self.cursor))
        self.cursor = upto

    def maintain(self, t: int) -> None:
        if t - self.rotated_at >= self.window:
            self._wipe_inactive(self.bits)
            self.active, self.rotated_at, self.cursor = 1 - self.active, t, 0
        target = min(self.bits, self.bits * (t - self.rotated_at) // self.window)
        if target > self.cursor:
            self._wipe_inactive(target)

    def insert(self, key: int) -> None:
        for pos in self.positions(key):
            self.panes[0] |= 1 << pos
            self.panes[1] |= 1 << pos

    def remembered(self, key: int) -> bool:
        union = self.panes[0] | self.panes[1]
        return all(union >> pos & 1 for pos in self.positions(key))


def _flow_key(h: dict, inbound: bool) -> int:
    src, dst, sp, dp = h["src"], h["dst"], h["sport"], h["dport"]
    if not inbound:
        src, dst, sp, dp = dst, src, dp, sp
    return (src << 80) | (dst << 48) | (sp << 32) | (dp << 16) | h["proto"]


def firewall(inputs, cfg: dict) -> dict:
    """FIFO drain with the keepalive generator: at every tick that is a
    multiple of the period the generator's keepalive takes the ingress
    slot (aging the filter, no output); otherwise the next arrival is
    taken.  Inside traffic is recorded and sent out; outside traffic is
    sent in only if the filter remembers its flow."""
    fw = _PaneFilter(cfg["window"], FIREWALL_DEFAULTS["bits"],
                     FIREWALL_DEFAULTS["hash_count"], FIREWALL_DEFAULTS["hash_seed"])
    q, outputs, t = deque(inputs), [], 0
    while q:
        if t % cfg["keepalive_period"]:
            port, p = q.popleft()
            h = parse(p)
            if h is not None:
                fw.maintain(t)
                if port == cfg["outside_port"]:
                    if h["proto"] in L4_LEN and fw.remembered(_flow_key(h, True)):
                        outputs.append((cfg["inside_port"], p))
                else:
                    if h["proto"] in L4_LEN:
                        fw.insert(_flow_key(h, False))
                    outputs.append((cfg["outside_port"], p))
        else:
            fw.maintain(t)
        t += 1
    return _stats(t + len(outputs), outputs)


def expected(name: str, seed: int, inputs) -> dict:
    """Steps, outputs and fingerprint; for the CLI workload also the
    exact stdout and exit code of `sim` and `check`."""
    w = WORKLOADS[name]
    cfg = w["config"]
    if name == "sampler-cli":
        e = sampler(inputs, cfg)
        e["sim"] = (0, f"steps={e['steps']} outputs={e['outputs']} "
                       f"t={len(inputs)} fault=none")
        e["check"] = (0, f"replay: ok ({e['steps']} steps)\naxioms: ok\nsampler: ok")
        return e
    if name == "identity-random":
        return identity_random(inputs, cfg, seed, w["drop_rate"], STEP_BUDGET)
    return firewall(inputs, cfg)
