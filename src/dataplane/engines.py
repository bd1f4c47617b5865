"""Configurable traffic manager engines.

Each function here is one block between the two pipelines: packet
generation, input ports, replication, queue admission, scheduling,
and output ports.  The mirror table is always empty, so no mirroring
engine is modelled.  The engines are pure: queues and states come in
as values and updated copies go out.  Where the underlying hardware
behavior is nondeterministic (which queued element to take, which
copies to admit) the caller asks its oracle and passes the answer in,
so each engine is a deterministic function of its inputs and the
answer, and rejects an answer out of range or against the admission
policy.

Replication is one walk, replication_engine, over McConfig's group,
LAG and exclusion tables; nothing else reads them.  Purity is also what
lets a caller table it.  For one config, replication_engine and
mandatory_mask are functions of the TmMeta alone, and an app declares
each TmMeta its control can emit, so a run and an axioms fold each
build a replication_table as they start, which dies with them: an
engine replaced after a run has started is seen by every run that
starts after it.

q_input and q_output are each a Seq, whose snapshots share its chunk
tuple: a FIFO pop moves an offset and an append copies a short tail,
and each copies the chunk tuple only once per CHUNK calls.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Optional, Sequence

from .packet_format import BitString
from .pipeline import EgressIndication, TmMeta
from .records import record


# ---------------------------------------------------------------------------
# persistent queues

CHUNK = 32  # most items a chunk of a Seq holds


class Seq:
    """An immutable sequence: a tuple of chunks, the first read from
    offset lo, then a tail of fewer than CHUNK items.  A chunk holds
    CHUNK items until a pop at i > 0 cuts it.  pop(0) shares the chunk
    tuple and the tail and moves lo, and slices the chunk tuple once per
    chunk; `+ items` copies the tail, and the chunk tuple once the tail
    fills a chunk; any other pop copies the tail, or one chunk and the
    chunk tuple.  A Seq equals, and hashes like, any tuple or Seq of the
    same items."""

    __slots__ = ("chunks", "lo", "tail", "_len")

    def __init__(self, items=()) -> None:
        items = tuple(items)
        full = len(items) - len(items) % CHUNK
        self.chunks = tuple(items[i:i + CHUNK] for i in range(0, full, CHUNK))
        self.lo, self.tail, self._len = 0, items[full:], len(items)

    @staticmethod
    def of(q) -> "Seq":
        """q as a Seq: q itself when it is one."""
        return q if type(q) is Seq else Seq(q)

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        return chain(islice(chain.from_iterable(self.chunks), self.lo, None), self.tail)

    def __getitem__(self, i: int):
        _, c, j = self._locate(i)
        return c[j]

    def _locate(self, i: int) -> tuple[int, tuple, int]:
        """(k, piece k, offset in it) of item i, walking from the nearer
        end; the pieces are the chunks, then the tail."""
        n, chunks, tail = self._len, self.chunks, self.tail
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("Seq index out of range")
        n -= len(tail)  # the items in the chunks
        if i >= n:
            return len(chunks), tail, i - n
        i += self.lo
        if 2 * i < n:
            for k, c in enumerate(chunks):
                if i < len(c):
                    return k, c, i
                i -= len(c)
        i -= n + self.lo  # now counted back from the end of the chunks
        for k in range(len(chunks) - 1, -1, -1):
            i += len(chunks[k])
            if i >= 0:
                return k, chunks[k], i

    # a run pops or appends once a step, so both build their result inline
    def pop(self, i: int) -> tuple["Seq", object]:
        """(this sequence without item i, item i)."""
        chunks, lo, tail = self.chunks, self.lo, self.tail
        s = _new(Seq)
        s._len = self._len - 1
        if chunks and 0 <= i < len(chunks[0]) - lo:  # in the first chunk: no walk
            k, c, j = 0, chunks[0], lo + i
            if i == 0:  # FIFO order
                s.chunks, s.lo = (chunks, j + 1) if j + 1 < len(c) else (chunks[1:], 0)
                s.tail = tail
                return s, c[j]
        else:
            k, c, j = self._locate(i)
        if k == len(chunks):
            s.chunks, s.lo, s.tail = chunks, lo, c[:j] + c[j + 1:]
        else:
            a = 0 if k else lo  # where the live part of chunk k starts
            s.chunks = chunks[:k] + ((c[a:j] + c[j + 1:],) if len(c) - a > 1 else ()) + chunks[k + 1:]
            s.lo, s.tail = lo - a, tail
        return s, c[j]

    def __add__(self, items) -> "Seq":
        s = _new(Seq)
        s.chunks, s.lo, s._len = self.chunks, self.lo, self._len + len(items)
        s.tail = self.tail + tuple(items)
        if len(s.tail) >= CHUNK:  # the tail fills chunks
            t = Seq(s.tail)
            s.chunks, s.tail = s.chunks + t.chunks, t.tail
        return s

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is Seq:
            # with equal chunk tuples and lo, only the tails can differ
            if self.lo == other.lo and (self.chunks is other.chunks or self.chunks == other.chunks):
                return self.tail == other.tail
            return self._len == other._len and tuple(self) == tuple(other)
        if isinstance(other, tuple):
            return self._len == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return f"Seq({tuple(self)!r})"


_new = object.__new__


class EngineError(Exception):
    pass


class UnknownGroup(EngineError):
    pass


class UnknownLag(EngineError):
    pass


class OracleOutOfRange(EngineError):
    pass


class PolicyViolation(EngineError):
    pass


class UndeclaredAction(EngineError):
    """The control emitted a TmMeta its app does not declare."""


# ---------------------------------------------------------------------------
# replication: multicast tree walk + unicast

UNICAST = "unicast"
MULTICAST_A = "multicast_a"
MULTICAST_B = "multicast_b"
CPU_COPY = "cpu_copy"


@record
class L1Node:
    dev_port_list: tuple[int, ...] = ()
    lag_list: tuple[int, ...] = ()
    l1_xid_valid: bool = False
    l1_xid: int = 0
    rid: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "dev_port_list", tuple(self.dev_port_list))
        object.__setattr__(self, "lag_list", tuple(self.lag_list))
        for p in self.dev_port_list:
            _check_port(p)
        if not 0 <= self.l1_xid < (1 << 16):
            raise ValueError(f"l1_xid out of 16-bit range: {self.l1_xid}")
        if not 0 <= self.rid < (1 << 16):
            raise ValueError(f"rid out of 16-bit range: {self.rid}")


def _check_port(p: int) -> None:
    if not 0 <= p < 512:
        raise ValueError(f"port out of 9-bit range: {p}")


@record
class McConfig:
    groups: tuple[tuple[int, tuple[L1Node, ...]], ...] = ()
    lags: tuple[tuple[int, tuple[int, ...]], ...] = ()
    l2_exclusion: tuple[tuple[int, frozenset[int]], ...] = ()
    cpu_port: int = 64

    def __init__(self, groups=None, lags=None, l2_exclusion=None, cpu_port: int = 64):
        groups = dict(groups or {})
        lags = dict(lags or {})
        l2 = dict(l2_exclusion or {})
        for gid in groups:
            if not 0 < gid < (1 << 16):
                raise ValueError(f"group id out of range: {gid}")
        for lag_id, members in lags.items():
            if not members:
                raise ValueError(f"lag {lag_id} has no members")
            for p in members:
                _check_port(p)
        for ports in l2.values():
            for p in ports:
                _check_port(p)
        _check_port(cpu_port)
        object.__setattr__(self, "groups",
                           tuple(sorted((g, tuple(ns)) for g, ns in groups.items())))
        object.__setattr__(self, "lags",
                           tuple(sorted((l, tuple(ms)) for l, ms in lags.items())))
        object.__setattr__(self, "l2_exclusion",
                           tuple(sorted((x, frozenset(ps)) for x, ps in l2.items())))
        object.__setattr__(self, "cpu_port", cpu_port)


@record
class EgressMeta:
    egress_port: int
    rid: int
    source: str  # UNICAST, MULTICAST_A, MULTICAST_B or CPU_COPY

    def __post_init__(self) -> None:
        _check_port(self.egress_port)
        if self.source not in (UNICAST, MULTICAST_A, MULTICAST_B, CPU_COPY):
            raise ValueError(f"bad copy source: {self.source!r}")


def replication_engine(c: McConfig, m: TmMeta) -> list[EgressMeta]:
    """The copies of one packet: multicast first, the unicast copy last.

    The two-level group tree is walked for group A, then group B; the
    CPU copy follows them.  A level-1 node is pruned when its exclusion
    id matches the packet's; otherwise it gives its ports, then one
    member of each of its LAGs, picked deterministically:
    index = (level1_exclusion_id + rid + lag_id) mod member count.
    Level 2 prunes single ports, LAG-picked ones included, via the
    exclusion table.  A drop-marked packet produces no copies at all.
    """
    if m.drop:
        return []
    out: list[EgressMeta] = []
    groups, lags = dict(c.groups), dict(c.lags)
    excluded = dict(c.l2_exclusion).get(m.level2_exclusion_id, frozenset())
    for gid, source in ((m.mcast_grp_a, MULTICAST_A), (m.mcast_grp_b, MULTICAST_B)):
        if gid == 0:
            continue
        if gid not in groups:
            raise UnknownGroup(f"multicast group {gid} not configured")
        for node in groups[gid]:
            if node.l1_xid_valid and node.l1_xid == m.level1_exclusion_id:
                continue
            ports = list(node.dev_port_list)
            for lag_id in node.lag_list:
                if lag_id not in lags:
                    raise UnknownLag(f"lag {lag_id} not configured")
                members = lags[lag_id]
                ports.append(members[(m.level1_exclusion_id + m.rid + lag_id) % len(members)])
            out += [EgressMeta(p, node.rid, source) for p in ports if p not in excluded]
    if m.copy_to_cpu:
        out.append(EgressMeta(c.cpu_port, 0, CPU_COPY))
    if m.ucast_egress_port is not None:
        out.append(EgressMeta(m.ucast_egress_port, m.rid, UNICAST))
    return out


# ---------------------------------------------------------------------------
# packet generation and recirculation intake

IDLE = "idle"
EMITTING = "emitting"


@record
class PktGenConfig:
    enabled: bool = False
    period: int = 1000
    batch_count: int = 1
    pkts_per_batch: int = 1
    inter_batch_gap: int = 1
    inter_pkt_gap: int = 1
    template: BitString = BitString()
    source_port: int = 68

    def __post_init__(self) -> None:
        _check_port(self.source_port)
        for name in ("period", "batch_count", "pkts_per_batch",
                     "inter_batch_gap", "inter_pkt_gap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


@record
class PktGenState:
    phase: str = IDLE
    next_fire: int = 0
    batch_idx: int = 0
    pkt_idx: int = 0

    def __post_init__(self) -> None:
        if self.phase not in (IDLE, EMITTING):
            raise ValueError(f"bad pktgen phase: {self.phase!r}")
        if self.phase == IDLE and (self.batch_idx or self.pkt_idx):
            raise ValueError("idle state must have zero batch/pkt indices")


def _after_emit(c: PktGenConfig, t: int, batch_idx: int, pkt_idx: int) -> PktGenState:
    # pkt_idx counts packets already emitted in the current batch
    if pkt_idx < c.pkts_per_batch:
        return PktGenState(EMITTING, t + c.inter_pkt_gap, batch_idx, pkt_idx)
    if batch_idx + 1 < c.batch_count:
        return PktGenState(EMITTING, t + c.inter_batch_gap, batch_idx + 1, 0)
    return PktGenState(IDLE)


def packet_generator(c: PktGenConfig, t: int, s: PktGenState,
                     p_recirc: Optional[BitString]
                     ) -> tuple[Optional[BitString], PktGenState]:
    """One tick of packet generation.  A recirculated packet preempts the
    generator and leaves its state alone; either way the register is
    empty after the tick.  Otherwise the generator starts a burst
    whenever it is idle at a period boundary; within a batch, packets
    are inter_pkt_gap apart, and the next batch starts inter_batch_gap
    after the last packet of the previous one."""
    if p_recirc is not None:
        return p_recirc, s
    if not c.enabled:
        return None, s
    if s.phase == IDLE:
        if t % c.period == 0:
            return c.template, _after_emit(c, t, 0, 1)
        return None, s
    if t == s.next_fire:
        return c.template, _after_emit(c, t, s.batch_idx, s.pkt_idx + 1)
    return None, s


# ---------------------------------------------------------------------------
# input ports


def input_ports(p_g: Optional[BitString], q_input: "tuple | Seq", idx: Optional[int]
                ) -> tuple["tuple | Seq", Optional[int], Optional[BitString]]:
    """Hand one packet to the ingress pipeline.

    A generated/recirculated packet takes precedence and leaves the
    queue alone; idx is then None, as it is for an empty queue, since
    neither asks which arrival to take.  Otherwise idx picks any queued
    arrival, not necessarily the oldest.  Returns (q', arrival port,
    packet).
    """
    if idx is None:
        return q_input, None, p_g
    n = len(q_input)
    if not 0 <= idx < n:
        raise OracleOutOfRange(f"input index {idx} for queue of {n}")
    rest, rec = Seq.of(q_input).pop(idx)
    return rest, rec.port, rec.packet


# ---------------------------------------------------------------------------
# queue admission control


@record
class QacMinimal:
    """Admission may drop any subset; queued packets are never lost."""

    kind: str = "minimal"


@record
class QacAlwaysReady:
    """Copies destined to ready ports must be admitted.
    ready_ports=None means every port is ready."""

    ready_ports: Optional[frozenset[int]] = None
    kind: str = "always_ready"

    def __post_init__(self) -> None:
        if self.ready_ports is not None:
            object.__setattr__(self, "ready_ports", frozenset(self.ready_ports))
            for p in self.ready_ports:
                _check_port(p)


def mandatory_mask(policy, ms: Sequence[EgressMeta]) -> tuple[bool, ...]:
    """Which copies the policy forbids dropping: under QacAlwaysReady,
    those destined to a ready port."""
    if isinstance(policy, QacAlwaysReady):
        ready = policy.ready_ports
        return tuple(ready is None or m.egress_port in ready for m in ms)
    return (False,) * len(ms)


def replication_table(c: McConfig, policy, actions: Sequence[TmMeta]) -> dict:
    """Each action -> (copies, mandatory mask), or the EngineError its
    replication walk raised, which a step emitting the action raises."""
    table: dict = {}
    for m in actions:
        try:
            copies = tuple(replication_engine(c, m))
            table[m] = (copies, mandatory_mask(policy, copies))
        except EngineError as e:
            table[m] = e
    return table


def queue_admission(ms: Sequence[EgressMeta], p: BitString, q_egress: tuple,
                    mandatory: Sequence[bool], mask: Sequence[bool]) -> tuple:
    """Append the copies the admission mask keeps; mandatory is the
    policy's mandatory_mask of ms.

    The pre-existing queue is always a prefix of the result.  A mask that
    drops a mandatory copy, one destined to an always-ready port, is a
    contract violation.
    """
    if len(mask) != len(ms):
        raise OracleOutOfRange(f"admission mask length {len(mask)} for {len(ms)} copies")
    if True in mandatory:
        for keep, must in zip(mask, mandatory):
            if must and not keep:
                raise PolicyViolation("oracle dropped a copy destined to an always-ready port")
    if len(ms) == 1:  # one copy: no generator
        return q_egress + ((ms[0], p),) if mask[0] else q_egress
    return q_egress + tuple((m, p) for m, keep in zip(ms, mask) if keep)


# ---------------------------------------------------------------------------
# packet scheduler and output ports


def packet_scheduler(q_egress: tuple, idx: int) -> tuple[tuple, tuple]:
    """Pull element idx out of the egress bag: (the rest, the element)."""
    if not 0 <= idx < len(q_egress):
        raise OracleOutOfRange(f"sched index {idx} for queue of {len(q_egress)}")
    return q_egress[:idx] + q_egress[idx + 1:], q_egress[idx]


def output_ports(q_output: "tuple | Seq", ind: EgressIndication, port: int,
                 p_e: BitString) -> tuple["tuple | Seq", Optional[BitString]]:
    """Transmit or recirculate one egress result."""
    if ind.recirculate:
        return q_output, p_e
    return Seq.of(q_output) + ((port, p_e),), None
