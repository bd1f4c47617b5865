"""Traffic-manager engines: replication, generation, admission,
scheduling, output.

The multicast expectations below are worked out by hand from the group
walk: level-1 exclusion prunes whole nodes, level-2 prunes single
ports (including lag-resolved ones), and the lag member index is
(level1_exclusion_id + rid + lag_id) mod member_count.
"""

import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from dataplane import switch
from dataplane.packet_format import BitString
from dataplane.pipeline import TmMeta
from dataplane.engines import (
    CHUNK,
    CPU_COPY,
    EgressMeta,
    L1Node,
    McConfig,
    MULTICAST_A,
    MULTICAST_B,
    OracleOutOfRange,
    PktGenConfig,
    PktGenState,
    PolicyViolation,
    QacAlwaysReady,
    QacMinimal,
    Seq,
    UNICAST,
    UnknownGroup,
    UnknownLag,
    input_ports,
    mandatory_mask,
    multicast_engine,
    output_ports,
    packet_generator,
    packet_scheduler,
    pktgen_tick,
    queue_admission,
    replication_engine,
    resolve_lag,
    unicast_engine,
)
from dataplane.pipeline import EgressIndication
from dataplane.switch import Arrival

from support import executed_pktgen_times, ref_pktgen_times


def tm(**kw):
    base = dict(ucast_egress_port=None, copy_to_cpu=0, mcast_grp_a=0,
                mcast_grp_b=0, level1_exclusion_id=0, level2_exclusion_id=0,
                rid=0, drop=0)
    base.update(kw)
    return TmMeta(**base)


MC = McConfig(
    groups={5: (L1Node(dev_port_list=(1, 2), rid=10),
                L1Node(dev_port_list=(3,), lag_list=(7,),
                       l1_xid_valid=True, l1_xid=42, rid=11))},
    lags={7: (20, 21, 22)},
    l2_exclusion={9: frozenset({2, 21})},
)


class TestMulticast:
    def test_group_walk_with_exclusions(self):
        # node1: ports 1,2; port 2 pruned by l2 table 9.
        # node2: port 3 kept; lag 7 resolves to member (0+99+7)%3=1 -> 21,
        # which l2 table 9 also prunes.
        m = tm(mcast_grp_a=5, level2_exclusion_id=9, rid=99)
        assert multicast_engine(MC, m) == [
            EgressMeta(1, 10, MULTICAST_A),
            EgressMeta(3, 11, MULTICAST_A),
        ]

    def test_l1_exclusion_prunes_whole_node(self):
        m = tm(mcast_grp_a=5, level1_exclusion_id=42, level2_exclusion_id=9)
        assert multicast_engine(MC, m) == [
            EgressMeta(1, 10, MULTICAST_A),
        ]

    def test_lag_rotation(self):
        # rid=100 moves the member index to (0+100+7)%3=2 -> port 22
        m = tm(mcast_grp_a=5, level2_exclusion_id=9, rid=100)
        assert EgressMeta(22, 11, MULTICAST_A) in multicast_engine(MC, m)
        assert resolve_lag(MC, 7, m) == 22

    def test_grp_b_tagged_and_walked_after_a(self):
        m = tm(mcast_grp_a=5, mcast_grp_b=5, level2_exclusion_id=9, rid=99)
        got = multicast_engine(MC, m)
        assert got == [
            EgressMeta(1, 10, MULTICAST_A),
            EgressMeta(3, 11, MULTICAST_A),
            EgressMeta(1, 10, MULTICAST_B),
            EgressMeta(3, 11, MULTICAST_B),
        ]

    def test_cpu_copy_appended_last(self):
        m = tm(mcast_grp_a=5, level2_exclusion_id=9, rid=99, copy_to_cpu=1)
        got = multicast_engine(MC, m)
        assert got[-1] == EgressMeta(64, 0, CPU_COPY)

    def test_drop_silences_everything(self):
        m = tm(mcast_grp_a=5, copy_to_cpu=1, ucast_egress_port=4, drop=1)
        assert multicast_engine(MC, m) == []
        assert unicast_engine(m) is None
        assert replication_engine(MC, m) == []

    def test_unknown_group(self):
        with pytest.raises(UnknownGroup):
            multicast_engine(MC, tm(mcast_grp_a=6))

    def test_unknown_lag(self):
        bad = McConfig(groups={1: (L1Node(lag_list=(99,)),)})
        with pytest.raises(UnknownLag):
            multicast_engine(bad, tm(mcast_grp_a=1))

    def test_unicast_comes_last(self):
        m = tm(mcast_grp_a=5, level2_exclusion_id=9, rid=99, ucast_egress_port=30)
        got = replication_engine(MC, m)
        assert got[-1] == EgressMeta(30, 99, UNICAST)
        assert got[:-1] == multicast_engine(MC, m)

    def test_pure_unicast(self):
        assert replication_engine(MC, tm(ucast_egress_port=8, rid=3)) == [
            EgressMeta(8, 3, UNICAST)]

    def test_nothing_requested(self):
        assert replication_engine(MC, tm()) == []


class TestMcConfig:
    def test_empty_lag_rejected(self):
        with pytest.raises(ValueError):
            McConfig(lags={1: ()})

    def test_group_zero_reserved(self):
        with pytest.raises(ValueError):
            McConfig(groups={0: (L1Node(),)})

    def test_port_range_checked(self):
        with pytest.raises(ValueError):
            L1Node(dev_port_list=(512,))


class TestPktGen:
    CFG = PktGenConfig(enabled=True, period=100, batch_count=2,
                       pkts_per_batch=2, inter_batch_gap=3, inter_pkt_gap=1,
                       template=BitString(0xCAFE, 16))

    def test_worked_example(self):
        # batch 0 at 0 and 1; batch 1 starts 3 after the last -> 4 and 5;
        # the next period boundary after 5 is 100
        assert executed_pktgen_times(self.CFG, 200) == [0, 1, 4, 5, 100, 101, 104, 105]

    def test_closed_form_agrees(self):
        assert ref_pktgen_times(self.CFG, 200) == [0, 1, 4, 5, 100, 101, 104, 105]
        for seed in range(60):
            rng = random.Random(seed)
            c = PktGenConfig(enabled=True, period=rng.randrange(2, 64),
                             batch_count=rng.randrange(1, 6),
                             pkts_per_batch=rng.randrange(1, 6),
                             inter_batch_gap=rng.randrange(1, 9),
                             inter_pkt_gap=rng.randrange(1, 7),
                             template=BitString(1, 1))
            assert executed_pktgen_times(c, 700) == ref_pktgen_times(c, 700), c

    def test_disabled_never_fires(self):
        assert executed_pktgen_times(PktGenConfig(enabled=False), 100) == []

    def test_emits_template(self):
        p, s = pktgen_tick(self.CFG, 0, PktGenState())
        assert p == BitString(0xCAFE, 16)

    def test_burst_waits_for_boundary(self):
        # idle at t=1: nothing until t=100
        s = PktGenState()
        for t in range(1, 100):
            p, s = pktgen_tick(self.CFG, t, s)
            assert p is None
        p, _ = pktgen_tick(self.CFG, 100, s)
        assert p is not None

    def test_idle_state_invariant(self):
        with pytest.raises(ValueError):
            PktGenState("idle", 0, 1, 0)

    def test_degenerate_period_warns(self):
        with pytest.warns(UserWarning) as caught:
            PktGenConfig(enabled=True, period=1)
        # the warning names the line that built the config
        assert [w.filename for w in caught] == [__file__]

    def test_recirculation_preempts(self):
        held = BitString(0xAA, 8)
        s = PktGenState()
        p, s2 = packet_generator(self.CFG, 0, s, held)
        # generator state frozen even at a boundary
        assert (p, s2) == (held, s)


class TestInputPorts:
    Q = (Arrival(1, BitString(0xA, 4)), Arrival(2, BitString(0xB, 4)))

    def test_generated_packet_preempts(self):
        gen = BitString(1, 1)
        assert input_ports(gen, self.Q, None) == (self.Q, None, gen)

    def test_empty_queue(self):
        assert input_ports(None, (), None) == ((), None, None)

    def test_fifo_pick(self):
        q2, port, p = input_ports(None, self.Q, 0)
        assert (port, p) == (1, BitString(0xA, 4))
        assert q2 == self.Q[1:]

    def test_out_of_order_pick(self):
        q2, port, p = input_ports(None, self.Q, 1)
        assert (port, p) == (2, BitString(0xB, 4)) and q2 == self.Q[:1]

    def test_oracle_out_of_range(self):
        for idx in (2, -1):
            with pytest.raises(OracleOutOfRange, match=f"input index {idx} for queue of 2"):
                input_ports(None, self.Q, idx)


COPIES = (EgressMeta(1, 0, MULTICAST_A), EgressMeta(2, 0, MULTICAST_A),
          EgressMeta(3, 0, UNICAST))
PKT = BitString(0xF00D, 16)


class TestAdmission:
    NONE_MANDATORY = (False, False, False)

    def test_admit_all(self):
        q = queue_admission(COPIES, PKT, (), self.NONE_MANDATORY, [True, True, True])
        assert q == tuple((m, PKT) for m in COPIES)

    def test_pre_existing_prefix_kept(self):
        old = ((COPIES[0], PKT),)
        q = queue_admission(COPIES, PKT, old, self.NONE_MANDATORY, [True, True, True])
        assert q[:1] == old and len(q) == 4

    def test_minimal_allows_any_drop(self):
        mandatory = mandatory_mask(QacMinimal(), COPIES)
        assert mandatory == self.NONE_MANDATORY
        assert queue_admission(COPIES, PKT, (), mandatory, [False, False, False]) == ()

    def test_always_ready_forbids_drop(self):
        mandatory = mandatory_mask(QacAlwaysReady(), COPIES)
        with pytest.raises(PolicyViolation,
                           match="oracle dropped a copy destined to an always-ready port"):
            queue_admission(COPIES, PKT, (), mandatory, [True, False, True])

    def test_partial_readiness(self):
        pol = QacAlwaysReady(ready_ports=frozenset({1}))
        mandatory = mandatory_mask(pol, COPIES)
        assert mandatory == (True, False, False)
        q = queue_admission(COPIES, PKT, (), mandatory, list(mandatory))
        assert q == ((COPIES[0], PKT),)

    def test_one_copy(self):
        old, one = ((COPIES[0], PKT),), COPIES[2:]
        assert queue_admission(one, PKT, old, (False,), [True]) == old + ((COPIES[2], PKT),)
        assert queue_admission(one, PKT, old, (False,), [False]) == old
        with pytest.raises(PolicyViolation):
            queue_admission(one, PKT, old, (True,), [False])

    def test_bad_mask_length(self):
        for mask in ([True], [True] * 4):
            with pytest.raises(OracleOutOfRange,
                               match=f"admission mask length {len(mask)} for 3 copies"):
                queue_admission(COPIES, PKT, (), self.NONE_MANDATORY, mask)


class TestSchedulerAndOutput:
    def test_empty_queue_not_enabled(self):
        # egress is not enabled on an empty queue, so no index is in range
        assert not switch.egress_enabled(switch.SwitchQueues())
        with pytest.raises(OracleOutOfRange, match="sched index 0 for queue of 0"):
            packet_scheduler((), 0)

    def test_fifo_removal(self):
        q = tuple((m, PKT) for m in COPIES)
        q2, elem = packet_scheduler(q, 0)
        assert elem == q[0] and q2 == q[1:]

    def test_arbitrary_removal(self):
        q = tuple((m, PKT) for m in COPIES)
        q2, elem = packet_scheduler(q, 2)
        assert elem == q[-1] and q2 == q[:-1]

    def test_sched_out_of_range(self):
        for idx in (1, -1):
            with pytest.raises(OracleOutOfRange, match=f"sched index {idx} for queue of 1"):
                packet_scheduler((("m", PKT),), idx)

    def test_transmit(self):
        q, reg = output_ports((), EgressIndication(), 5, PKT)
        assert q == ((5, PKT),) and reg is None

    def test_recirculate(self):
        q, reg = output_ports((("old",),), EgressIndication(recirculate=1), 5, PKT)
        assert q == (("old",),) and reg == PKT


# ---------------------------------------------------------------------------
# every value the program hands an engine drives it: per field, a config
# and two settings of the field alone that the engine must tell apart

LIVE_TM_FIELDS = {
    "ucast_egress_port": (McConfig(), {}, 1, 2),
    "copy_to_cpu": (McConfig(), {}, 0, 1),
    "mcast_grp_a": (MC, {}, 0, 5),
    "mcast_grp_b": (MC, {}, 0, 5),
    "level1_exclusion_id": (MC, {"mcast_grp_a": 5}, 0, 42),
    "level2_exclusion_id": (MC, {"mcast_grp_a": 5}, 0, 9),
    "rid": (McConfig(), {"ucast_egress_port": 1}, 0, 1),
    "drop": (McConfig(), {"ucast_egress_port": 1}, 0, 1),
}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(TmMeta)])
def test_every_tm_field_drives_replication(field):
    mc, base, a, b = LIVE_TM_FIELDS[field]
    assert (replication_engine(mc, tm(**base, **{field: a}))
            != replication_engine(mc, tm(**base, **{field: b})))


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(EgressIndication)])
def test_every_indication_field_drives_output_ports(field):
    assert (output_ports((), EgressIndication(**{field: 0}), 5, PKT)
            != output_ports((), EgressIndication(**{field: 1}), 5, PKT))


# ---------------------------------------------------------------------------
# the persistent queue, against a plain tuple


ITEMS = st.lists(st.integers(0, 9), max_size=3 * CHUNK)


@st.composite
def seqs(draw):
    """(a Seq, its items as a tuple), the Seq chunked by a drawn history
    of appends and pops, so equal items can sit in different chunks."""
    model = draw(ITEMS)
    s = Seq(model)
    for add, xs, r in draw(st.lists(st.tuples(st.booleans(), ITEMS, st.integers(0, 999)),
                                    max_size=6)):
        if add or not model:
            xs = xs[:3 * CHUNK - len(model)]
            s, model = s + tuple(xs), model + xs
        else:
            s, _ = s.pop(r % len(model))
            del model[r % len(model)]
    return s, tuple(model)


def well_formed(s: Seq) -> bool:
    return (all(0 < len(c) <= CHUNK for c in s.chunks)
            and sum(map(len, s.chunks)) == len(s))


def new_chunks(before: Seq, after: Seq) -> int:
    """How many chunks of after are not, by identity, chunks of before."""
    old = {id(c) for c in before.chunks}
    return sum(id(c) not in old for c in after.chunks)


class TestSeq:
    @given(seqs())
    def test_pop_at_every_index(self, sm):
        s, t = sm
        for i in range(-len(t), len(t)):
            rest, x = s.pop(i)
            j = i % len(t)
            assert x == t[j] and rest == t[:j] + t[j + 1:]
            assert well_formed(rest) and new_chunks(s, rest) <= 1
        for i in (len(t), -len(t) - 1):
            with pytest.raises(IndexError):
                s.pop(i)

    @given(seqs(), seqs())
    def test_add_across_chunk_boundaries(self, sm, other):
        s, t = sm
        o, u = other
        for got in (s + u, s + o, u + s, o + s):
            assert well_formed(got) and len(got) == len(t) + len(u)
        assert s + u == s + o == t + u and u + s == o + s == u + t
        one = s + (7,)
        assert one == t + (7,) and new_chunks(s, one) <= 1
        assert len(one.chunks) - len(s.chunks) == (not t or len(s.chunks[-1]) == CHUNK)

    @given(seqs(), seqs())
    def test_equality_and_hash(self, sm, other):
        s, t = sm
        o, u = other
        again = Seq(t)  # same items, fresh chunking
        assert s == t and t == s and s == again and not s != again
        assert hash(s) == hash(t) == hash(again)
        assert (s == o) == (t == u) and (s != o) == (t != u) and (s == u) == (t == u)
        assert s != list(t)
        if t:
            changed = t[:-1] + (t[-1] + 1,)
            assert s != changed and s != Seq(changed) and s != t[:-1]

    @given(seqs(), st.integers(-4 * CHUNK, 4 * CHUNK), st.integers(-4 * CHUNK, 4 * CHUNK),
           st.sampled_from([None, 1, 2, 5, -1, -3]))
    def test_reads(self, sm, a, b, step):
        s, t = sm
        assert len(s) == len(t) and tuple(s) == t and list(iter(s)) == list(t)
        assert bool(s) == bool(t)
        assert [s[i] for i in range(-len(t), len(t))] == list(t + t)
        for i in (len(t), -len(t) - 1):
            with pytest.raises(IndexError):
                s[i]
        assert s[a:b:step] == t[a:b:step]

    @given(seqs())
    def test_digest_of_a_seq_is_the_digest_of_its_tuple(self, sm):
        s, t = sm
        assert switch.digest(s) == switch.digest(t)
        assert switch._canon(s) == switch._canon(t)

    def test_of_converts_once(self):
        s = Seq.of((1, 2))
        assert type(s) is Seq and Seq.of(s) is s
