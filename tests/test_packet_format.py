"""Codec and format-language semantics.

Expected wire images are written out by hand from the field tables, and
the production matcher is cross-checked against the brute-force
all-splits matcher in tests/support.py.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from dataplane.packet_format import (
    BitString,
    Branch,
    Concat,
    Empty,
    Environment,
    ExactPlain,
    ExactValue,
    ExtractStatus,
    HeaderType,
    IllFormedFormat,
    TypedValue,
    UnresolvedCondition,
    check_well_formed,
    compile_format,
    encode,
    extract,
    match_report,
    seq,
)
from dataplane.headers import (
    ETHERNET, INTRINSIC_META, IPV4, PORT_META, SAMPLE_HEADER, SAMPLED_FORMAT,
    STANDARD_FORMAT, TCP, UDP,
)

from support import (
    interpreted, mangle, rand_packet, rand_typed, random_format, ref_matches,
    sample_matching_input, with_fields,
)


STOCK_HEADERS = [ETHERNET, IPV4, TCP, UDP, INTRINSIC_META, PORT_META, SAMPLE_HEADER]


class TestTypedValue:
    def test_missing_field(self):
        with pytest.raises(ValueError):
            TypedValue(ETHERNET, {"dst": 1, "src": 2})

    def test_extra_field(self):
        with pytest.raises(ValueError):
            TypedValue(UDP, {"src_port": 0, "dst_port": 0, "length": 0,
                             "checksum": 0, "bogus": 1})

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            TypedValue(UDP, {"src_port": 1 << 16, "dst_port": 0,
                             "length": 0, "checksum": 0})

    def test_field_order_irrelevant(self):
        a = TypedValue(ETHERNET, {"dst": 1, "src": 2, "ethertype": 3})
        b = TypedValue(ETHERNET, {"ethertype": 3, "src": 2, "dst": 1})
        assert a == b and encode(a) == encode(b)

    @given(st.data())
    @settings(max_examples=300)
    def test_of_word_is_the_validated_value(self, data):
        htype = data.draw(st.sampled_from(STOCK_HEADERS))
        vals = {n: data.draw(st.integers(0, (1 << w) - 1)) for n, w in htype.fields}
        v = TypedValue(htype, vals)
        # the word packs the fields big-endian; bits above it are ignored
        word = 0
        for n, w in htype.fields:
            word = (word << w) | vals[n]
        junk = data.draw(st.integers(0, (1 << 64) - 1))
        u = TypedValue.of_word(htype, (junk << htype.total_width) | word)
        assert u == v and hash(u) == hash(v)
        assert encode(u).value == word and len(encode(u)) == htype.total_width
        assert u.values == tuple((n, vals[n]) for n, _ in htype.fields)
        assert all(u[n] == vals[n] for n in vals) and u.as_dict() == vals

    def test_unknown_field_read(self):
        with pytest.raises(KeyError, match="no field 'bogus'"):
            TypedValue.of_word(UDP, 0)["bogus"]

    def test_replace(self):
        v = TypedValue(UDP, {"src_port": 1, "dst_port": 2, "length": 8,
                             "checksum": 0})
        w = with_fields(v, dst_port=9)
        assert w["dst_port"] == 9 and w["src_port"] == 1 and v["dst_port"] == 2


class TestCodec:
    def test_ethernet_wire_image(self):
        # dst=ff:..:ff src=00:..:00 type=0x0800, laid out field by field
        v = TypedValue(ETHERNET, {"dst": 0xFFFF_FFFF_FFFF, "src": 0,
                                  "ethertype": 0x0800})
        assert encode(v) == BitString.from_bytes(bytes.fromhex("ffffffffffff" + "0" * 12 + "0800"))

    def test_extract_exact(self):
        wire = BitString.from_bytes(bytes.fromhex("ffffffffffff" + "0" * 12 + "0800"))
        v, status, rest = extract(ETHERNET, wire)
        assert status is ExtractStatus.SUCCESS
        assert v["dst"] == 0xFFFF_FFFF_FFFF and v["ethertype"] == 0x800
        assert rest == BitString()

    def test_extract_leaves_remainder(self):
        tail = BitString(0b101, 3)
        v = TypedValue(ETHERNET, {"dst": 5, "src": 6, "ethertype": 7})
        got, status, rest = extract(ETHERNET, encode(v) + tail)
        assert (got, status, rest) == (v, ExtractStatus.SUCCESS, tail)

    def test_extract_short_input(self):
        p = BitString(0, 111)  # one bit shy of an ethernet header
        v, status, rest = extract(ETHERNET, p)
        assert v is None and status is ExtractStatus.FAILURE and rest == p

    @given(st.data())
    @settings(max_examples=300)
    def test_round_trip(self, data):
        htype = data.draw(st.sampled_from(STOCK_HEADERS))
        vals = {n: data.draw(st.integers(0, (1 << w) - 1)) for n, w in htype.fields}
        v = TypedValue(htype, vals)
        tail_len = data.draw(st.integers(0, 24))
        tail = BitString(data.draw(st.integers(0, (1 << tail_len) - 1 if tail_len else 0)),
                         tail_len)
        assert extract(htype, encode(v) + tail) == (v, ExtractStatus.SUCCESS, tail)


H2 = HeaderType("two", (("a", 4), ("b", 4)))


class TestWellFormedness:
    def test_duplicate_binding(self):
        with pytest.raises(IllFormedFormat):
            check_well_formed(seq(ExactValue("x", H2), ExactValue("x", H2)))

    def test_plain_must_be_terminal(self):
        with pytest.raises(IllFormedFormat):
            check_well_formed(Concat(ExactPlain("rest"), ExactValue("x", H2)))

    def test_plain_terminal_ok(self):
        check_well_formed(seq(ExactValue("x", H2), ExactPlain("rest")))

    def test_branch_arms_may_reuse_names(self):
        f = Branch(lambda e: True,
                   ExactValue("y", H2), ExactValue("y", H2))
        check_well_formed(f)
        # but a name used in an arm is burnt for what follows
        with pytest.raises(IllFormedFormat):
            check_well_formed(Concat(f, ExactValue("y", H2)))

    def test_plain_before_empty_rejected(self):
        with pytest.raises(IllFormedFormat):
            check_well_formed(Concat(ExactPlain("p"), Empty()))

    def test_plain_in_arm_before_empty_rejected(self):
        f = Branch(lambda e: True, ExactPlain("p"), Empty())
        check_well_formed(f)
        with pytest.raises(IllFormedFormat):
            check_well_formed(Concat(f, Empty()))

    def test_same_name_in_both_arms_accepted(self):
        # an ExactPlain ends each arm, and so its path
        check_well_formed(seq(ExactValue("x", H2),
                              Branch(lambda e: True, ExactPlain("y"),
                                     seq(ExactValue("z", H2), ExactPlain("y")))))

    def test_name_in_one_arm_and_after_branch_rejected(self):
        f = Branch(lambda e: True, ExactValue("y", H2), ExactValue("z", H2))
        with pytest.raises(IllFormedFormat):
            check_well_formed(seq(f, ExactValue("w", H2), ExactPlain("y")))


class TestMatching:
    def test_exact_value_binds(self):
        p = BitString(0xAB, 8)
        r = match_report(p, ExactValue("x", H2))
        assert r["ok"] and r["env"]["x"]["a"] == 0xA and r["env"]["x"]["b"] == 0xB

    def test_trailing_bits_fail(self):
        assert not match_report(BitString(0xAB5, 12), ExactValue("x", H2))["ok"]

    def test_plain_takes_rest(self):
        f = seq(ExactValue("x", H2), ExactPlain("rest"))
        r = match_report(BitString(0xAB5, 12), f)
        assert r["ok"] and r["env"]["rest"] == BitString(0x5, 4)

    def test_plain_may_be_empty(self):
        r = match_report(BitString(0xAB, 8), seq(ExactValue("x", H2), ExactPlain("rest")))
        assert r["ok"] and len(r["env"]["rest"]) == 0

    def test_branch_selects_arm(self):
        f = Concat(ExactValue("x", H2),
                   Branch(lambda e: e["x"]["a"] == 0xA,
                          ExactValue("then", H2), Empty(), label="is_a"))
        assert match_report(BitString(0xAB01, 16), f)["ok"]
        assert match_report(BitString(0xAB, 8), f)["ok"] is False      # arm demands 8 more
        assert match_report(BitString(0x1B, 8), f)["ok"]               # else-arm is empty

    def test_unbound_condition_raises(self):
        f = Branch(lambda e: e["nope"]["a"] == 0, Empty(), Empty())
        with pytest.raises(UnresolvedCondition):
            match_report(BitString(), f)

    def test_environment_missing_name(self):
        with pytest.raises(UnresolvedCondition):
            Environment({})["ghost"]
        # get, like membership, stays quiet
        assert Environment({}).get("ghost") is None
        assert Environment({}).get("ghost", 7) == 7
        assert Environment({"x": 1}).get("x") == 1

    def test_against_brute_force(self):
        rng = random.Random(0xF0F0)
        cases = []
        for _ in range(400):
            f = random_format(rng)
            if rng.random() < 0.5:
                p = sample_matching_input(rng, f)
                if len(p) > 64:
                    p = p.take(64)
            else:
                n = rng.randrange(0, 65)
                p = BitString(rng.getrandbits(n) if n else 0, n)
            cases.append((f, p))
        # the stock formats, on whole, truncated and sample-prefixed packets
        for _ in range(20):
            p = rand_packet(rng)
            for q in (p, mangle(rng, p)):
                for r in (q, encode(rand_typed(rng, SAMPLE_HEADER)) + q):
                    cases += [(STANDARD_FORMAT, r), (SAMPLED_FORMAT, r)]
        for f, p in cases:
            got = match_report(p, f)["ok"]
            assert got == ref_matches(p, f), (f, p)


class TestCompileFormat:
    """compile_format(f) is the interpreter's complete matches, staged."""

    def test_random_formats_agree_with_the_interpreter(self):
        rng = random.Random(0xC0DE)
        for _ in range(300):
            f = random_format(rng)
            parse = compile_format(f)
            p = sample_matching_input(rng, f)
            n = rng.randrange(0, 65)
            cases = [p, BitString(rng.getrandbits(n) if n else 0, n)]
            cases += [p.take(k) for k in range(len(p))]
            cases += [BitString(p.value ^ (1 << i), len(p)) for i in range(len(p))]
            for q in cases:
                got, want = parse(q), interpreted(q, f)
                assert got == want, (f, q)
                if got is not None:
                    assert list(got) == list(want)

    def test_runs_and_branches(self):
        f = seq(ExactValue("x", H2), ExactValue("y", H2),
                Branch(lambda e: e["y"]["a"] == 1, ExactValue("z", H2), Empty()),
                ExactPlain("rest"))
        parse = compile_format(f)
        got = parse(BitString(0xAB_1C_FF_3, 28))
        assert list(got) == ["x", "y", "z", "rest"]
        assert (got["x"]["a"], got["y"]["b"], got["z"]["a"]) == (0xA, 0xC, 0xF)
        assert got["rest"] == BitString(0x3, 4)
        assert list(parse(BitString(0xAB_2C_3, 20))) == ["x", "y", "rest"]
        assert parse(BitString(0xAB_1C, 16)) is None  # the branch wants 8 more bits
        assert parse(BitString(0xAB_1, 12)) is None        # the run is cut short

    def test_branch_condition_called_once_on_the_bindings_so_far(self):
        seen = []

        def cond(env):
            seen.append(sorted(env))
            return True

        parse = compile_format(seq(ExactValue("x", H2), Branch(cond, ExactValue("y", H2))))
        assert parse(BitString(0xAB_CD, 16)) is not None
        assert seen == [["x"]]

    def test_unbound_condition_raises(self):
        f = Branch(lambda e: e["nope"]["a"] == 0, Empty(), Empty())
        with pytest.raises(UnresolvedCondition):
            compile_format(f)(BitString())

    def test_get_of_an_unbound_name_agrees_with_the_interpreter(self):
        f = Branch(lambda e: e.get("nope") is None, Empty(), Empty())
        assert compile_format(f)(BitString()) == interpreted(BitString(), f) == {}

    def test_ill_formed_refused(self):
        with pytest.raises(IllFormedFormat):
            compile_format(Concat(ExactPlain("p"), ExactValue("x", H2)))
        with pytest.raises(IllFormedFormat):
            compile_format(seq(ExactValue("x", H2), ExactValue("x", H2)))


class TestWidthAndReport:
    def test_report_blames_start_of_failed_field(self):
        f = seq(ExactValue("x", H2), ExactValue("eth", ETHERNET))
        r = match_report(BitString(0xAB, 8) + BitString(0, 40), f)
        assert not r["ok"]
        assert r["fail_bit"] == 8  # ethernet starts here and cannot fit
        assert "ethernet" in r["reason"]

    def test_report_trailing(self):
        r = match_report(BitString(0xAB5, 12), ExactValue("x", H2))
        assert not r["ok"] and r["fail_bit"] == 8 and "trailing" in r["reason"]

    def test_report_success(self):
        r = match_report(BitString(0xAB, 8), ExactValue("x", H2))
        assert r["ok"] and r["fail_bit"] is None
