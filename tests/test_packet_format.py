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
    ExactPlain,
    ExactValue,
    ExtractStatus,
    FieldIs,
    HeaderType,
    IllFormedFormat,
    TypedValue,
    compile_format,
    encode,
    extract,
    match_report,
    report_matcher,
    seq,
)
from dataplane.headers import (
    ETHERNET, INTRINSIC_META, IP_PROTO_TCP, IP_PROTO_UDP, IPV4, PORT_META, SAMPLE_HEADER,
    SAMPLED_FORMAT, STANDARD_FORMAT, TCP, UDP,
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
# a test of the header that X_H2 binds, which holds on half its values
X_H2 = ExactValue("x", H2)
X_A_EVEN = FieldIs("x", "a", tuple(range(0, 16, 2)))


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
                   Branch(FieldIs("x", "a", (0xA,)), ExactValue("then", H2), Empty()))
        assert match_report(BitString(0xAB01, 16), f)["ok"]
        assert match_report(BitString(0xAB, 8), f)["ok"] is False      # arm demands 8 more
        assert match_report(BitString(0x1B, 8), f)["ok"]               # else-arm is empty

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
                Branch(FieldIs("y", "a", (1,)), ExactValue("z", H2), Empty()),
                ExactPlain("rest"))
        parse = compile_format(f)
        got = parse(BitString(0xAB_1C_FF_3, 28))
        assert list(got) == ["x", "y", "z", "rest"]
        assert (got["x"]["a"], got["y"]["b"], got["z"]["a"]) == (0xA, 0xC, 0xF)
        assert got["rest"] == BitString(0x3, 4)
        assert list(parse(BitString(0xAB_2C_3, 20))) == ["x", "y", "rest"]
        assert parse(BitString(0xAB_1C, 16)) is None  # the branch wants 8 more bits
        assert parse(BitString(0xAB_1, 12)) is None        # the run is cut short

    def test_ill_formed_refused(self):
        with pytest.raises(IllFormedFormat):
            compile_format(Concat(ExactPlain("p"), ExactValue("x", H2)))
        with pytest.raises(IllFormedFormat):
            compile_format(seq(ExactValue("x", H2), ExactValue("x", H2)))


class TestWellFormedness:
    def test_plain_must_be_terminal(self):
        # both entry points refuse it, the interpreter by compiling
        for refuse in (compile_format, report_matcher):
            with pytest.raises(IllFormedFormat):
                refuse(Concat(ExactPlain("rest"), ExactValue("x", H2)))


# a branch whose arms both bind y, and one whose then-arm ends its path
REUSE_Y = Concat(X_H2, Branch(X_A_EVEN, ExactValue("y", H2), ExactValue("y", H2)))
PLAIN_ARM = Concat(X_H2, Branch(X_A_EVEN, ExactPlain("p"), Empty()))


def _ill(message: str) -> tuple:
    return IllFormedFormat, message


def _unbound(name: str) -> tuple:
    return _ill(f"FieldIs(binding={name!r}, field='a', values=(0,)): "
                f"no ExactValue binds {name!r} before it")


def _non_terminal(name: str) -> tuple:
    return _ill(f"ExactPlain({name!r}) in non-terminal position has no determined width")


def _bad_values(values: str) -> tuple:
    return _ill(f"FieldIs(binding='x', field='a', values={values}): "
                "values must be a tuple of ints in 0..15")


# each format with what checking it raises, (type, message), or None when
# it is well formed; ill-formed ones are refused before any packet is matched
CHECKED_FORMATS = {
    "duplicate name in a run": (seq(X_H2, X_H2), _ill("duplicate binding 'x'")),
    "duplicate name at an ExactPlain": (seq(X_H2, ExactPlain("x")),
                                        _ill("duplicate binding 'x'")),
    # a name bound in an arm is burnt for what follows the branch
    "name bound again after a branch": (Concat(REUSE_Y, ExactValue("y", H2)),
                                        _ill("duplicate binding 'y'")),
    "name bound in one arm and after the branch": (
        seq(X_H2, Branch(X_A_EVEN, ExactValue("y", H2), ExactValue("z", H2)),
            ExactValue("w", H2), ExactPlain("y")),
        _ill("duplicate binding 'y'")),
    "ExactPlain before a piece": (Concat(ExactPlain("rest"), X_H2), _non_terminal("rest")),
    "ExactPlain before Empty": (Concat(ExactPlain("p"), Empty()), _non_terminal("p")),
    "ExactPlain in an arm before Empty": (Concat(PLAIN_ARM, Empty()), _non_terminal("p")),
    "unbound name": (Branch(FieldIs("nope", "a", (0,))), _unbound("nope")),
    "bound in one arm only": (seq(X_H2, Branch(X_A_EVEN, ExactValue("y", H2)),
                                  Branch(FieldIs("y", "a", (0,)))),
                              _unbound("y")),
    # the then-path ends at the ExactPlain before the test is reached
    "bound to an ExactPlain": (seq(X_H2, Branch(X_A_EVEN, ExactPlain("y"), ExactValue("y", H2)),
                                   Branch(FieldIs("y", "a", (0,)))),
                               _non_terminal("y")),
    "bound after the branch": (seq(Branch(FieldIs("x", "a", (0,))), X_H2), _unbound("x")),
    "unknown field": (seq(X_H2, Branch(FieldIs("x", "c", (0,)))),
                      _ill("FieldIs(binding='x', field='c', values=(0,)): two has no field 'c'")),
    "value out of range": (seq(X_H2, Branch(FieldIs("x", "a", (0, 16)))), _bad_values("(0, 16)")),
    "negative value": (seq(X_H2, Branch(FieldIs("x", "a", (-1,)))), _bad_values("(-1,)")),
    "value not an int": (seq(X_H2, Branch(FieldIs("x", "a", ("1",)))), _bad_values("('1',)")),
    # a list would leave the format unhashable
    "values not a tuple": (seq(X_H2, Branch(FieldIs("x", "a", [0]))), _bad_values("[0]")),
    "not a Format": (seq(X_H2, "x"), (TypeError, "not a Format: 'x'")),
    "not a Format in an arm": (seq(X_H2, Branch(X_A_EVEN, 5)), (TypeError, "not a Format: 5")),
    "ExactPlain last": (seq(X_H2, ExactPlain("rest")), None),
    "arms reuse a name": (REUSE_Y, None),
    "ExactPlain ends an arm": (PLAIN_ARM, None),
    # an ExactPlain ends each arm, and so its path
    "same ExactPlain ends both arms": (
        seq(X_H2, Branch(X_A_EVEN, ExactPlain("y"), seq(ExactValue("z", H2), ExactPlain("y")))),
        None),
}


@pytest.mark.parametrize("f, refusal", CHECKED_FORMATS.values(), ids=CHECKED_FORMATS.keys())
@pytest.mark.parametrize("entry", [compile_format, report_matcher])
def test_format_check(entry, f, refusal):
    # the interpreter refuses by compiling, so both raise alike
    if refusal is None:
        entry(f)
        return
    exc, message = refusal
    with pytest.raises(exc) as e:
        entry(f)
    assert type(e.value) is exc and str(e.value) == message


def test_formats_compare_by_their_tests():
    odd, even = FieldIs("x", "a", (1, 3)), FieldIs("x", "a", (0, 2))
    assert Branch(odd, ExactValue("y", H2)) != Branch(even, ExactValue("y", H2))
    assert hash(Branch(odd, ExactValue("y", H2))) != hash(Branch(even, ExactValue("y", H2)))
    assert Branch(odd, ExactValue("y", H2)) == Branch(FieldIs("x", "a", (1, 3)), ExactValue("y", H2))

    def standard(tcp: int, udp: int):
        """The stock format declared again, tcp and udp its protocol numbers."""
        return seq(
            ExactValue("meta", INTRINSIC_META), ExactValue("port_md", PORT_META),
            ExactValue("ethernet", ETHERNET), ExactValue("ipv4", IPV4),
            Branch(FieldIs("ipv4", "protocol", (tcp,)), ExactValue("tcp", TCP),
                   Branch(FieldIs("ipv4", "protocol", (udp,)), ExactValue("udp", UDP))),
            ExactPlain("payload"))
    rebuilt = standard(IP_PROTO_TCP, IP_PROTO_UDP)
    assert rebuilt == STANDARD_FORMAT and hash(rebuilt) == hash(STANDARD_FORMAT)
    swapped = standard(IP_PROTO_UDP, IP_PROTO_TCP)
    assert swapped != STANDARD_FORMAT and hash(swapped) != hash(STANDARD_FORMAT)


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
