"""Bit-exact container semantics: MSB-first, immutable, total within range."""

import pytest
from hypothesis import given, strategies as st

from dataplane.headers import WIRE_ORDER, deparse_slots
from dataplane.packet_format import BitString, TypedValue, encode

from support import STOCK_SLOT_TYPES


def bits(max_len=128):
    return st.integers(0, max_len).flatmap(
        lambda n: st.builds(BitString, st.integers(0, (1 << n) - 1 if n else 0),
                            st.just(n)))


class TestConstruction:
    @given(st.integers(0, 600))
    def test_value_out_of_range(self, n):
        # BitString(value, nbits) is what trace and workload files are
        # read through; only values built from valid ones skip the check
        with pytest.raises(ValueError):
            BitString(4, 2)
        with pytest.raises(ValueError):
            BitString(1 << n, n)

    def test_negative_width(self):
        with pytest.raises(ValueError):
            BitString(0, -1)

    def test_empty(self):
        assert len(BitString()) == 0
        assert BitString() == BitString(0, 0)

    def test_from_bytes_msb_first(self):
        p = BitString.from_bytes(b"\xa5")
        assert (p.value, len(p)) == (0xA5, 8)
        # high nibble comes off the front
        assert p.take(4).value == 0xA
        assert p.drop(4).value == 0x5


class TestSlicing:
    def test_take_drop_slice(self):
        p = BitString(0b10110, 5)
        assert p.take(2) == BitString(0b10, 2)
        assert p.drop(2) == BitString(0b110, 3)
        assert p.drop(1).take(3) == BitString(0b011, 3)
        assert p.take(0) == BitString()
        assert p.drop(5) == BitString()

    def test_out_of_range(self):
        p = BitString(0b101, 3)
        with pytest.raises(ValueError):
            p.take(4)
        with pytest.raises(ValueError):
            p.drop(4)

    def test_concat(self):
        assert BitString(0b101, 3) + BitString(0b01, 2) == BitString(0b10101, 5)
        assert BitString() + BitString(1, 1) == BitString(1, 1)

    @given(bits(), st.data())
    def test_take_drop_partition(self, p, data):
        n = data.draw(st.integers(0, len(p)))
        assert p.take(n) + p.drop(n) == p


def _text(p: BitString) -> str:
    """p as a string of '0' and '1', first bit first."""
    return format(p.value, f"0{p.nbits}b") if p.nbits else ""


def _checked(text: str) -> BitString:
    """The checked constructor's bit string for a string of bits."""
    return BitString(int(text, 2) if text else 0, len(text))


class TestUncheckedResults:
    """take, drop, + and deparse_slots build their results without
    the range check; each must equal what the checked constructor makes."""

    @given(bits(), st.data())
    def test_take_drop_slice(self, p, data):
        n = data.draw(st.integers(0, len(p)))
        start = data.draw(st.integers(0, len(p)))
        width = data.draw(st.integers(0, len(p) - start))
        text = _text(p)
        assert p.take(n) == _checked(text[:n])
        assert p.drop(n) == _checked(text[n:])
        assert p.drop(start).take(width) == _checked(text[start:start + width])

    @given(bits(), bits())
    def test_concat(self, p, q):
        assert p + q == _checked(_text(p) + _text(q))

    @given(st.data())
    def test_deparse_slots(self, data):
        names = data.draw(st.lists(st.sampled_from(WIRE_ORDER), unique=True))
        slots = {}
        for name in names:
            htype = STOCK_SLOT_TYPES[name]
            slots[name] = TypedValue(htype, {f: data.draw(st.integers(0, (1 << w) - 1))
                                             for f, w in htype.fields})
        want = "".join(_text(encode(slots[n])) for n in WIRE_ORDER if n in slots)
        assert deparse_slots(slots) == _checked(want)


class TestSerialization:
    def test_to_hex_pads_the_tail(self):
        assert BitString(0xF, 4).to_hex() == "f0"

    def test_hex_round_trip_unaligned(self):
        p = BitString(0b10011, 5)
        assert BitString.from_hex(p.to_hex(), len_bits=5) == p

    def test_from_hex_aligned(self):
        assert BitString.from_hex("a5") == BitString(0xA5, 8)

    @pytest.mark.parametrize("len_bits", [0, 9])
    def test_from_hex_refuses_an_inconsistent_length(self, len_bits):
        # one byte of hex holds 1 to 8 bits
        with pytest.raises(ValueError, match=f"^len_bits {len_bits} inconsistent with 8 hex bits$"):
            BitString.from_hex("a5", len_bits)

    @given(bits())
    def test_json_round_trip(self, p):
        assert BitString.from_json(p.to_json()) == p

    @pytest.mark.parametrize("v", [5, None, {"hex": "00"}, {"hex": "00", "len_bits": "x"},
                                   {"hex": "00", "len_bits": 3, "x": 1}, "0g"])
    def test_from_json_rejects_with_where(self, v):
        with pytest.raises(ValueError, match=r"^q_output\[0\]\[1\]"):
            BitString.from_json(v, "q_output[0][1]")

    @given(st.binary(max_size=32))
    def test_bytes_round_trip(self, raw):
        assert BitString.from_bytes(raw).to_hex() == raw.hex()
