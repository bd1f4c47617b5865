"""Bit-exact packet data and declarative packet formats.

A packet is a finite bit string, MSB-first within each byte.  Header
layouts are described by :class:`HeaderType` (named fields with fixed
bit widths) and concrete header values by :class:`TypedValue`, held as
their encoding: one word packing the field values big-endian in
declaration order, off which fields are read on demand.  Decoding takes
that word off a bit string with one shift, so ``decode(encode(v)) == v``
for every well-typed value.

Packet shapes beyond a single header are described by a small format
language:

* ``Empty``            matches only the empty bit string
* ``ExactValue(n, T)`` matches exactly ``T.total_width`` bits and binds
  the decoded value to ``n``
* ``ExactPlain(n)``    matches any remaining suffix and binds the raw
  bits to ``n`` (only allowed in terminal position)
* ``Concat(f1, f2)``   splits the input at the width of ``f1``
* ``Branch(c, f1, f2)`` picks an arm by evaluating a host predicate
  over the bindings accumulated so far

Matching proceeds left to right, so a branch condition may only read
names bound to its left.  Because every non-terminal piece has an
environment-determined width, the concat split point is forced and
matching is deterministic.

Each format has two matchers.  ``match_report`` interprets the format
tree, node by node: it is the spec.  ``compile_format`` stages a format
once into a parser that computes the same bindings with fixed bounds
tests, shifts and masks; the stock parsers run these compiled parsers.
Both matchers bind into one type, :class:`Environment`, a dict whose
lookup of an unbound name raises :class:`UnresolvedCondition`.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from typing import Callable, Optional

from .records import field, record


class FormatError(Exception):
    """Base class for packet format errors."""


class IllFormedFormat(FormatError):
    """Format violates a structural rule (duplicate binding, non-terminal
    ExactPlain, or a concat left operand without a determined width)."""


class UnresolvedCondition(FormatError):
    """A branch condition read a name that is not bound yet."""


# ---------------------------------------------------------------------------
# bit strings


@record
class BitString:
    """An immutable bit string stored as (value, nbits), MSB first.

    The first bit of the string is the most significant bit of
    ``value``; an empty string is ``BitString(0, 0)``.
    """

    value: int = 0
    nbits: int = 0

    def __post_init__(self) -> None:
        if self.nbits < 0:
            raise ValueError(f"negative bit length: {self.nbits}")
        if not 0 <= self.value < (1 << self.nbits):
            raise ValueError(f"value {self.value:#x} does not fit in {self.nbits} bits")

    def __len__(self) -> int:
        return self.nbits

    def __add__(self, other: "BitString") -> "BitString":
        return _bits((self.value << other.nbits) | other.value, self.nbits + other.nbits)

    def take(self, n: int) -> "BitString":
        """First n bits."""
        if not 0 <= n <= self.nbits:
            raise ValueError(f"cannot take {n} of {self.nbits} bits")
        return _bits(self.value >> (self.nbits - n), n)

    def drop(self, n: int) -> "BitString":
        """Everything after the first n bits."""
        if not 0 <= n <= self.nbits:
            raise ValueError(f"cannot drop {n} of {self.nbits} bits")
        rem = self.nbits - n
        return _bits(self.value & ((1 << rem) - 1), rem)

    @classmethod
    def from_bytes(cls, data: bytes) -> "BitString":
        return _bits(int.from_bytes(data, "big"), 8 * len(data))

    @classmethod
    def from_hex(cls, text: str, len_bits: Optional[int] = None) -> "BitString":
        """Parse lowercase/uppercase hex digit pairs, with no other character
        between the outer whitespace; len_bits trims tail padding."""
        text = text.strip()
        try:
            data = bytes.fromhex(text)
            if 2 * len(data) != len(text):  # it skips whitespace between pairs
                raise ValueError
        except ValueError:
            raise ValueError(f"not pairs of hexadecimal digits: {text!r}") from None
        raw = cls.from_bytes(data)
        if len_bits is None:
            return raw
        if not raw.nbits - 8 < len_bits <= raw.nbits:
            raise ValueError(f"len_bits {len_bits} inconsistent with {raw.nbits} hex bits")
        return raw.take(len_bits)

    def to_hex(self) -> str:
        """Hex with the tail zero-padded out to a byte boundary."""
        nbytes = (self.nbits + 7) // 8
        return (self.value << (8 * nbytes - self.nbits)).to_bytes(nbytes, "big").hex()

    def to_json(self):
        """Plain hex string when byte aligned, else {"hex", "len_bits"}."""
        if self.nbits % 8 == 0:
            return self.to_hex()
        return {"hex": self.to_hex(), "len_bits": self.nbits}

    @classmethod
    def from_json(cls, v, where: str = "packet") -> "BitString":
        """Inverse of to_json: a hex string, or {"hex", "len_bits"}.  Any
        other value is a ValueError whose message names `where`."""
        if isinstance(v, dict) and set(v) == {"hex", "len_bits"}:
            hex_, len_bits = v["hex"], v["len_bits"]
        else:
            hex_, len_bits = v, None
        if not (isinstance(hex_, str) and (len_bits is None or type(len_bits) is int)):
            raise ValueError(f"{where} must be a hex string, got {v!r}")
        try:
            return cls.from_hex(hex_, len_bits)
        except ValueError as e:
            raise ValueError(f"{where}: {e}") from None

    def __repr__(self) -> str:
        return f"BitString({self.nbits}b:{self.to_hex()})"


def _bits(value: int, nbits: int) -> BitString:
    """BitString(value, nbits) without the range check, for the callers
    whose value is in range by construction: a shift and mask of a valid
    bit string, or words packed from valid header values.  Files and
    every other outside value go through the checked constructor."""
    b = _new(_MutableBits)
    b.value = value
    b.nbits = nbits
    b.__class__ = BitString
    return b


_new = object.__new__
_MutableBits = BitString.__record_mutable__


# ---------------------------------------------------------------------------
# header types and values


@record
class HeaderType:
    """A named, ordered list of fixed-width unsigned fields."""

    # the sum of the field widths, field -> (shift, mask) within the
    # encoded word, and the mask of the whole word; kept out of the
    # fields so that eq, hash and repr see only the declaration
    __slots__ = ("total_width", "layout", "mask")

    name: str
    fields: tuple[tuple[str, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "fields", tuple((str(n), int(w)) for n, w in self.fields))
        object.__setattr__(self, "total_width", sum(w for _, w in self.fields))
        layout, shift = {}, self.total_width
        for fname, width in self.fields:
            if width < 1:
                raise ValueError(f"{self.name}.{fname}: width must be >= 1, got {width}")
            if fname in layout:
                raise ValueError(f"{self.name}: duplicate field {fname!r}")
            shift -= width
            layout[fname] = (shift, (1 << width) - 1)
        object.__setattr__(self, "layout", layout)
        object.__setattr__(self, "mask", (1 << self.total_width) - 1)


@record
class TypedValue:
    """A fully bound header value, held as its encoding: word packs the
    fields big-endian in declaration order, and a field read is one
    shift and mask.  Every field of the type is present and in range."""

    htype: HeaderType
    word: int

    def __init__(self, htype: HeaderType, values: Mapping[str, int]) -> None:
        got = dict(values)
        word = 0
        for fname, width in htype.fields:
            if fname not in got:
                raise ValueError(f"{htype.name}: missing field {fname!r}")
            v = int(got.pop(fname))
            if not 0 <= v < (1 << width):
                raise ValueError(f"{htype.name}.{fname}: {v:#x} does not fit in {width} bits")
            word = (word << width) | v
        if got:
            raise ValueError(f"{htype.name}: unknown fields {sorted(got)}")
        object.__setattr__(self, "htype", htype)
        object.__setattr__(self, "word", word)

    @classmethod
    def of_word(cls, htype: HeaderType, word: int) -> "TypedValue":
        """The value encoded by the low total_width bits of word; higher
        bits are ignored.  Every field is masked to its width, so it is in
        range by construction."""
        v = _new(_MutableValue)
        v.htype = htype
        v.word = word & htype.mask
        v.__class__ = cls
        return v

    def __getitem__(self, fname: str) -> int:
        try:
            shift, mask = self.htype.layout[fname]
        except KeyError:
            raise KeyError(f"{self.htype.name} has no field {fname!r}") from None
        return self.word >> shift & mask

    @property
    def values(self) -> tuple[tuple[str, int], ...]:
        """(field, value) pairs in declaration order."""
        word = self.word
        return tuple((n, word >> shift & mask) for n, (shift, mask) in self.htype.layout.items())

    def as_dict(self) -> dict[str, int]:
        return dict(self.values)

    def __repr__(self) -> str:
        inner = ", ".join(f"{n}={v:#x}" for n, v in self.values)
        return f"<{self.htype.name} {inner}>"


_MutableValue = TypedValue.__record_mutable__


def encode(v: TypedValue) -> BitString:
    """The value's word as a bit string of the type's total width."""
    return BitString(v.word, v.htype.total_width)


class ExtractStatus(enum.Enum):
    SUCCESS = "success"
    FAILURE = "failure"


def extract(htype: HeaderType, p: BitString) -> tuple[Optional[TypedValue], ExtractStatus, BitString]:
    """Decode one header off the front of p.

    Total: a short input yields (None, FAILURE, p) with p unchanged,
    never an exception.
    """
    total = htype.total_width
    if len(p) < total:
        return None, ExtractStatus.FAILURE, p
    return (TypedValue.of_word(htype, p.value >> (p.nbits - total)), ExtractStatus.SUCCESS,
            p.drop(total))


# ---------------------------------------------------------------------------
# environments


class Environment(dict):
    """Bindings accumulated during a match, by either matcher.  Lookup
    of a missing name raises UnresolvedCondition so that branch
    predicates fail loudly rather than guessing; ``in`` and ``get``
    stay quiet."""

    __slots__ = ()

    def __missing__(self, name: str):
        raise UnresolvedCondition(f"binding {name!r} is not in scope")

    def __repr__(self) -> str:
        return f"Environment({sorted(self)})"


# ---------------------------------------------------------------------------
# format language


class Format:
    """Base class; see module docstring for the constructors."""

    __slots__ = ()


@record
class Empty(Format):
    pass


@record
class ExactValue(Format):
    name: str
    htype: HeaderType


@record
class ExactPlain(Format):
    name: str


@record
class Concat(Format):
    left: Format
    right: Format


@record
class Branch(Format):
    cond: Callable[[Environment], bool] = field(compare=False)
    then: Format = Empty()
    els: Format = Empty()
    label: str = ""


def seq(*formats: Format) -> Format:
    """Right-nested concatenation of several formats."""
    if not formats:
        return Empty()
    out = formats[-1]
    for f in reversed(formats[:-1]):
        out = Concat(f, out)
    return out


def _pieces(f: Format) -> list[Format]:
    """f as the list of its concatenated pieces."""
    if isinstance(f, Concat):
        return _pieces(f.left) + _pieces(f.right)
    return [f]


def check_well_formed(f: Format) -> None:
    """Raise IllFormedFormat on a name bound twice along one path, or an
    ExactPlain that is not the last piece of its path (which would make
    a concat split ambiguous).  The paths are the ones _stage compiles:
    each arm of a branch followed by the pieces after the branch."""

    def walk(pieces: list[Format], names: frozenset[str]) -> None:
        for i, g in enumerate(pieces):
            if isinstance(g, Branch):
                # arms bind alternatively, so they may reuse names between them
                rest = pieces[i + 1:]
                walk(_pieces(g.then) + rest, names)
                walk(_pieces(g.els) + rest, names)
                return
            if isinstance(g, (ExactValue, ExactPlain)):
                if g.name in names:
                    raise IllFormedFormat(f"duplicate binding {g.name!r}")
                names |= {g.name}
                if isinstance(g, ExactPlain) and i + 1 < len(pieces):
                    raise IllFormedFormat(
                        f"ExactPlain({g.name!r}) in non-terminal position has no determined width")
            elif not isinstance(g, Empty):
                raise TypeError(f"not a Format: {g!r}")

    walk(_pieces(f), frozenset())


class MatchFailure(Exception):
    """Internal: carries the bit offset where matching stopped."""

    def __init__(self, offset: int, reason: str) -> None:
        super().__init__(f"no match at bit {offset}: {reason}")
        self.offset = offset
        self.reason = reason


def _match_prefix(f: Format, p: BitString, pos: int, env: Environment) -> int:
    """Match f against p from bit pos, binding into env; returns the
    end offset.  Raises MatchFailure.  f is assumed well formed."""
    while isinstance(f, Concat):
        pos = _match_prefix(f.left, p, pos, env)
        f = f.right
    if isinstance(f, ExactValue):
        htype = f.htype
        end = pos + htype.total_width
        if end > p.nbits:
            raise MatchFailure(pos, f"need {htype.total_width} bits for {htype.name}, "
                                    f"have {p.nbits - pos}")
        env[f.name] = TypedValue.of_word(htype, p.value >> (p.nbits - end))
        return end
    if isinstance(f, Branch):
        return _match_prefix(f.then if f.cond(env) else f.els, p, pos, env)
    if isinstance(f, ExactPlain):
        env[f.name] = p.drop(pos)
        return p.nbits
    if isinstance(f, Empty):
        return pos
    raise TypeError(f"not a Format: {f!r}")


def match_report(p: BitString, f: Format) -> dict:
    """Decide whether p is exactly described by f, as a diagnostic dict
    {"ok", "env", "fail_bit", "reason"}.  On success env holds one
    binding per matched ExactValue / ExactPlain and fail_bit is None; on
    failure env holds whatever was bound before the mismatch."""
    return report_matcher(f)(p)


def report_matcher(f: Format) -> Callable[[BitString], dict]:
    """match_report(., f), with f checked once, here, for a caller that
    matches many packets.  Raises IllFormedFormat as check_well_formed
    does."""
    check_well_formed(f)

    def report(p: BitString) -> dict:
        env = Environment()
        try:
            end = _match_prefix(f, p, 0, env)
        except MatchFailure as e:
            fail_bit, reason = e.offset, e.reason
        else:
            fail_bit, reason = ((None, "") if end == p.nbits
                                else (end, f"{p.nbits - end} trailing bits"))
        return {"ok": fail_bit is None, "env": env, "fail_bit": fail_bit, "reason": reason}
    return report


# ---------------------------------------------------------------------------
# compiled matching: the bindings of match_report's complete matches, staged
# once per format into closures over fixed widths, shifts and masks


# a stage matches from bit pos of the word value of nbits bits, binding
# into env; it returns env on a complete match and None otherwise
_Stage = Callable[[int, int, int, Environment], Optional[Environment]]


def _complete(value: int, nbits: int, pos: int, env: Environment) -> Optional[Environment]:
    return env if pos == nbits else None


def _stage(pieces: list[Format]) -> _Stage:
    """The stage matching the concatenation of pieces.  Each arm of a
    branch is staged followed by the pieces after the branch, so that a
    run of ExactValues continues across the branch's end; k branches in
    sequence stage up to 2^k tails, which is two for the stock formats."""
    if not pieces:
        return _complete
    head = pieces[0]
    if isinstance(head, Empty):
        return _stage(pieces[1:])
    if isinstance(head, ExactValue):
        run = 1
        while run < len(pieces) and isinstance(pieces[run], ExactValue):
            run += 1
        return _stage_values(pieces[:run], _stage(pieces[run:]))
    if isinstance(head, Branch):
        rest = pieces[1:]
        return _stage_branch(head.cond, _stage(_pieces(head.then) + rest),
                             _stage(_pieces(head.els) + rest))
    if isinstance(head, ExactPlain):
        # well formed, so nothing follows it
        return _stage_plain(head.name)
    raise TypeError(f"not a Format: {head!r}")


def _stage_values(run: list[ExactValue], rest: _Stage) -> _Stage:
    """A run of ExactValues: one bounds test and one shift for the run,
    then a shift and mask per header."""
    width = sum(g.htype.total_width for g in run)
    headers, shift = [], width
    for g in run:
        shift -= g.htype.total_width
        headers.append((g.name, g.htype, shift, g.htype.mask))
    headers = tuple(headers)

    def stage(value, nbits, pos, env):
        end = pos + width
        if end > nbits:
            return None
        word = value >> (nbits - end)
        for name, htype, shift, mask in headers:
            # TypedValue.of_word(htype, word >> shift), inlined
            v = _new(_MutableValue)
            v.htype = htype
            v.word = word >> shift & mask
            v.__class__ = TypedValue
            env[name] = v
        return rest(value, nbits, end, env)
    return stage


def _stage_branch(cond: Callable, then: _Stage, els: _Stage) -> _Stage:
    def stage(value, nbits, pos, env):
        return (then if cond(env) else els)(value, nbits, pos, env)
    return stage


def _stage_plain(name: str) -> _Stage:
    def stage(value, nbits, pos, env):
        rem = nbits - pos
        env[name] = _bits(value & ((1 << rem) - 1), rem)
        return env
    return stage


def compile_format(f: Format) -> Callable[[BitString], Optional[Environment]]:
    """A parser returning match_report(., f)'s env on a complete match
    and None otherwise.  It is staged once, here: each Concat chain
    becomes its list of pieces, each maximal run of ExactValues one
    bounds test and one shift, each Branch one call of its condition on
    the bindings so far.  Raises
    IllFormedFormat as check_well_formed does.

    The bindings are an Environment, the interpreter's own type: a dict,
    which is what the stock controls read, whose lookup of a name not
    bound yet raises UnresolvedCondition."""
    check_well_formed(f)
    first = _stage(_pieces(f))

    def parse(p: BitString) -> Optional[Environment]:
        return first(p.value, p.nbits, 0, Environment())
    return parse


def value_bindings(f: Format) -> tuple[str, ...]:
    """Names bound by f's ExactValue pieces in wire order, taking the
    then-arm of every branch before its else-arm."""
    if isinstance(f, ExactValue):
        return (f.name,)
    if isinstance(f, Concat):
        return value_bindings(f.left) + value_bindings(f.right)
    if isinstance(f, Branch):
        return value_bindings(f.then) + value_bindings(f.els)
    return ()

