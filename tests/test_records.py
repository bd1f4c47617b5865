"""Every record of the model behaves as the frozen dataclass it replaces.

For each record class in the package, a reference twin is built with
`dataclasses.dataclass(frozen=True)` from the record's fields and its
own methods.  On sample instances taken from real runs, the record and
its twin must agree on `==`, `hash`, `repr`, `dataclasses.replace`,
`fields` and `asdict`, and on what copying, deep copying and pickling
give back; both refuse assignment and deletion, and both run the
class's `__post_init__` checks.  A record equals itself and its copies,
as its twin does, even when a field is NaN or its `__eq__` raises.
"""

import copy
import dataclasses
import dis
import importlib
import pickle
import sys
from pathlib import Path

import pytest

from dataplane import apps, checker, engines, headers, packet_format, pipeline, records, switch
from dataplane.apps import FirewallConfig, firewall_app, identity_app, sampler_app
from dataplane.engines import QacAlwaysReady, Seq
from dataplane.packet_format import BitString
from dataplane.switch import FifoDrainOracle, SwitchQueues, run

from support import arrivals, drain_run, flow_pair, tcp_pkt, udp_pkt

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "dataplane"
MODULES = [importlib.import_module(f"dataplane.{p.stem}")
           for p in sorted(PACKAGE.glob("*.py")) if p.stem != "__init__"]
# the records that keep their own __init__, which takes other arguments
# than the fields, so `replace` is theirs to define
OWN_INIT = (packet_format.TypedValue, engines.McConfig)


def _record_classes() -> list[type]:
    """Every dataclass defined in a module of the package."""
    return sorted({v for m in MODULES for v in vars(m).values()
                   if isinstance(v, type) and v.__module__ == m.__name__
                   and dataclasses.is_dataclass(v)},
                  key=lambda c: (c.__module__, c.__qualname__))


RECORDS = _record_classes()


def _walk(roots) -> dict:
    """class -> up to 8 dataclass instances of that exact class reachable
    from roots through dataclass fields, tuples, lists, dicts, sets and
    queues."""
    found, seen, todo = {}, set(), list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            if len(found.setdefault(type(obj), [])) < 8:
                found[type(obj)].append(obj)
            todo += [getattr(obj, f.name) for f in dataclasses.fields(obj)]
        elif isinstance(obj, (tuple, list, frozenset, set, Seq)):
            todo += list(obj)
        elif isinstance(obj, dict):
            todo += list(obj.items())
    return found


@pytest.fixture(scope="module")
def samples() -> dict:
    sampler = sampler_app(apps.SamplerConfig(sample_every=2))
    fw = firewall_app(FirewallConfig(window=8, keepalive_period=4))
    ident = dataclasses.replace(identity_app(), qac=QacAlwaysReady(frozenset({1, 2})))
    pkts = [tcp_pkt(sp=i) for i in range(4)] + [udp_pkt(sp=9)]
    traces = [drain_run(sampler, pkts), drain_run(ident, pkts)]
    flows = [p for i in range(3) for p in flow_pair(i)]
    traces.append(run(fw, apps.initial_switch_state(fw),
                      SwitchQueues(q_input=arrivals(*flows, port=1)), 40, FifoDrainOracle()))
    roots = [sampler, fw, ident, traces, headers.STANDARD_FORMAT, headers.SAMPLED_FORMAT,
             apps.parse_standard(tcp_pkt()), checker.check_trace(sampler, traces[0]),
             checker.Verdict(False, "ingress.clock", "t went back", 3),
             pipeline.Components(*[apps._in_parser] * 6)]
    return _walk(roots)


def _twin(cls: type) -> type:
    """cls as dataclasses.dataclass(frozen=True) makes it: the same
    fields and the class's own methods, with the stdlib's generated
    __init__, __eq__, __hash__ and frozen __setattr__."""
    generated = {"__init__", "__new__", "__eq__", "__hash__", "__setattr__", "__delattr__",
                 "__getstate__", "__getnewargs__", "__setstate__", "__slots__", "__dict__",
                 "__weakref__", "__dataclass_fields__", "__dataclass_params__",
                 "__match_args__", "__record_mutable__"}
    flds = dataclasses.fields(cls)
    ns = {k: v for k, v in vars(cls).items()
          if k not in generated and k not in cls.__slots__
          and not (k == "__repr__" and v is records._repr)}
    ns["__annotations__"] = {f.name: f.type for f in flds}
    for f in flds:
        ns[f.name] = dataclasses.field(default=f.default, init=f.init, repr=f.repr,
                                       compare=f.compare, hash=f.hash)
    return dataclasses.dataclass(frozen=True)(type(cls.__name__, cls.__bases__, ns))


def _values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def _same(f, *args, **kwargs):
    """f(*args, **kwargs), or the type of the exception it raised."""
    try:
        return f(*args, **kwargs)
    except Exception as e:  # the twin must raise the same
        return type(e)


@pytest.fixture(params=RECORDS, ids=lambda c: f"{c.__module__.split('.')[-1]}.{c.__qualname__}")
def case(request, samples):
    cls = request.param
    assert cls in samples, f"no sample of {cls.__qualname__} reached"
    twin = _twin(cls)

    def twin_of(x):
        return twin(*_values(x))
    return cls, samples[cls], twin, twin_of


def test_every_dataclass_is_a_slotted_record():
    assert len(RECORDS) >= 30
    for cls in RECORDS:
        assert "__slots__" in vars(cls), cls
        assert cls.__setattr__ is records._setattr, cls


def test_no_mutable_twin_escapes(samples):
    """Every record reached from the runs has its record class itself: the
    generated __new__ and the inlined constructors in packet_format build
    a class's mutable twin and then give the instance the record's class.
    samples is keyed by each instance's exact class, so a twin would show."""
    assert set(samples) <= set(RECORDS)


def test_generated_new_stores_each_field_with_one_store_attr():
    """Each generated __new__ stores every field with a plain STORE_ATTR
    on the mutable twin, and calls no slot descriptor's __set__."""
    for cls in RECORDS:
        if cls in OWN_INIT:
            assert "__new__" not in vars(cls), cls
            continue
        fn = cls.__new__
        stores = [i.argval for i in dis.get_instructions(fn) if i.opname == "STORE_ATTR"]
        names = [f.name for f in dataclasses.fields(cls)]
        assert stores == names + ["__class__"], cls
        assert "__set__" not in fn.__code__.co_names, cls
        assert not any(type(v).__name__ == "method-wrapper" for v in fn.__globals__.values()), cls
        mutable = cls.__record_mutable__
        assert mutable.__bases__ == (cls,) and vars(mutable)["__slots__"] == ()


@pytest.mark.skipif(sys.implementation.name != "cpython" or sys.version_info < (3, 11),
                    reason="CPython's specialising interpreter")
def test_generated_new_specialises_to_slot_stores(case):
    """The twin's generic setattr lets each field's STORE_ATTR specialise
    to a direct slot store once __new__ is warm."""
    cls, xs, _, _ = case
    if cls in OWN_INIT:
        return
    for _ in range(64):
        cls(*_values(xs[0]))
    got = [i.opname for i in dis.get_instructions(cls.__new__, adaptive=True)
           if i.opname.startswith("STORE_ATTR")]
    assert got[:-1] == ["STORE_ATTR_SLOT"] * len(dataclasses.fields(cls)), got


def test_fields_agree(case):
    cls, _, twin, _ = case
    def spec(c):
        return [(f.name, f.type, f.default, f.init, f.repr, f.compare, f.hash)
                for f in dataclasses.fields(c)]
    assert spec(cls) == spec(twin)
    assert dataclasses.is_dataclass(cls) and cls.__match_args__ == twin.__match_args__


def test_eq_hash_repr_agree(case):
    cls, xs, _, twin_of = case
    pool = xs + [copy.copy(x) for x in xs]
    for a in pool:
        ta = twin_of(a)
        assert _same(hash, a) == _same(hash, ta)
        assert repr(a) == repr(ta)
        assert (a == object()) is False and (a != object()) is True
        for b in pool:
            tb = twin_of(b)
            assert (a == b) is (ta == tb) and (a != b) is (ta != tb)


def test_a_record_equals_itself_as_its_twin_does(case):
    """== tests identity first; the twin's field tuples compare
    identical members as equal, so the answers agree."""
    cls, xs, _, twin_of = case
    for a in xs:
        ta = twin_of(a)
        assert (a == a) is (ta == ta) is True and (a != a) is (ta != ta) is False
        assert (a == copy.copy(a)) is (ta == copy.copy(ta)) is True


class _Unequal:
    def __eq__(self, other):
        raise AssertionError("compared")

    __hash__ = object.__hash__


@pytest.mark.parametrize("make", [lambda: switch.Arrival(1, float("nan")),
                                  lambda: switch.SwitchState(0, None, (_Unequal(),), ())],
                         ids=["nan", "raising-eq"])
def test_a_record_equals_itself_whatever_its_fields(make):
    a = make()
    ta = _twin(type(a))(*_values(a))
    assert (a == a) is (ta == ta) is True
    assert (a == copy.copy(a)) is (ta == copy.copy(ta)) is True


def test_replace_and_asdict_agree(case):
    cls, xs, _, twin_of = case
    for a in xs:
        assert dataclasses.asdict(a) == dataclasses.asdict(twin_of(a))
        if cls in OWN_INIT:
            continue
        assert _values(dataclasses.replace(a)) == _values(dataclasses.replace(twin_of(a)))
        for b in xs:
            for f in dataclasses.fields(cls):
                change = {f.name: getattr(b, f.name)}
                got = _same(dataclasses.replace, a, **change)
                want = _same(dataclasses.replace, twin_of(a), **change)
                assert (got if isinstance(got, type) else _values(got)) == \
                    (want if isinstance(want, type) else _values(want))


def test_copies_keep_every_slot(case):
    cls, xs, _, twin_of = case
    for a in xs:
        c = copy.copy(a)
        assert type(c) is cls and c == a
        assert all(getattr(c, n) is getattr(a, n) for n in cls.__slots__)
        assert _values(c) == _values(copy.copy(twin_of(a)))
        d = copy.deepcopy(a)
        assert type(d) is cls and d == a and _same(hash, d) == _same(hash, a)
        assert all(getattr(d, n) == getattr(a, n) for n in cls.__slots__)
        assert _values(d) == _values(copy.deepcopy(twin_of(a)))


def test_pickles_exactly_when_its_values_do(case):
    cls, xs, _, _ = case
    for a in xs:
        blob = _same(pickle.dumps, a)
        assert isinstance(blob, bytes) == isinstance(_same(pickle.dumps, _values(a)), bytes)
        if isinstance(blob, bytes):
            back = pickle.loads(blob)
            assert type(back) is cls and back == a
            assert all(getattr(back, n) == getattr(a, n) for n in cls.__slots__)


def test_frozen(case):
    cls, xs, _, twin_of = case
    for a in xs:
        assert not hasattr(a, "__dict__")
        for obj in (a, twin_of(a)):
            for f in dataclasses.fields(cls):
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(obj, f.name, getattr(obj, f.name))
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(obj, f.name)
            with pytest.raises(dataclasses.FrozenInstanceError):
                obj.not_a_field = 1


_TIMING = ("period", "batch_count", "pkts_per_batch", "inter_batch_gap", "inter_pkt_gap")


@pytest.mark.parametrize("make, message", [
    (lambda: BitString(1, 0), ""), (lambda: BitString(0, -1), ""),
    (lambda: FirewallConfig(bits=0), ""),
    (lambda: engines.EgressMeta(512, 0, engines.UNICAST), ""),
    (lambda: apps.SamplerConfig(sample_every=0), "sample_every must be >= 1"),
    (lambda: engines.L1Node(l1_xid=1 << 16), "l1_xid out of 16-bit range: 65536"),
    (lambda: engines.EgressMeta(1, 0, "broadcast"), "bad copy source: 'broadcast'"),
    *((lambda name=name: engines.PktGenConfig(**{name: 0}), f"{name} must be >= 1")
      for name in _TIMING),
    (lambda: engines.PktGenState("busy"), "bad pktgen phase: 'busy'"),
    (lambda: packet_format.HeaderType("h", (("a", 4), ("b", 0))), "h.b: width must be >= 1"),
    (lambda: packet_format.HeaderType("h", (("a", 4), ("a", 2))), "h: duplicate field 'a'"),
], ids=["bits-value", "bits-length", "firewall-bits", "egress-port", "sample-every", "l1-xid",
        "egress-source", *(f"pktgen-{name}" for name in _TIMING), "pktgen-phase",
        "header-width", "header-duplicate"])
def test_post_init_checks_still_fire(make, message):
    with pytest.raises(ValueError) as e:
        make()
    assert message in str(e.value)


def test_record_refuses_a_default_factory():
    class WithFactory:
        xs: list = dataclasses.field(default_factory=list)

    with pytest.raises(TypeError, match="default_factory"):
        records.record(WithFactory)


@pytest.mark.parametrize("default", [[], {}, records.field(default=set(), repr=False)],
                         ids=["list", "dict", "field-spec"])
def test_record_refuses_a_mutable_default(default):
    # as the stdlib's dataclass does, when the class is declared: every
    # instance would share the one object
    class Shared:
        xs: object = default

    with pytest.raises(ValueError, match="Shared.xs: mutable default"):
        records.record(Shared)


def test_generated_methods_are_named_for_their_class():
    @records.record
    class Point:
        x: int
        y: int = 0

    assert Point.__qualname__ == f"{test_generated_methods_are_named_for_their_class.__name__}.<locals>.Point"
    p = Point(1)
    assert p == Point(1, 0) and hash(p) == hash(Point(1, 0))
    for name in ("__new__", "__eq__", "__hash__"):
        method = getattr(Point, name)
        assert method.__name__ == name
        assert method.__qualname__ == f"{Point.__qualname__}.{name}"


def test_record_refuses_a_field_without_default_after_one_with():
    # as the stdlib's dataclass does: __init__'s defaults could not line up
    class Misordered:
        a: int = 0
        b: int

    with pytest.raises(TypeError, match="without a default follows"):
        records.record(Misordered)
