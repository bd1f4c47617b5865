"""Immutable records: the model's frozen dataclasses, cheap to build.

``@record`` makes a class with field annotations a dataclass whose
instances hold their fields in slots and refuse assignment and
deletion with ``FrozenInstanceError``.  ``dataclasses.fields``,
``replace``, ``asdict`` and ``is_dataclass`` see the frozen dataclass it
replaces, with the same ``==``, ``hash`` and ``repr``, and copying and
pickling keep every slot.

What differs is the cost of building one.  A frozen dataclass's
``__init__`` stores each field with ``object.__setattr__``; a record's,
generated once per class, stores through the slot descriptors and then
calls ``__post_init__``.  A class that defines its own ``__init__`` or
``__repr__`` keeps it, and one that lists names in ``__slots__`` keeps
them as slots outside its fields.  And ``==`` tests identity first: most
compares in a check are of a record with itself, whose field tuples,
which compare identical members as equal, need not be built.
"""

from __future__ import annotations

from dataclasses import MISSING, FrozenInstanceError, dataclass, fields


def _repr(self) -> str:
    inner = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
    return f"{type(self).__qualname__}({inner})"


def _setattr(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__slots__)


def _setstate(self, state: tuple) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


def _tuple(obj: str, names) -> str:
    return "(" + "".join(f"{obj}.{n}," for n in names) + ")"


def record(cls: type) -> type:
    """cls as a frozen, slotted dataclass; see the module docstring."""
    doc = cls.__doc__
    # else dataclass writes one from inspect.signature: slow, and with no
    # __init__ of its own yet, empty
    cls.__doc__ = "-"
    cls = dataclass(cls, init=False, repr=False, eq=False)
    flds = fields(cls)
    if any(f.default_factory is not MISSING for f in flds):
        raise TypeError(f"{cls.__name__}: a record field takes no default_factory")
    names = tuple(f.name for f in flds)
    body = dict(cls.__dict__)
    extra = tuple(body.get("__slots__", ()))
    for name in names + extra + ("__dict__", "__weakref__"):
        body.pop(name, None)
    body["__slots__"] = extra + names
    body["__doc__"] = doc
    cls = type(cls)(cls.__name__, cls.__bases__, body)

    ns = {f"_set_{n}": getattr(cls, n).__set__ for n in names}
    params, stores = ["self"], []
    for f in (f for f in flds if f.init):
        if f.default is not MISSING:
            ns[f"_dflt_{f.name}"] = f.default
        params.append(f.name if f.default is MISSING else f"{f.name}=_dflt_{f.name}")
        stores.append(f"_set_{f.name}(self, {f.name})")
    if hasattr(cls, "__post_init__"):
        ns["_post_init"] = cls.__post_init__
        stores.append("_post_init(self)")
    compared = [f.name for f in flds if f.compare]
    hashed = [f.name for f in flds if (f.compare if f.hash is None else f.hash)]
    src = (f"def __init__({', '.join(params)}):\n"
           + "".join(f"    {s}\n" for s in stores or ["pass"])
           + "def __eq__(self, other):\n"
           + "    if other is self:\n"
           + "        return True\n"
           + "    if other.__class__ is self.__class__:\n"
           + f"        return {_tuple('self', compared)} == {_tuple('other', compared)}\n"
           + "    return NotImplemented\n"
           + "def __hash__(self):\n"
           + f"    return hash({_tuple('self', hashed)})\n")
    exec(compile(src, f"<record {cls.__qualname__}>", "exec"), ns)

    for name in ("__init__", "__eq__", "__hash__"):
        ns[name].__qualname__ = f"{cls.__qualname__}.{name}"
    for name, fn in (("__init__", ns["__init__"]), ("__repr__", _repr),
                     ("__eq__", ns["__eq__"]), ("__hash__", ns["__hash__"]),
                     ("__setattr__", _setattr), ("__delattr__", _delattr),
                     ("__getstate__", _getstate), ("__setstate__", _setstate)):
        if name not in ("__init__", "__repr__") or name not in body:  # own ones stay
            setattr(cls, name, fn)
    return cls
