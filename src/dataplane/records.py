"""Records: the model's value classes, cheap to build and to import.

``@record`` makes a class with field annotations a record.  Each
annotation of the class body is a field, in order, and the constructor
takes each; its value in the body, if any, is its default, or a
``field(...)`` spec for a field that ``repr`` or ``==`` and ``hash``
leave out.  Instances hold their fields in slots and refuse assignment
and deletion with ``dataclasses.FrozenInstanceError``.  A value derived
from the fields goes in a slot of its own (see below).

Generated for each class: a mutable twin, ``__record_mutable__``, a
subclass with no slots of its own and ``object``'s ``__setattr__``, on
which a plain ``self.f = f`` specialises to a slot store; a ``__new__``
that fills the twin, gives it the record's class (their layouts agree)
and calls ``__post_init__``; a ``repr``; an ``==`` that tests identity
first (most compares in a check are of a record with itself, whose field
tuples, which compare identical members as equal, need not be built),
then compares the field tuples of two instances of one class; a
``hash`` of that tuple; ``__match_args__``; and the ``__getnewargs__``,
``__getstate__`` and ``__setstate__`` that copying and pickling use to
keep every slot.  A class that defines its own ``__init__`` gets no
``__new__``, one that defines ``__repr__`` keeps it, and one that lists
names in ``__slots__`` keeps them as slots outside its fields.  The code
of ``__new__``, ``==`` and ``hash`` is compiled once per field count
and renamed for each class.

The package reads fields only through ``fields``, ``replace`` and
``is_record``, and none of its modules imports ``dataclasses``, which
loads ``inspect`` with it.  The stdlib's view of a record, which
``dataclasses.fields``, ``replace``, ``asdict`` and ``is_dataclass``
read, is the ``__dataclass_fields__`` and ``__dataclass_params__`` of a
frozen dataclass with the same fields; it is built the first time
either attribute of the class is read, and only then does
``dataclasses`` load.
"""

from __future__ import annotations

import sys
from types import FunctionType

_MISSING = object()  # a field's default when it has none


class Field:
    """A record field: its name and annotation, its default (_MISSING
    for none), and whether repr shows it and == and hash compare it."""

    __slots__ = ("name", "type", "default", "repr", "compare")

    def __init__(self, name, type, default, repr: bool, compare: bool) -> None:
        self.name, self.type, self.default = name, type, default
        self.repr, self.compare = repr, compare


def field(default=_MISSING, *, repr: bool = True, compare: bool = True) -> Field:
    """The spec of a field with options, as its value in the class body."""
    return Field(None, None, default, repr, compare)


def fields(obj) -> tuple:
    """The Fields of a record class or instance, in order."""
    return obj.__record_fields__


def is_record(obj) -> bool:
    """Whether obj is a record class or instance."""
    return hasattr(obj, "__record_fields__")


def replace(obj, /, **changes):
    """A new record of obj's class: its fields, with changes."""
    for f in fields(obj):
        if f.name not in changes:
            changes[f.name] = getattr(obj, f.name)
    return type(obj)(**changes)


def _repr(self) -> str:
    inner = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in self.__record_fields__ if f.repr)
    return f"{type(self).__qualname__}({inner})"


def _setattr(self, name, value):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    from dataclasses import FrozenInstanceError
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _getstate(self) -> tuple:
    return tuple(getattr(self, name) for name in self.__slots__)


def _getnewargs(self) -> tuple:
    return tuple(getattr(self, f.name) for f in self.__record_fields__)


def _setstate(self, state: tuple) -> None:
    for name, value in zip(self.__slots__, state):
        object.__setattr__(self, name, value)


# (method, field count) -> its code, with fields named _0, _1, ...
_CODE: dict = {}


def _code(kind: str, n: int):
    """The code of a generated method over n fields, compiled once: its
    parameters and the attributes it stores (__new__) or reads (__eq__,
    __hash__) are named _0 .. _{n-1}.  __new__ builds the global
    _mutable, the class's mutable twin, and then gives it class cls."""
    code = _CODE.get((kind, n))
    if code is None:
        args = [f"_{i}" for i in range(n)]
        if kind == "__eq__":
            src = ("def __eq__(self, other):\n"
                   "    if other is self:\n"
                   "        return True\n"
                   "    if other.__class__ is self.__class__:\n"
                   f"        return ({''.join(f'self.{a},' for a in args)}) == "
                   f"({''.join(f'other.{a},' for a in args)})\n"
                   "    return NotImplemented\n")
        elif kind == "__hash__":
            src = f"def __hash__(self):\n    return hash(({''.join(f'self.{a},' for a in args)}))\n"
        else:  # __new__, or __new__ calling __post_init__
            stores = [f"self.{a} = {a}" for a in args] + ["self.__class__ = cls"]
            if kind == "__post_init__":
                stores.append("_post_init(self)")
            src = (f"def __new__({', '.join(['cls'] + args)}):\n    self = _new(_mutable)\n"
                   + "".join(f"    {s}\n" for s in stores) + "    return self\n")
        code = _CODE[kind, n] = compile(src, "<record>", "exec").co_consts[0]
    return code


def _method(kind: str, cls: type, names: tuple, glob: dict, defaults=None):
    """_code(kind, len(names)) as a method of cls over the fields names,
    its globals glob."""
    code = _code(kind, len(names))
    rename = {f"_{i}": name for i, name in enumerate(names)}
    qualname = f"{cls.__qualname__}.{code.co_name}"
    code = code.replace(co_varnames=tuple(rename.get(v, v) for v in code.co_varnames),
                        co_names=tuple(rename.get(v, v) for v in code.co_names),
                        co_filename=f"<record {cls.__qualname__}>")
    fn = FunctionType(code, glob, code.co_name, defaults)
    fn.__qualname__ = qualname
    return fn


class _StdlibView:
    """A record class's __dataclass_fields__ or __dataclass_params__.
    The first read of either builds both, as a dataclass with the same
    fields has them, and puts them on the class in place of this."""

    __slots__ = ("attr",)

    def __init__(self, attr: str) -> None:
        self.attr = attr

    def __get__(self, obj, cls):
        import dataclasses
        flds = cls.__record_fields__
        ns = {"__module__": cls.__module__, "__qualname__": cls.__qualname__,
              # else dataclass writes a docstring from inspect.signature
              "__doc__": cls.__doc__ or "-",
              "__annotations__": {f.name: f.type for f in flds}}
        for f in flds:
            ns[f.name] = dataclasses.field(
                default=dataclasses.MISSING if f.default is _MISSING else f.default,
                repr=f.repr, compare=f.compare)
        shadow = dataclasses.dataclass(type(cls.__name__, (), ns), frozen=True)
        cls.__dataclass_fields__ = shadow.__dataclass_fields__
        cls.__dataclass_params__ = shadow.__dataclass_params__
        return getattr(cls, self.attr)


_VIEW = {name: _StdlibView(name) for name in ("__dataclass_fields__", "__dataclass_params__")}


def _field(cls: type, name: str, annotation, spec) -> Field:
    """The Field that annotation and body value spec declare."""
    if not isinstance(spec, Field):
        # a stdlib Field can only come from a loaded dataclasses
        dc = sys.modules.get("dataclasses")
        if dc is not None and isinstance(spec, dc.Field):
            raise TypeError(f"{cls.__name__}.{name}: a record field is declared with "
                            "records.field, which takes no default_factory")
        spec = field(spec)
    if type(spec.default).__hash__ is None:
        # as the stdlib's dataclass refuses it: every instance would share the one object
        raise ValueError(f"{cls.__name__}.{name}: mutable default "
                         f"{type(spec.default).__name__} is not allowed")
    return Field(name, annotation, spec.default, spec.repr, spec.compare)


def record(cls: type) -> type:
    """cls as a record; see the module docstring."""
    body = dict(cls.__dict__)
    flds = tuple(_field(cls, name, ann, body.pop(name, _MISSING))
                 for name, ann in body.get("__annotations__", {}).items())
    names = tuple(f.name for f in flds)
    defaults = tuple(f.default for f in flds if f.default is not _MISSING)
    if any(f.default is _MISSING for f in flds[len(flds) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    extra = tuple(body.get("__slots__", ()))
    for name in extra + ("__dict__", "__weakref__"):
        body.pop(name, None)

    glob: dict = {"_new": object.__new__}  # __new__'s; _mutable is filled in below
    post = getattr(cls, "__post_init__", None)
    if post is not None:
        glob["_post_init"] = post
    if "__init__" not in body:
        body["__new__"] = _method("__post_init__" if post else "__new__", cls,
                                  names, glob, defaults or None)
    body.setdefault("__repr__", _repr)
    compared = tuple(f.name for f in flds if f.compare)
    body.update(_VIEW, __slots__=extra + names, __record_fields__=flds,
                __qualname__=cls.__qualname__, __match_args__=names,
                __eq__=_method("__eq__", cls, compared, {}),
                __hash__=_method("__hash__", cls, compared, {}),
                __setattr__=_setattr, __delattr__=_delattr,
                __getnewargs__=_getnewargs, __getstate__=_getstate, __setstate__=_setstate)
    cls = type(cls)(cls.__name__, cls.__bases__, body)
    # object's __setattr__ and __delattr__ let STORE_ATTR specialise to a slot store
    cls.__record_mutable__ = glob["_mutable"] = type(cls)(cls.__name__, (cls,), {
        "__slots__": (), "__setattr__": object.__setattr__, "__delattr__": object.__delattr__,
        "__qualname__": f"{cls.__qualname__}.__record_mutable__"})
    return cls
