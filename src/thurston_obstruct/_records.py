"""Immutable record classes without the ``dataclasses`` module.

``@record`` turns a class body of annotated fields into a frozen value type,
as ``@dataclass(frozen=True)`` does, and covers only what the package's
records use:

- the fields are the class's own annotations, in declaration order;
- a class attribute of the same name is the field's default, and
  ``field(compare=False, default_factory=...)`` gives a fresh default per
  instance and leaves the field out of ``==`` and ``hash``;
- ``__init__`` takes the fields positionally or by keyword and then calls
  ``__post_init__`` when the class defines one;
- ``==`` holds between instances of the same class with equal tuples of
  compared fields (another class gets ``NotImplemented``), ``hash`` is the
  hash of that tuple, and ``repr`` is ``Name(field=value, ...)``;
- assigning or deleting any attribute raises ``AttributeError``.

Importing ``dataclasses`` also imports ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each of its decorators compiles several functions and
builds a signature. A command-line run pays that on every request, and
``exec``'d source never reaches ``__pycache__``, so each record compiles one
generated ``__init__``, the straight-line code ``dataclasses`` writes for the
class: a record costs no more to build than a dataclass, and the decoders
build one ``PullbackComponent`` per pullback entry of every table they read.
``==``, ``hash`` and ``repr`` are three shared functions reading the class's
``_fields`` and ``_compared`` (the fields in ``==`` and ``hash``).
"""

from __future__ import annotations

_MISSING = object()
_FACTORY = object()  # the __init__ default of a field with a default_factory


class _Field:
    __slots__ = ("compare", "default_factory")

    def __init__(self, compare: bool, default_factory):
        self.compare = compare
        self.default_factory = default_factory


def field(*, compare: bool, default_factory) -> _Field:
    """A field whose default is ``default_factory()``, built per instance."""
    return _Field(compare, default_factory)


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _values(obj, names):
    return tuple([getattr(obj, name) for name in names])


def _eq(self, other):
    if other.__class__ is self.__class__:
        return _values(self, self._compared) == _values(other, self._compared)
    return NotImplemented


def _hash(self):
    return hash(_values(self, self._compared))


def _repr(self):
    shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
    return f"{self.__class__.__qualname__}({shown})"


def record(cls):
    """Give ``cls`` the methods of a frozen record over its annotated fields."""
    namespace = {"_set": object.__setattr__, "_FACTORY": _FACTORY}
    names = list(cls.__dict__.get("__annotations__", {}))
    params, assigns, compared = ["self"], [], []
    for name in names:
        default = cls.__dict__.get(name, _MISSING)
        value, compare = name, True
        if isinstance(default, _Field):
            delattr(cls, name)
            namespace[f"_factory_{name}"] = default.default_factory
            params.append(f"{name}=_FACTORY")
            value = f"_factory_{name}() if {name} is _FACTORY else {name}"
            compare = default.compare
        elif default is not _MISSING:
            namespace[f"_default_{name}"] = default
            params.append(f"{name}=_default_{name}")
        else:
            params.append(name)
        if compare:
            compared.append(name)
        assigns.append(f"  _set(self, {name!r}, {value})")
    if hasattr(cls, "__post_init__"):
        assigns.append("  self.__post_init__()")
    exec("\n".join([f"def __init__({', '.join(params)}):", *(assigns or ["  pass"])]), namespace)
    init = namespace["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__, cls.__eq__, cls.__hash__, cls.__repr__ = init, _eq, _hash, _repr
    cls._fields, cls._compared = tuple(names), tuple(compared)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
