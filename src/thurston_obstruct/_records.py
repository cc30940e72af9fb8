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
- ``==`` holds between instances of the same class with equal compared
  fields (another class gets ``NotImplemented``), ``hash`` is the hash of
  the tuple of compared fields, and ``repr`` is ``Name(field=value, ...)``;
- assigning or deleting any attribute raises ``AttributeError``.

Importing ``dataclasses`` also imports ``inspect``, ``ast``, ``dis`` and
``tokenize``, and each of its decorators compiles several functions and
builds a signature. A command-line run pays that on every request, so each
record here compiles its four methods from one source string, in one
``exec``. The methods are the straight-line code ``dataclasses`` writes for
the same class, so a record costs no more to build than a dataclass: the
decoders build one ``CurveClass`` per class and one ``PullbackComponent``
per pullback entry of every table they read.
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
    mine = "".join(f"self.{name}," for name in compared)
    theirs = "".join(f"other.{name}," for name in compared)
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in names)
    source = "\n".join([
        f"def __init__({', '.join(params)}):",
        *(assigns or ["  pass"]),
        "def __eq__(self, other):",
        "  if other.__class__ is self.__class__:",
        f"    return ({mine})==({theirs})",
        "  return NotImplemented",
        "def __hash__(self):",
        f"  return hash(({mine}))",
        "def __repr__(self):",
        f"  return self.__class__.__qualname__ + f\"({shown})\"",
    ])
    exec(source, namespace)
    for name in ("__init__", "__eq__", "__hash__", "__repr__"):
        method = namespace[name]
        method.__qualname__ = f"{cls.__qualname__}.{name}"
        setattr(cls, name, method)
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return cls
