"""Records: the part of the standard library's dataclass module that lambkit
uses, under the same names.

Its ``@dataclass`` imports ``inspect`` (with ``ast``, ``dis`` and ``tokenize``)
and compiles each class's methods with ``exec`` as the class is declared,
which costs every short-lived command tens of milliseconds before it does any
work.  Here a class's fields are read from its own annotations once, nothing
is imported, and the class gets shared generic methods but one: its first
instance compiles its ``__init__``, one small ``exec`` per class built.

What callers see is a dataclass's behaviour:

- ``__init__`` takes the fields positionally or by keyword, fills the
  defaults and ``default_factory`` values, refuses a missing, unexpected or
  repeated argument with a TypeError, and then runs ``__post_init__``;
  ``replace`` builds a new record the same way, so it runs it again;
- ``__init__`` stores the fields with one ``self.__dict__.update``, and a
  frozen record's ``__post_init__`` may store a checked value through it too;
- ``==`` needs the same class and compares the tuples of field values;
- a ``frozen`` record refuses assignment and deletion with an
  AttributeError and hashes as the tuple of its fields; a plain one is
  unhashable;
- ``repr`` reads ``Name(a=1, b=2)``.

As with a dataclass, a field without a default may not follow one with a
default.  Records do not inherit fields from a base class, and ``astuple``
and ``asdict`` do not recurse into nested records: they return the field
values as they are.
"""

__all__ = ["dataclass", "field", "fields", "astuple", "asdict", "replace"]

_MISSING = object()
_MAPPING_PROXY = type(type.__dict__)  # types.MappingProxyType, without importing types
_NO_METADATA = _MAPPING_PROXY({})


class Field:
    """One field of a record: its name, annotation, default and metadata."""

    __slots__ = ("name", "type", "default", "default_factory", "metadata")

    def __init__(self, default, default_factory, metadata):
        self.name = self.type = None
        self.default = default
        self.default_factory = default_factory
        self.metadata = _NO_METADATA if metadata is None else _MAPPING_PROXY(metadata)


def field(*, default_factory=_MISSING, metadata=None) -> Field:
    """A field with a per-instance default from ``default_factory()``, or a
    required field that carries ``metadata`` (read back through ``fields``)."""
    return Field(_MISSING, default_factory, metadata)


def fields(record) -> tuple:
    """The Field objects of a record class or instance, in declaration order."""
    return record.__record_fields__


def astuple(record) -> tuple:
    """The field values of ``record``, in declaration order."""
    return tuple([getattr(record, name) for name in record.__record_names__])


def asdict(record) -> dict:
    """Field name to value of ``record``, in declaration order."""
    return {name: getattr(record, name) for name in record.__record_names__}


def replace(record, /, **changes):
    """A new record of the same class with ``changes`` applied; its
    ``__init__`` runs, so ``__post_init__`` checks the new values."""
    return record.__class__(**{**asdict(record), **changes})


def _compile_init(cls, defaults: tuple):
    """Compile cls.__init__ from its fields, so that Python's own argument
    binding takes positional, keyword and default values and raises its own TypeErrors."""
    scope = {"_record_missing": _MISSING}
    names, body = [f.name for f in cls.__record_fields__], []
    for f in cls.__record_fields__:
        if f.default_factory is not _MISSING:
            scope[f"_record_factory_{f.name}"] = f.default_factory
            body.append(f"if {f.name} is _record_missing: {f.name} = _record_factory_{f.name}()")
    # one update: object.__setattr__ is a call per field, and storing one key at
    # a time leaves a dict whose attribute reads are about four times slower
    body.append(f"self.__dict__.update({', '.join(f'{name}={name}' for name in names)})")
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    exec(f"def __init__({', '.join(['self', *names])}):\n    " + "\n    ".join(body), scope)
    init = cls.__init__ = scope["__init__"]
    init.__defaults__, init.__qualname__ = defaults, f"{cls.__qualname__}.__init__"


def _eq(self, other):
    if other.__class__ is not self.__class__:
        return NotImplemented
    return astuple(self) == astuple(other)


def _hash(self):
    return hash(astuple(self))


def _repr(self):
    shown = ", ".join(f"{name}={value!r}" for name, value in asdict(self).items())
    return f"{self.__class__.__qualname__}({shown})"


def _frozen_setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _make_record(cls, frozen: bool):
    found, defaults = [], []  # __init__'s __defaults__; _MISSING stands for a default_factory
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            delattr(cls, name)  # as @dataclass does for a field without a plain default
        else:
            value = Field(value, _MISSING, None)
        value.name, value.type = name, annotation
        if value.default is not _MISSING or value.default_factory is not _MISSING:
            defaults.append(value.default)
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        found.append(value)
    cls.__record_fields__ = tuple(found)
    cls.__record_names__ = tuple(f.name for f in found)

    def __init__(self, *args, **kwargs):  # the first instance compiles the real one
        _compile_init(cls, tuple(defaults))
        cls.__init__(self, *args, **kwargs)

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, _eq, _repr
    if frozen:
        cls.__hash__, cls.__setattr__, cls.__delattr__ = _hash, _frozen_setattr, _frozen_delattr
    else:
        cls.__hash__ = None
    return cls


def dataclass(cls=None, /, *, frozen: bool = False):
    """Make ``cls`` a record: ``@dataclass`` or ``@dataclass(frozen=True)``."""
    if cls is None:
        return lambda cls: _make_record(cls, frozen)
    return _make_record(cls, frozen)
