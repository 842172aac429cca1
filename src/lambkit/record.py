"""Records: the part of the standard library's dataclass module that lambkit
uses, under the same names.

Its ``@dataclass`` compiles each class's methods with ``exec`` and imports
``inspect`` (with ``ast``, ``dis`` and ``tokenize``), which costs every
short-lived command tens of milliseconds before it does any work.  Here a
class's fields are read from its own annotations once, and the class gets
shared generic methods, so nothing is compiled and nothing is imported.

What callers see is a dataclass's behaviour:

- ``__init__`` takes the fields positionally or by keyword, fills the
  defaults and ``default_factory`` values, refuses a missing, unexpected or
  repeated argument with a TypeError, and then runs ``__post_init__``;
  ``replace`` builds a new record the same way, so it runs it again;
- ``==`` needs the same class and compares the tuples of field values;
- a ``frozen`` record refuses assignment and deletion with an
  AttributeError and hashes as the tuple of its fields; a plain one is
  unhashable;
- ``repr`` reads ``Name(a=1, b=2)``.

Records do not inherit fields from a base class, and ``astuple`` and
``asdict`` do not recurse into nested records: they return the field values
as they are.
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


def _bind(cls, args: tuple, kwargs: dict) -> dict:
    """Field name to value of a call that is not one value per field."""
    names = cls.__record_names__
    where = f"{cls.__qualname__}.__init__()"
    if len(args) > len(names):
        raise TypeError(f"{where} takes {len(names) + 1} positional arguments "
                        f"but {len(args) + 1} were given")
    values = dict(zip(names, args))
    for name in kwargs:
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
    values.update(kwargs)
    missing = []
    for f in cls.__record_fields__:
        if f.name in values:
            continue
        if f.default is not _MISSING:
            values[f.name] = f.default
        elif f.default_factory is not _MISSING:
            values[f.name] = f.default_factory()
        else:
            missing.append(repr(f.name))
    if missing:
        raise TypeError(f"{where} missing required argument(s): {', '.join(missing)}")
    return values


def _init(self, *args, **kwargs):
    # the fast paths: one value per field, all by position or all by keyword;
    # eq, hash and repr read the fields by name, not in __dict__'s order
    cls = self.__class__
    if kwargs:
        if args or kwargs.keys() != cls.__record_keys__:
            kwargs = _bind(cls, args, kwargs)
        self.__dict__.update(kwargs)
    elif len(args) == len(cls.__record_names__):
        self.__dict__.update(zip(cls.__record_names__, args))
    else:
        self.__dict__.update(_bind(cls, args, kwargs))
    if cls.__record_post_init__:
        self.__post_init__()


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
    found = []
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, Field):
            delattr(cls, name)  # as @dataclass does for a field without a plain default
        else:
            value = Field(value, _MISSING, None)
        value.name, value.type = name, annotation
        found.append(value)
    cls.__record_fields__ = tuple(found)
    cls.__record_names__ = tuple(f.name for f in found)
    cls.__record_keys__ = frozenset(cls.__record_names__)
    cls.__record_post_init__ = hasattr(cls, "__post_init__")
    cls.__init__, cls.__eq__, cls.__repr__ = _init, _eq, _repr
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
