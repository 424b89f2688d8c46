"""Record classes over ``__slots__``: the part of ``dataclasses`` kflag uses.

``dataclasses`` imports ``inspect`` and, through it, ``ast``, ``dis`` and
``tokenize``, a start-up cost every CLI call would pay.  A record names its
fields in ``__slots__``, in constructor order.  As with a dataclass, two
records are equal when they are of the same class and their fields are
equal in order, and the repr lists the fields.  A ``FrozenRecord`` refuses
assignment and hashes its fields; a mutable ``Record`` is unhashable.

``Deferred`` puts a method that lives in another module on a class, so the
module is compiled only when a caller first reads the method.
"""
from collections import deque


class Record:
    """A mutable record: value equality over ``__slots__``, no hash."""

    __slots__ = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values()


class FrozenRecord(Record):
    """A record whose fields are set once, by ``__init__`` or, for many
    records at once, by ``from_columns``.  Both write through the slot
    descriptors' setters, which the refusing ``__setattr__`` does not
    reach and which skip its per-call attribute lookup."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls.__slots__)

    def __init__(self, *values):
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

    @classmethod
    def from_columns(cls, size: int, *columns) -> tuple:
        """``size`` records, the i-th with fields ``columns[j][i]``, built
        field by field: one C-level ``map`` of a slot setter per column, with
        no ``__init__`` call.  A column may be any iterable."""
        records = tuple(map(object.__new__, [cls] * size))
        for set_field, column in zip(cls._setters, columns, strict=True):
            deque(map(set_field, records, column), maxlen=0)
        return records

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())


class Deferred:
    """A method defined as the function of the same name in ``module``.

    The first read, from the class or an instance, imports the module and
    puts the function on the class in this descriptor's place, so a caller
    that never reads the method never compiles its module, and every later
    read is a plain attribute lookup.  Set on a class as
    ``name = Deferred("kflag.module")``; the signature is the function's."""

    __slots__ = ("module", "owner", "name")

    def __init__(self, module: str):
        self.module = module

    def __set_name__(self, owner, name):
        self.owner, self.name = owner, name

    def __get__(self, instance, owner=None):
        # __import__ with a fromlist returns the submodule itself
        fn = getattr(__import__(self.module, fromlist=[self.name]), self.name)
        setattr(self.owner, self.name, fn)
        return fn if instance is None else fn.__get__(instance, owner)
