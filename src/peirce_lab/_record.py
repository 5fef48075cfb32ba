"""The one base class of the result records (identities, reports, algebras).

A record lists its attributes in ``__slots__``; the public ones are its
fields, in constructor order, and the private ones (a leading underscore)
hold values derived from them.  Equality, hashing, ``repr`` and pickling
read the fields only.  Records are immutable: ``__init__`` sets the slots
through ``_set`` and assignment raises ``AttributeError``.  This is what
``@dataclass(frozen=True)`` generates, without generating and compiling that
code on every import.
"""

from __future__ import annotations

from operator import attrgetter

_set = object.__setattr__


class _Record:
    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        names = tuple(s for s in cls.__slots__ if not s.startswith("_"))
        cls._field_names = names
        # the tuple of the field values; every record has at least two fields,
        # so attrgetter returns a tuple
        cls._values = property(attrgetter(*names))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values)

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={v!r}" for n, v in zip(self._field_names, self._values))
        return f"{self.__class__.__qualname__}({body})"

    def __reduce__(self):
        # rebuilt through the constructor, which re-derives the private slots
        return self.__class__, self._values

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
