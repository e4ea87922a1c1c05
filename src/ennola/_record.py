"""The base of ennola's immutable value classes.

A record lists its fields in ``_fields``, in constructor order, and keeps
them in ``__slots__``. A plain record takes its fields by position through
``Record.__init__``; a record that validates its input or fills extra slots
writes its own ``__init__`` and sets each field through ``_set``
(``object.__setattr__``), since assignment raises. The records compared and
hashed most often (``OrbitId``, ``CyclicElt``, ``MultiPartition``,
``CharLabel``) also write ``__eq__`` and ``__hash__`` out field by field,
and ``Cyclotomic`` and ``QPoly`` define their own. Plain classes import
nothing and generate no code at import, which a cold command pays for.
"""

from __future__ import annotations

_set = object.__setattr__


class Record:
    """Immutable slotted record. Assigning or deleting an attribute raises
    ``AttributeError``. The constructor takes one value per field, in
    ``_fields`` order. The repr names each field; equality (same class,
    equal fields), the hash and pickling go through the fields in
    ``_fields`` order, and unpickling calls the constructor."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: object) -> None:
        if len(values) != len(self._fields):
            raise TypeError(
                f"{self.__class__.__qualname__} takes {len(self._fields)} fields, got {len(values)}"
            )
        for f, v in zip(self._fields, values):
            _set(self, f, v)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__qualname__}({fields})"
