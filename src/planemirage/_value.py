"""The base of the package's immutable value types.

A value type lists its fields in __slots__ and stores them once, in its own
__init__, with object.__setattr__. The base compares, hashes and prints
instances field by field, refuses assignment, and copies and pickles them
by their fields. The standard library's class decorator for such records
does the same, but importing it loads inspect and ast, and it compiles code
for every class it decorates, which was about half of the command line's
import time.
"""

from __future__ import annotations


class Value:
    """Immutable record of the fields named in a subclass's __slots__.

    A "__dict__" slot is not a field: it gives room for cached properties.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable value")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable value")

    def __getstate__(self) -> tuple:
        return self._values()

    def __setstate__(self, state: tuple) -> None:
        for name, value in zip(self._fields, state):
            object.__setattr__(self, name, value)
