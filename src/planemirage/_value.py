"""The base of the package's immutable value types, and the checks they share.

A value type lists its fields in __slots__. Its own __init__, if it needs
one, checks and converts its arguments and passes one value per field, in
__slots__ order, to Value.__init__, the only code that writes a field. The
base compares, hashes and prints instances field by field, refuses
assignment, and copies and pickles them by their fields. The standard
library's class decorator for such records does the same, but importing it
loads inspect and ast, and it compiles code for every class it decorates,
which was about half of the command line's import time. _require_finite and
_positive are the finite and positive checks the types and their functions
share, each with its one message, and _modulus the |z| that cannot raise.
"""

from __future__ import annotations

import cmath
import math

from .errors import ValidationError


def _require_finite(name: str, z: complex) -> complex:
    """z, if it is finite; ValidationError otherwise."""
    if not cmath.isfinite(z):
        raise ValidationError(f"{name} must be finite, got {z!r}")
    return z


def _positive(name: str, x) -> float:
    """float(x), if it is finite and > 0; ValidationError otherwise."""
    x = float(x)
    if not (math.isfinite(x) and x > 0.0):
        raise ValidationError(f"{name} must be positive, got {x!r}")
    return x


def _modulus(z: complex) -> float:
    """abs(z), or inf where a finite z's modulus is past the float range,
    where abs raises OverflowError."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


class Value:
    """Immutable record of the fields named in a subclass's __slots__.

    A "__dict__" slot is not a field: it gives room for cached properties.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _writers: tuple = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # each slot's own descriptor stores its field past the refusing __setattr__
        cls._writers = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def __init__(self, *values) -> None:
        """Store one value per field, in __slots__ order."""
        if len(values) != len(self._writers):
            raise TypeError(f"{self.__class__.__qualname__}() takes {len(self._writers)} values")
        for write, value in zip(self._writers, values):
            write(self, value)

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
        Value.__init__(self, *state)
