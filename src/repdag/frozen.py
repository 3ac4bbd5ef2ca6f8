"""Immutable value classes, written out: ``dataclasses`` would generate each
class's methods from source text, at every import of the package."""

from __future__ import annotations

from typing import Any

_set = object.__setattr__


class Frozen:
    """Base of an immutable value class whose fields are its ``__slots__``.

    ``__init__`` sets every field once, through :meth:`_assign` or the slots'
    own setters; assigning or deleting one afterwards raises
    ``AttributeError``. Instances compare, hash, print and pickle by their
    fields.
    """

    __slots__ = ()

    def _assign(self, *values: Any) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            _set(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, *_value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    __delattr__ = __setattr__

    # Pickled as its fields; unpickling sets them without calling __init__.
    def __getstate__(self) -> tuple[Any, ...]:
        return self._values()

    def __setstate__(self, fields: tuple[Any, ...]) -> None:
        self._assign(*fields)

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self.__slots__)})"
