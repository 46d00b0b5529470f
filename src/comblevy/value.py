"""Immutable value classes that generate no code when a module is imported.

A subclass names its fields once, as class annotations in order
(``ClassVar`` annotations are not fields).  A field with a class-level
default may be left out at construction; a default that is a class, such as
``dict``, is called for a fresh value per instance.  ``Value`` gives
positional and keyword construction, a ``__post_init__`` hook for checks,
equality only between instances of one class, a hash of the field values,
a ``Name(field=value, ...)`` repr, and refuses assignment and deletion.
Hot classes define their own ``__init__``, ``__eq__`` and ``__hash__``.
"""

from __future__ import annotations

__all__ = ["Value"]


class Value:
    """Base of the package's immutable values; see the module docstring."""

    _fields: tuple[str, ...] = ()
    _defaults: dict = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields += tuple(name for name, kind in own.items() if "ClassVar" not in str(kind))
        cls._defaults = {name: getattr(cls, name) for name in cls._fields if hasattr(cls, name)}

    def __init__(self, *args, **kwargs) -> None:
        name = type(self).__qualname__
        if len(args) > len(self._fields):
            raise TypeError(f"{name}() takes {len(self._fields)} arguments, got {len(args)}")
        values = dict(zip(self._fields, args))
        for field in self._fields[len(args):]:
            if field in kwargs:
                values[field] = kwargs.pop(field)
            elif field in self._defaults:
                default = self._defaults[field]
                values[field] = default() if isinstance(default, type) else default
            else:
                raise TypeError(f"{name}() missing argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got unexpected arguments {sorted(kwargs)}")
        for field, value in values.items():
            object.__setattr__(self, field, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{field}={getattr(self, field)!r}" for field in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
