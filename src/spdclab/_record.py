"""Read-only records: the package's one way to build an immutable value.

Every record in ``spdclab`` that checks its input is a ``__slots__`` class on
``_Record`` whose ``__init__`` does the checks; plain value records are
``NamedTuple``s.  The package imports no ``dataclasses``:
its import of ``inspect`` costs about 12 ms where numpy is not loaded, and
each frozen dataclass costs about 0.7 ms to build, in every fresh process.

Standard library only, and nothing beyond ``math`` and ``numbers``.
"""

from __future__ import annotations

import math
import numbers


def _is_finite_real(x) -> bool:
    # bool is a Real, but JSON true is not a number
    return not isinstance(x, bool) and isinstance(x, numbers.Real) and math.isfinite(x)


class _Record:
    """Read-only record whose subclass lists its fields in ``__slots__``, in
    ``__init__`` order.  Slots named with a leading ``_`` hold derived state
    and take no part in ``==``, ``hash``, ``repr`` or ``_asdict``.  ``__init__``
    checks its arguments and sets the slots with ``_fill``; any later
    assignment raises ``AttributeError``, as on a frozen dataclass."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(f for f in cls.__slots__ if not f.startswith("_"))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def _asdict(self) -> dict:
        """The fields by name, in declaration order."""
        return dict(zip(self._fields, self._values()))

    def _replace(self, **changes):
        """A copy with ``changes`` applied, built through ``__init__``, so every
        check runs again; an unknown field name raises ``TypeError``."""
        return type(self)(**{**self._asdict(), **changes})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):       # copy and pickle rebuild through __init__
        return type(self), self._values()

    def _fill(self, *values) -> None:
        """Set the slots, in ``__slots__`` order."""
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
