"""Attribute data types for relational pervasive environments.

The paper's pseudo-DDL (Tables 1 and 2) uses the types ``STRING``,
``INTEGER``, ``REAL``, ``BOOLEAN``, ``BLOB`` and ``SERVICE``.  ``SERVICE``
is the type of *service reference* attributes: plain data values (strings
here, as in Example 1) that identify services.  We add ``TIMESTAMP`` for
the continuous extension (Section 4), where tuples of XD-Relations may
carry the instant at which they were produced.
"""

from __future__ import annotations

import enum
from typing import Any

from repro.errors import TypingError

__all__ = ["DataType", "EXACT_TYPES", "validate_value", "coerce_value"]


class DataType(enum.Enum):
    """Data types of attributes, as used by the Serena DDL."""

    STRING = "STRING"
    INTEGER = "INTEGER"
    REAL = "REAL"
    BOOLEAN = "BOOLEAN"
    BLOB = "BLOB"
    SERVICE = "SERVICE"
    TIMESTAMP = "TIMESTAMP"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Resolve a DDL type keyword (case-insensitive) to a member."""
        try:
            return cls[name.upper()]
        except KeyError:
            raise TypingError(f"unknown data type {name!r}") from None


_PYTHON_TYPES: dict[DataType, tuple[type, ...]] = {
    DataType.STRING: (str,),
    DataType.INTEGER: (int,),
    DataType.REAL: (float, int),
    DataType.BOOLEAN: (bool,),
    DataType.BLOB: (bytes,),
    DataType.SERVICE: (str,),
    DataType.TIMESTAMP: (int,),
}


#: The one Python type each domain stores its values as.  A value whose
#: ``type()`` is exactly this type is in the domain and :func:`coerce_value`
#: returns it unchanged, so schemas accept it without calling
#: :func:`coerce_value`; every other value (a ``bool`` offered as INTEGER,
#: an ``int`` offered as REAL, a ``str`` subclass, ...) still takes
#: :func:`coerce_value`, which keeps results and errors identical.
EXACT_TYPES: dict[DataType, type] = {
    DataType.STRING: str,
    DataType.INTEGER: int,
    DataType.REAL: float,
    DataType.BOOLEAN: bool,
    DataType.BLOB: bytes,
    DataType.SERVICE: str,
    DataType.TIMESTAMP: int,
}


def validate_value(value: Any, dtype: DataType) -> bool:
    """Return True iff ``value`` belongs to the domain of ``dtype``.

    ``bool`` is excluded from INTEGER/REAL (a Python quirk: ``bool`` is a
    subclass of ``int``), so ``True`` is only a valid BOOLEAN.
    """
    if isinstance(value, bool) and dtype is not DataType.BOOLEAN:
        return False
    return isinstance(value, _PYTHON_TYPES[dtype])


def coerce_value(value: Any, dtype: DataType) -> Any:
    """Coerce ``value`` into the domain of ``dtype`` or raise TypingError.

    The only lossless coercion performed is ``int`` → ``float`` for REAL
    attributes; anything else must already validate.
    """
    if dtype is DataType.REAL and isinstance(value, int) and not isinstance(value, bool):
        return float(value)
    if validate_value(value, dtype):
        return value
    raise TypingError(f"value {value!r} is not a valid {dtype.value}")
