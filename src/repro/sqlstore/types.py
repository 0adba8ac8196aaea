"""SQL type system for the relational substrate.

The paper's CREATE MINING MODEL examples use OLE DB DM data types (LONG,
DOUBLE, TEXT, plus the special TABLE type for nested tables).  The same types
serve the plain relational tables, so one type system covers both layers.
"""

from __future__ import annotations

import datetime
from typing import Any

from repro.errors import TypeError_


class SqlType:
    """A scalar (or nested-table) SQL data type.

    Instances are singletons (``LONG``, ``DOUBLE``, ...); equality is
    identity.  ``coerce`` converts a Python value to the canonical Python
    representation for the type, raising :class:`TypeError_` on mismatch.
    """

    def __init__(self, name: str, python_types: tuple, aliases: tuple = ()):
        self.name = name
        self.python_types = python_types
        self.aliases = tuple(a.upper() for a in aliases)

    def __repr__(self) -> str:
        return f"SqlType({self.name})"

    def __reduce__(self):
        # Identity IS equality for types, so unpickling must hand back the
        # module-level singleton, not a fresh instance (process-pool workers
        # receive pickled model definitions and coerce with `is` checks).
        return (type_from_name, (self.name,))

    def __str__(self) -> str:
        return self.name

    def coerce(self, value: Any) -> Any:
        """Convert ``value`` to this type's canonical representation.

        ``None`` (SQL NULL) passes through every type unchanged.  Numeric
        widening (int -> float for DOUBLE) and narrowing of integral floats
        (2.0 -> 2 for LONG) are allowed; anything else raises.
        """
        if value is None:
            return None
        if self is LONG:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return within_double(value)
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                try:
                    return within_double(int(value))
                except ValueError as exc:
                    raise TypeError_(f"cannot coerce {value!r} to LONG") from exc
            raise TypeError_(f"cannot coerce {value!r} to LONG")
        if self is DOUBLE:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return float(within_double(value))
            if isinstance(value, str):
                try:
                    return float(value)
                except ValueError as exc:
                    raise TypeError_(f"cannot coerce {value!r} to DOUBLE") from exc
            raise TypeError_(f"cannot coerce {value!r} to DOUBLE")
        if self is TEXT:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float, bool, datetime.date)):
                return str(value)
            raise TypeError_(f"cannot coerce {value!r} to TEXT")
        if self is BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, int) and value in (0, 1):
                return bool(value)
            if isinstance(value, str) and value.upper() in ("TRUE", "FALSE"):
                return value.upper() == "TRUE"
            raise TypeError_(f"cannot coerce {value!r} to BOOLEAN")
        if self is DATE:
            if isinstance(value, datetime.date):
                return value
            if isinstance(value, str):
                try:
                    return datetime.date.fromisoformat(value)
                except ValueError as exc:
                    raise TypeError_(f"cannot coerce {value!r} to DATE") from exc
            raise TypeError_(f"cannot coerce {value!r} to DATE")
        if self is TABLE:
            # Nested-table values are Rowset-like; validated by the shaping
            # layer, not here.
            return value
        raise TypeError_(f"unknown type {self.name}")

    def accepts(self, value: Any) -> bool:
        """Return True if ``value`` coerces cleanly to this type."""
        try:
            self.coerce(value)
        except TypeError_:
            return False
        return True


def within_double(value):
    """``value``, a number a DOUBLE holds: an integer past the DOUBLE range
    is refused (a typed error, as NOT NULL refuses a NULL), since every
    comparison, key and statistic of a LONG column takes its float."""
    try:
        float(value)
    except OverflowError:
        raise TypeError_(f"an integer of {value.bit_length()} bits is past "
                         f"the DOUBLE range") from None
    return value


def as_floats(values: list) -> list:
    """The floats of the numbers ``values``: an integer past the DOUBLE
    range is refused, as :func:`within_double` refuses it."""
    try:
        return list(map(float, values))
    except OverflowError:
        return list(map(within_double, values))


LONG = SqlType("LONG", (int,), aliases=("INT", "INTEGER", "BIGINT"))
DOUBLE = SqlType("DOUBLE", (float,), aliases=("FLOAT", "REAL", "NUMERIC"))
TEXT = SqlType("TEXT", (str,), aliases=("VARCHAR", "CHAR", "STRING", "NVARCHAR"))
BOOLEAN = SqlType("BOOLEAN", (bool,), aliases=("BOOL", "BIT"))
DATE = SqlType("DATE", (datetime.date,), aliases=("DATETIME", "TIMESTAMP"))
TABLE = SqlType("TABLE", (object,))

_ALL_TYPES = (LONG, DOUBLE, TEXT, BOOLEAN, DATE, TABLE)

_BY_NAME = {}
for _t in _ALL_TYPES:
    _BY_NAME[_t.name] = _t
    for _a in _t.aliases:
        _BY_NAME[_a] = _t


def type_from_name(name: str) -> SqlType:
    """Resolve a type keyword (or alias) to its :class:`SqlType` singleton."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError as exc:
        raise TypeError_(f"unknown SQL type {name!r}") from exc


def infer_type(value: Any) -> SqlType:
    """Infer the narrowest SqlType for a Python value (used by VALUES rows)."""
    if isinstance(value, bool):
        return BOOLEAN
    if isinstance(value, int):
        return LONG
    if isinstance(value, float):
        return DOUBLE
    if isinstance(value, datetime.date):
        return DATE
    if isinstance(value, str):
        return TEXT
    return TEXT
