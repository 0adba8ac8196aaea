"""Exception hierarchy for the OLE DB DM provider.

Every error raised by the provider derives from :class:`Error`, so callers can
catch one type at the connection boundary.  The subclasses mirror the stages of
command processing: lexing/parsing, name binding, schema validation, training,
prediction, and catalog management.
"""

from __future__ import annotations


class Error(Exception):
    """Base class for all provider errors."""


class ParseError(Error):
    """A command string could not be tokenized or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token when
    available, so shells can point at the error position.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class BindError(Error):
    """A name (table, model, column, function, algorithm) did not resolve."""


class SchemaError(Error):
    """A statement is well-formed but violates schema rules.

    Examples: inserting the wrong number of values, duplicate column names,
    a RELATED TO target that is not in the same (nested) table, or a nested
    table without a KEY column.
    """


class TypeError_(Error):
    """A value is incompatible with the declared column type."""


class TrainError(Error):
    """Model population (INSERT INTO) failed.

    Raised for empty casesets, casesets that do not match the model's column
    structure, or algorithm-specific failures (e.g. a PREDICT column with a
    single constant value where the algorithm needs variation).
    """


class PredictionError(Error):
    """A PREDICTION JOIN or prediction function could not be evaluated."""


class NotTrainedError(PredictionError):
    """The model has been created but not yet populated (or was reset)."""


class CatalogError(Error):
    """Catalog-level failure: duplicate CREATE, DROP of a missing object."""


class CancelledError(Error):
    """The statement was cancelled cooperatively (``CANCEL <id>``).

    Raised from a cancel-token checkpoint — a batch boundary in the engine,
    a pool task collected, or a training iteration in an iterative
    algorithm — so execution unwinds at a consistent point.  The
    statement is recorded in ``DM_QUERY_LOG`` with status ``cancelled`` and,
    being an error at the dispatch layer, is never journaled.
    """


class ProtocolError(Error):
    """A wire-protocol frame could not be read or was malformed.

    Raised by the network layer (:mod:`repro.server`, :mod:`repro.client`)
    for torn frames, oversize length prefixes, undecodable payloads, or
    out-of-sequence messages.  The peer that detects it answers with a
    typed error frame when the stream is still usable and tears the
    connection down when it is not.
    """


class ServerBusyError(Error):
    """The DMX server refused admission (capacity, queue full, or drain).

    Backpressure made typed: clients receive this instead of a hang when
    the session table and the bounded accept queue are both full, or when
    the server is draining for shutdown.
    """


class CapabilityError(Error):
    """The chosen mining service does not support the requested operation.

    The paper (section 2) notes that schema rowsets describe "limitations of
    the provider"; this error is how those limits surface at runtime, e.g.
    asking an association-rules model to predict a continuous attribute.
    """
