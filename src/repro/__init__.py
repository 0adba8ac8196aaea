"""OLE DB for Data Mining, reproduced in Python.

A from-scratch implementation of the API proposed in Netz, Chaudhuri,
Fayyad, Bernhardt: *Integrating Data Mining with SQL Databases: OLE DB for
Data Mining* (ICDE 2001): mining models as first-class database objects,
driven by a SQL-flavoured command language (DMX).

Quickstart::

    import repro

    conn = repro.connect()
    conn.execute("CREATE TABLE Customers ([Customer ID] LONG, Gender TEXT, "
                 "Age DOUBLE)")
    conn.execute("INSERT INTO Customers VALUES (1, 'Male', 35.0)")
    conn.execute('''
        CREATE MINING MODEL [Age Prediction] (
            [Customer ID] LONG KEY,
            [Gender] TEXT DISCRETE,
            [Age] DOUBLE DISCRETIZED PREDICT
        ) USING [Decision_Trees_101]
    ''')
    conn.execute("INSERT INTO [Age Prediction] "
                 "SELECT [Customer ID], Gender, Age FROM Customers")
    rows = conn.execute('''
        SELECT t.[Customer ID], [Age Prediction].[Age]
        FROM [Age Prediction] NATURAL PREDICTION JOIN
             (SELECT [Customer ID], Gender FROM Customers) AS t
    ''')

Public surface: :func:`connect`, :class:`Connection`, :class:`Provider`,
:class:`Rowset`, the exception hierarchy in :mod:`repro.errors`, and the
algorithm plug-in API (:class:`MiningAlgorithm`,
:func:`register_algorithm`).
"""

from repro.errors import (
    BindError,
    CapabilityError,
    CatalogError,
    Error,
    NotTrainedError,
    ParseError,
    PredictionError,
    SchemaError,
    TrainError,
)
from repro.sqlstore.rowset import Rowset, RowsetColumn
from repro.sqlstore.engine import Database
from repro.shaping import execute_shape, flatten_rowset
from repro.core.provider import Connection, Provider, connect
from repro.core.model import MiningModel
from repro.core.persistence import (
    dump_provider,
    load_provider,
    open_provider,
    save_provider,
)
from repro.algorithms import (
    MiningAlgorithm,
    register_algorithm,
    algorithm_services,
)
from repro.reporting import render_model

__version__ = "1.0.0"

__all__ = [
    "connect",
    "Connection",
    "Provider",
    "MiningModel",
    "Database",
    "Rowset",
    "RowsetColumn",
    "execute_shape",
    "flatten_rowset",
    "MiningAlgorithm",
    "register_algorithm",
    "algorithm_services",
    "dump_provider",
    "load_provider",
    "save_provider",
    "open_provider",
    "render_model",
    "Error",
    "ParseError",
    "BindError",
    "SchemaError",
    "TrainError",
    "PredictionError",
    "NotTrainedError",
    "CatalogError",
    "CapabilityError",
    "__version__",
]
