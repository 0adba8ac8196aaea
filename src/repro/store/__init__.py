"""Crash-safe provider durability: journal, snapshots, recovery.

The paper motivates OLE DB DM with the model *life cycle* — "how to store,
maintain, and refresh" models inside the database.  This package gives the
provider database-grade durability for that life cycle:

* :mod:`repro.store.atomic` — atomic file replacement (temp file + fsync +
  atomic rename), shared by every durable file the provider writes;
* :mod:`repro.store.journal` — an append-only, checksummed write-ahead
  statement journal with torn-tail detection;
* :mod:`repro.store.durable` — :class:`DurableStore`, which coordinates
  journal appends, periodic atomic snapshots (checkpoints), and recovery;
* :mod:`repro.store.faults` — the fault-injection harness the crash-safety
  test suite uses to kill the provider at every journal offset.

``repro.connect(durable_path=...)`` is the front door: statements are
journaled and fsync'd before they are acknowledged, and reopening the same
path replays snapshot + journal tail so no acknowledged statement is lost.
"""

from repro.store.atomic import atomic_write_text
from repro.store.durable import DurableStore
from repro.store.faults import FaultInjector, InjectedCrash
from repro.store.journal import (
    JournalCorruptError,
    JournalWriter,
    decode_record,
    encode_record,
    read_journal,
)

__all__ = [
    "DurableStore",
    "FaultInjector",
    "InjectedCrash",
    "JournalCorruptError",
    "JournalWriter",
    "atomic_write_text",
    "decode_record",
    "encode_record",
    "read_journal",
]
