"""The durable store: write-ahead journal + atomic checkpoints + recovery.

One :class:`DurableStore` lives under a directory and owns two files::

    <path>/snapshot.json   last checkpoint (provider snapshot, format 3,
                           carrying the journal high-water mark `last_seq`)
    <path>/journal.dmj     statements acknowledged since that checkpoint

Protocol (the invariants the crash-safety suite enforces):

* **ack ordering** — a mutating statement is applied in memory, then its
  journal record is appended and fsync'd, and only then does the provider
  acknowledge it.  A crash before the fsync loses only unacknowledged work;
  a crash after it is replayed on recovery.  An acknowledged statement is
  therefore never lost.
* **checkpoint** — the snapshot is replaced atomically (temp + fsync +
  atomic rename) *before* the journal is truncated.  A crash between the
  two leaves journal records whose ``seq`` the new snapshot already covers;
  recovery skips them by sequence number, so replay is exactly-once.
* **recovery** — load the snapshot (if any), replay journal records with
  ``seq`` beyond it, skip-and-count a torn trailing record, and truncate
  the tail so the torn bytes can never end up mid-file.  Interior damage
  raises instead of silently replaying a corrupt history.
* **failed appends** — an I/O error while journaling (memory already
  mutated, disk not) flips the store to *broken*: further mutations are
  refused until the path is reopened, so the memory/disk divergence cannot
  widen.  Reads keep working.
* **failed checkpoints** — an I/O error while writing the snapshot or
  truncating the journal flips the store to *broken* too, and the next
  mutation is refused.  A failure before any byte is written — the
  snapshot could not be encoded, e.g. a mining service whose ``state()``
  raises — leaves disk as consistent as it was, so the store stays
  writable and the journal simply keeps growing.  An explicit
  ``checkpoint()`` raises either way; the automatic one a statement
  happens to trigger does not fail that statement, whose journal record
  was fsync'd before the checkpoint began — a client told it failed would
  retry it into a duplicate.  ``store.checkpoint_failures`` counts every
  one.

Everything is observable: ``store.journal_appends``, ``store.checkpoints``,
``store.checkpoint_failures``, ``store.recovered_statements`` and
``store.torn_records_skipped`` counters and a ``store.checkpoint_ms``
histogram land in the provider's metrics registry and surface through
``SELECT * FROM $SYSTEM.DM_PROVIDER_METRICS``; what a checkpoint had to
encode is counted by :func:`repro.core.persistence.dump_provider`.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Dict, Optional

from repro.errors import Error
from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_statement
from repro.store.atomic import atomic_write_text
from repro.store.journal import JournalWriter, read_journal

SNAPSHOT_FILE = "snapshot.json"
JOURNAL_FILE = "journal.dmj"

DEFAULT_CHECKPOINT_INTERVAL = 128


class DurableStore:
    """Journal + snapshot coordinator for one provider directory.

    ``checkpoint_interval`` is the auto-checkpoint policy: after that many
    journaled statements the store snapshots and truncates (0 disables
    auto-checkpointing; ``checkpoint()`` can always be called explicitly).
    ``faults`` threads the fault-injection harness through every write
    path.
    """

    def __init__(self, path: str,
                 checkpoint_interval: int = DEFAULT_CHECKPOINT_INTERVAL,
                 faults=None, metrics=None):
        os.makedirs(path, exist_ok=True)
        self.root = path
        self.snapshot_path = os.path.join(path, SNAPSHOT_FILE)
        self.journal_path = os.path.join(path, JOURNAL_FILE)
        self.checkpoint_interval = max(0, int(checkpoint_interval))
        self.faults = faults
        self.metrics = metrics
        self.broken = False
        self.last_seq = 0
        self._pending = 0
        self._writer: Optional[JournalWriter] = None
        self._lock = threading.Lock()

    # -- metrics -----------------------------------------------------------

    def _count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None and amount:
            self.metrics.fold({f"store.{name}": amount})

    # -- recovery ----------------------------------------------------------

    def recover(self, provider) -> Dict[str, Any]:
        """Rebuild ``provider`` from snapshot + journal tail; open for append.

        Returns a summary dict (``snapshot_seq``, ``replayed``,
        ``torn_records``) the CLI prints on ``--durable`` startup.
        """
        from repro.core.persistence import restore_into

        snapshot_seq = 0
        if os.path.exists(self.snapshot_path):
            with open(self.snapshot_path, encoding="utf-8") as handle:
                snapshot_seq = restore_into(provider, handle.read())
        records, torn, valid_end = read_journal(self.journal_path)
        replayed = 0
        highest = snapshot_seq
        for record in records:
            seq = int(record.get("seq", 0))
            if seq <= snapshot_seq:
                # Already folded into the snapshot: the previous process
                # died between snapshot replace and journal truncation.
                highest = max(highest, seq)
                continue
            self._replay(provider, record)
            replayed += 1
            highest = max(highest, seq)
        self.last_seq = highest
        self._pending = replayed
        self._writer = JournalWriter(self.journal_path,
                                     truncate_at=valid_end,
                                     faults=self.faults)
        self._count("recovered_statements", replayed)
        self._count("torn_records_skipped", torn)
        if self.metrics is not None:
            self.metrics.gauge("store.last_seq").set(self.last_seq)
        return {"snapshot_seq": snapshot_seq, "replayed": replayed,
                "torn_records": torn}

    def _replay(self, provider, record: Dict[str, Any]) -> None:
        """Re-execute one journaled statement against the provider."""
        if record.get("kind") == "IMPORT" and "pmml" in record:
            # IMPORT embeds the document so replay does not depend on the
            # original external file still existing.
            from repro.pmml.reader import read_pmml
            model = read_pmml(record["pmml"])
            if record.get("rename"):
                model.definition.name = record["rename"]
            provider.models[model.name.upper()] = model
            return
        provider.execute_ast(parse_statement(record["stmt"]))

    # -- the write path ----------------------------------------------------

    def ensure_healthy(self) -> None:
        if self.broken:
            raise Error(
                f"the durable store at {self.root!r} failed a journal or "
                f"checkpoint write and is read-only; reopen the path with "
                f"connect(durable_path=...) to recover")
        if self._writer is None:
            raise Error("durable store is not open (recover() not run)")

    def record_statement(self, provider, statement: ast.Statement,
                         command: str) -> None:
        """Journal one acknowledged-about-to-be statement, durably.

        Called by the provider *after* the in-memory mutation succeeded and
        *before* returning to the caller.  Raises (without acknowledging)
        if the record cannot be made durable — and only then: once the
        record is fsync'd the statement is acknowledged whatever becomes of
        the auto-checkpoint it may trigger.
        """
        record: Dict[str, Any] = {
            "seq": self.last_seq + 1,
            "kind": statement_kind_name(statement, provider),
            "stmt": command,
        }
        if isinstance(statement, ast.ImportModelStatement):
            try:
                with open(statement.path, encoding="utf-8") as handle:
                    record["pmml"] = handle.read()
            except OSError:
                pass  # replay falls back to re-reading the path
            record["rename"] = statement.rename_to
        with self._lock:
            self.ensure_healthy()
            try:
                self._writer.append(record)
            except OSError as exc:
                self.broken = True
                raise Error(
                    f"journal append failed ({exc}); the statement executed "
                    f"in memory but is NOT durable — the store is now "
                    f"read-only until reopened") from exc
            self.last_seq += 1
            self._pending += 1
            self._count("journal_appends")
            if self.metrics is not None:
                self.metrics.gauge("store.last_seq").set(self.last_seq)
            due = (self.checkpoint_interval and
                   self._pending >= self.checkpoint_interval)
        if due:
            try:
                self.checkpoint(provider)
            except Error:
                # Counted (and, after a write failure, the store is
                # read-only from here on); the statement itself is
                # durable in the journal.
                pass

    def checkpoint(self, provider) -> None:
        """Snapshot the provider atomically, then truncate the journal.

        The caller holds the provider's writer lock (``Provider.checkpoint``
        takes it; an auto-checkpoint runs inside the statement that holds
        it), so no mutation is between its apply and its journal record.
        """
        from repro.core.persistence import dump_provider

        with self._lock:
            self.ensure_healthy()
            started = time.perf_counter()
            try:
                text = dump_provider(provider, last_seq=self.last_seq)
            except Exception as exc:
                # Nothing is written yet: disk stays consistent and the
                # store writable.
                self._count("checkpoint_failures")
                if isinstance(exc, Error):
                    raise
                raise Error(f"checkpoint failed ({exc!r})") from exc
            try:
                atomic_write_text(self.snapshot_path, text,
                                  faults=self.faults,
                                  fault_prefix="snapshot")
                self._writer.reset()
            except OSError as exc:
                self.broken = True
                self._count("checkpoint_failures")
                raise Error(
                    f"checkpoint failed ({exc}); the store is now "
                    f"read-only until reopened") from exc
            if self.faults is not None:
                self.faults.hit("checkpoint.after_truncate")
            self._pending = 0
            self._count("checkpoints")
            if self.metrics is not None:
                self.metrics.histogram("store.checkpoint_ms").observe(
                    (time.perf_counter() - started) * 1000)

    def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            self._writer = None


#: AST node types whose successful execution mutates provider state: each
#: runs under the provider's writer lock and is committed (journaled, or
#: shadow-paged) before acknowledgement.  SELECT/UNION/TRACE/EXPORT are not
#: provider mutations (EXPORT writes an external file the journal does not
#: own).  Matched by exact type — no statement class subclasses another —
#: so the check every statement makes is one set lookup.
MUTATING_STATEMENTS = frozenset((
    ast.CreateMiningModelStatement,
    ast.InsertModelStatement,
    ast.InsertValuesStatement,
    ast.DeleteModelStatement,
    ast.DeleteStatement,
    ast.DropMiningModelStatement,
    ast.DropTableStatement,
    ast.ImportModelStatement,
    ast.CreateTableStatement,
    ast.CreateViewStatement,
    ast.CreateIndexStatement,
    ast.DropIndexStatement,
    ast.UpdateStatement,
    # Rebuilds no stored rows, but replay must re-run it so a recovered
    # catalog carries the same statistics objects (UPDATE STATISTICS can
    # enable statistics on tables created without them).
    ast.UpdateStatisticsStatement,
))


def statement_kind_name(statement: ast.Statement, provider) -> str:
    """The journal's ``kind`` tag (shared with the query-log classifier)."""
    from repro.core.provider import _statement_kind
    return _statement_kind(statement, provider)
