"""Atomic durable file replacement: temp file + fsync + ``os.replace``.

A plain ``open(path, "w")`` truncates the target before the new bytes are
safely on disk — a crash mid-write destroys the only copy.  This helper is
the one write path shared by provider snapshots (``save_provider``, the
durable store's checkpoints), PMML export, the paged store's catalog base
and the workload repository — every file that is *replaced* (a page file
never is: :mod:`repro.sqlstore.diskmgr`): the new content is written to a
temporary sibling, flushed and fsync'd, and only then swapped in with
``os.replace`` (atomic on POSIX and Windows).  A crash at *any* point
leaves either the complete old file or the complete new file, never a
truncated hybrid.
"""

from __future__ import annotations

import os
import tempfile


def fsync_directory(path: str) -> None:
    """fsync a directory so a rename/create within it is durable.

    Best-effort: some platforms/filesystems refuse to open directories
    (notably Windows), which is fine — ``os.replace`` is still atomic there.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def atomic_write_bytes(path: str, data: bytes, *, faults=None,
                       fault_prefix: str = "atomic") -> None:
    """Atomically replace ``path`` with ``data``, durably.

    ``faults`` (a :class:`~repro.store.faults.FaultInjector`) is consulted at
    ``<fault_prefix>.before_write``, ``.torn_write`` (half the bytes written
    and flushed), ``.before_fsync``, ``.before_replace``, and
    ``.after_replace`` so the crash-safety suites can kill the writer at
    each stage and assert the previous file survives intact.
    """
    def hit(station: str) -> None:
        if faults is not None:
            faults.hit(f"{fault_prefix}.{station}")

    directory = os.path.dirname(os.path.abspath(path))
    hit("before_write")
    fd, temp_path = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=".tmp", dir=directory)
    try:
        with os.fdopen(fd, "wb") as handle:
            if faults is not None:
                # Split the write so a crash can leave the classic torn file.
                half = len(data) // 2
                handle.write(data[:half])
                handle.flush()
                hit("torn_write")
                handle.write(data[half:])
            else:
                handle.write(data)
            handle.flush()
            hit("before_fsync")
            os.fsync(handle.fileno())
        hit("before_replace")
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise
    fsync_directory(directory)
    hit("after_replace")


def atomic_write_text(path: str, text: str, *, faults=None,
                      fault_prefix: str = "atomic",
                      encoding: str = "utf-8") -> None:
    """:func:`atomic_write_bytes` of ``text`` encoded as ``encoding``."""
    atomic_write_bytes(path, text.encode(encoding), faults=faults,
                       fault_prefix=fault_prefix)
