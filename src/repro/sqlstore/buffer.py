"""LRU buffer pool: the bounded set of resident pages.

The pool is the only path between the executor and page bytes: every page
fetch lands here first (``buffer.hits``), falls through to the disk manager
on a miss (``buffer.misses``), and makes room by evicting the
least-recently-used *unpinned* page (``buffer.evictions``), flushing it
first when dirty (``buffer.flushes``).  Pinned pages are never evicted;
when every resident page is pinned the pool temporarily exceeds its budget
(``buffer.pin_overflow``) rather than deadlocking a scan against itself.

All operations hold one re-entrant lock, so concurrent wire sessions can
scan while a writer appends: readers always receive a fully loaded page
object (never a partially decoded one), and a page evicted mid-read stays
alive for the reader holding it — eviction only drops the pool's
reference after the dirty bytes are safely on disk.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Optional

from repro.obs import trace as obs_trace
from repro.sqlstore.pages import Page

DEFAULT_BUFFER_PAGES = 64


class BufferPool:
    """Budgeted LRU cache of :class:`~repro.sqlstore.pages.Page` objects.

    Keys are opaque page-handle uids (stable across table rewrites);
    ``flusher(page)`` is called to persist a dirty page before its eviction.
    """

    def __init__(self, budget_pages: int = DEFAULT_BUFFER_PAGES,
                 flusher: Optional[Callable[[Page], None]] = None,
                 metrics=None):
        self.budget = max(1, int(budget_pages))
        self.flusher = flusher
        self._pages: "OrderedDict[int, Page]" = OrderedDict()
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.flushes = 0
        self.pin_overflow = 0
        # Resolved once: the registry lookup is not paid on every fetch.
        self._counters = None if metrics is None else {
            name: metrics.counter(f"buffer.{name}")
            for name in ("hits", "misses", "evictions", "flushes",
                         "pin_overflow")}
        self._occupancy = None if metrics is None \
            else metrics.gauge("buffer.pages_resident")

    # -- metrics --------------------------------------------------------------

    def _count(self, name: str) -> None:
        if self._counters is not None:
            self._counters[name].inc()

    def _note_occupancy(self) -> None:
        if self._occupancy is not None:
            self._occupancy.set(len(self._pages))

    # -- core operations ------------------------------------------------------

    def get(self, uid: int, loader: Callable[[], Page],
            pin: bool = False) -> Page:
        """Fetch the page for ``uid``, loading (and admitting) on a miss.

        ``pin=True`` pins the page in the same critical section, so a
        concurrent admission can never evict it between fetch and pin.
        """
        with self._lock:
            page = self._pages.get(uid)
            if page is not None:
                self._pages.move_to_end(uid)
                self.hits += 1
                self._count("hits")
            else:
                self.misses += 1
                self._count("misses")
                # Per-statement attribution: the miss is a real page read,
                # rolled up into DM_STATEMENT_STATS buffer_reads.
                obs_trace.add("buffer_reads", 1)
                page = loader()
                if pin:
                    # Pin before admission: with a tiny budget the admitted
                    # page itself must not be the eviction victim.
                    page.pins += 1
                self._admit(uid, page)
                if pin:
                    return page
            if pin:
                page.pins += 1
            return page

    def put(self, uid: int, page: Page) -> Page:
        """Admit a freshly created page (INSERT growing the table)."""
        with self._lock:
            self._admit(uid, page)
            return page

    def _admit(self, uid: int, page: Page) -> None:
        self._pages[uid] = page
        self._pages.move_to_end(uid)
        self._evict_to_budget()
        self._note_occupancy()

    def _evict_to_budget(self) -> None:
        while len(self._pages) > self.budget:
            victim_uid = None
            for candidate_uid, candidate in self._pages.items():
                if candidate.pins == 0:
                    victim_uid = candidate_uid
                    break
            if victim_uid is None:
                # Everything resident is pinned: allow the overflow rather
                # than deadlock; the next unpin brings us back to budget.
                self.pin_overflow += 1
                self._count("pin_overflow")
                return
            victim = self._pages.pop(victim_uid)
            if victim.dirty:
                self._flush(victim)
            self.evictions += 1
            self._count("evictions")

    def _flush(self, page: Page) -> None:
        if self.flusher is not None:
            self.flusher(page)
        page.dirty = False
        self.flushes += 1
        self._count("flushes")

    # -- pinning --------------------------------------------------------------

    def pin(self, page: Page) -> None:
        with self._lock:
            page.pins += 1

    def unpin(self, page: Page) -> None:
        with self._lock:
            if page.pins > 0:
                page.pins -= 1
            if len(self._pages) > self.budget:
                # A pin overflow ends at the unpin that makes a victim.
                self._evict_to_budget()
                self._note_occupancy()

    # -- maintenance ----------------------------------------------------------

    def flush_dirty(self) -> int:
        """Persist every dirty resident page (commit path); pages stay
        resident.  Returns the number of pages flushed."""
        flushed = 0
        with self._lock:
            for page in list(self._pages.values()):
                if page.dirty:
                    self._flush(page)
                    flushed += 1
        return flushed

    def discard(self, uid: int) -> None:
        """Drop a page without flushing (table dropped / rewritten)."""
        with self._lock:
            self._pages.pop(uid, None)
            self._note_occupancy()

    def resident(self):
        """Snapshot of resident (uid, page) pairs, LRU-first."""
        with self._lock:
            return list(self._pages.items())

    def resident_count(self, uids) -> int:
        """How many of these (distinct) page uids are resident right now."""
        with self._lock:
            return len(self._pages.keys() & uids)

    def __len__(self) -> int:
        with self._lock:
            return len(self._pages)

    @property
    def lock(self) -> threading.RLock:
        return self._lock
