"""Fault injection for the durability layer.

Crash safety cannot be tested by waiting for crashes: the store threads a
:class:`FaultInjector` through its write paths and *asks* it at every named
crash point.  Tests arm the injector to raise :class:`InjectedCrash` (a
simulated process death — the test then abandons the provider object and
recovers from disk) or an :class:`OSError` (a simulated I/O failure the
provider must surface without corrupting the on-disk state).

Station names are ``<prefix>.<stage>``; the complete table — journal,
snapshot, checkpoint, page, catalog, catalog_log, export and atomic
prefixes, and the call that owns each — is in ``docs/internals.md`` §5½ ("Fault stations").

:class:`InjectedCrash` deliberately subclasses ``BaseException`` so no
``except Exception`` recovery path in the provider can swallow a simulated
process death.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional


class InjectedCrash(BaseException):
    """A simulated process death raised at an armed crash point."""


class FaultInjector:
    """Arm named fault points; each armed fault fires exactly once.

    ``arm(point)`` schedules an :class:`InjectedCrash` on the next hit of
    ``point``; ``arm(point, after=k)`` skips the first ``k`` hits (so a test
    can crash on the *n*-th journal append); ``arm(point, exc=OSError(...))``
    raises an injected I/O error instead of a crash.
    """

    def __init__(self):
        self._armed: Dict[str, List] = {}
        self._lock = threading.Lock()
        self.fired: List[str] = []

    def arm(self, point: str, *, after: int = 0,
            exc: Optional[BaseException] = None) -> None:
        with self._lock:
            self._armed[point] = [after, exc]

    def check(self, point: str) -> Optional[BaseException]:
        """Consume an armed fault if it is due; return the exception to raise.

        Returns ``None`` when the point is unarmed or its ``after`` countdown
        has not elapsed (the countdown is decremented per hit).
        """
        with self._lock:
            entry = self._armed.get(point)
            if entry is None:
                return None
            if entry[0] > 0:
                entry[0] -= 1
                return None
            del self._armed[point]
            self.fired.append(point)
            return entry[1] if entry[1] is not None else InjectedCrash(point)

    def hit(self, point: str) -> None:
        """Raise the armed exception for ``point`` if one is due."""
        exc = self.check(point)
        if exc is not None:
            raise exc
