"""The DMX network server: multi-session statement serving over TCP.

:class:`DmxServer` wraps one :class:`~repro.core.provider.Provider` and
serves it to concurrent clients over the frame protocol of
:mod:`repro.server.protocol`.  The design is deliberately boring:

* **Thread per session.**  Each admitted connection gets its own thread,
  and statements execute *on that thread* through the ordinary embedded
  ``Provider.execute`` / ``execute_stream`` paths.  All of the provider's
  thread-local machinery — the active statement record, cancel-token
  checkpoints, the session DOP cap — therefore works over the wire
  exactly as it does embedded, which is what lets the wire-vs-embedded
  differential grid demand byte-identical results.

* **Handshake-first admission.**  A connection's first frame decides what
  it is: ``hello`` starts a session, ``cancel`` is a short-lived control
  connection (see below).  Session admission is gated by ``max_sessions``
  with a bounded wait queue of ``queue_limit`` handshaked connections;
  beyond that the server answers a typed :class:`ServerBusyError` frame
  instead of letting clients hang — backpressure you can catch.

* **Out-of-band CANCEL.**  While a session's socket is busy carrying a
  statement, the client cannot ask *that* socket to cancel it.  Following
  the Postgres convention, ``Connection.cancel`` opens a second, throwaway
  connection authenticated by the session id plus a per-session secret
  issued at hello time.  The cancel is scoped: a session may only cancel
  its own statements (:meth:`WorkloadRegistry.cancel` enforces ownership).

* **Statement gate.**  Every wire statement runs inside a gate that
  counts it in flight, so :meth:`close` can drain: it waits for running
  statements to finish, then tears sessions down.  Writers are ordered
  by the provider's writer lock, not here.
"""

from __future__ import annotations

import contextlib
import secrets
import socket
import threading
import time
from collections import deque
from typing import List, Optional

from repro.errors import Error, ProtocolError, ServerBusyError
from repro.exec.pool import set_session_dop_cap
from repro.obs import workload as obs_workload
from repro.server import protocol
from repro.sqlstore.rowset import Rowset

#: How long a freshly accepted connection may dawdle before its first
#: frame; afterwards sessions may idle indefinitely.
HANDSHAKE_TIMEOUT = 10.0

#: How long close() waits for in-flight statements before cancelling them.
DRAIN_TIMEOUT = 5.0

DEFAULT_MAX_SESSIONS = 16
DEFAULT_QUEUE_LIMIT = 8


class _StatementGate:
    """Counts in-flight wire statements, so a close can wait them out."""

    def __init__(self):
        self._cond = threading.Condition()
        self.in_flight = 0

    @contextlib.contextmanager
    def admit(self):
        with self._cond:
            self.in_flight += 1
        try:
            yield
        finally:
            with self._cond:
                self.in_flight -= 1
                self._cond.notify_all()

    def wait_idle(self, timeout: float) -> bool:
        """Wait up to ``timeout`` seconds for zero in-flight statements."""
        deadline = time.monotonic() + timeout
        with self._cond:
            while self.in_flight:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._cond.wait(remaining)
        return True


class Session:
    """Book-keeping for one wire session (a row of ``DM_SESSIONS``)."""

    __slots__ = ("session_id", "secret", "remote", "state", "connected_at",
                 "statements", "rows_sent", "bytes_in", "bytes_out",
                 "batch_size", "max_dop", "last_statement", "sock", "thread")

    def __init__(self, session_id: int, sock, remote: str,
                 batch_size: Optional[int], max_dop: Optional[int]):
        self.session_id = session_id
        self.secret = secrets.token_hex(16)
        self.remote = remote
        self.state = "active"
        self.connected_at = time.time()
        self.statements = 0
        self.rows_sent = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.batch_size = batch_size
        self.max_dop = max_dop
        self.last_statement = None
        self.sock = sock
        self.thread = None


def _condense(text: str, limit: int = 120) -> str:
    text = " ".join((text or "").split())
    return text if len(text) <= limit else text[:limit - 3] + "..."


class DmxServer:
    """Serve one provider's DMX surface to concurrent network sessions.

    ``port=0`` binds an ephemeral port — read the real one back from
    ``server.port`` (and it is reported in the ``serving`` log line of
    ``dmxsh --serve``).  ``checkpoint_on_close`` snapshots an attached
    durable store after the drain, so a served provider shuts down with
    an empty journal.
    """

    def __init__(self, provider, host: str = "127.0.0.1", port: int = 0,
                 max_sessions: int = DEFAULT_MAX_SESSIONS,
                 queue_limit: int = DEFAULT_QUEUE_LIMIT,
                 checkpoint_on_close: bool = False):
        self.provider = provider
        self.host = host
        self.max_sessions = max(1, int(max_sessions))
        self.queue_limit = max(0, int(queue_limit))
        self.checkpoint_on_close = bool(checkpoint_on_close)
        self.closed = False
        self.gate = _StatementGate()
        self.metrics = provider.metrics
        # The per-frame counters, resolved once.
        self._bytes_in = self.metrics.counter("server.bytes_in")
        self._bytes_out = self.metrics.counter("server.bytes_out")
        self._statements = self.metrics.counter("server.statements")
        # Unexpected (non-Error) exceptions from connection threads land
        # here; the fuzz suite asserts this stays empty — a malformed
        # client must never crash a server thread.
        self.thread_errors: List[BaseException] = []
        self._lock = threading.Condition()
        self._sessions: dict = {}          # session_id -> Session
        self._closed_sessions: deque = deque(maxlen=64)
        self._waiting = 0                  # handshaked hellos queued for a slot
        self._next_session_id = 1
        self._conn_threads: List[threading.Thread] = []

        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(self.max_sessions + self.queue_limit)
        self.port = self._listener.getsockname()[1]

        self.metrics.gauge("server.sessions_active").set(0)
        self.metrics.gauge("server.queue_depth").set(0)
        provider.dmx_server = self
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="dmx-accept", daemon=True)
        self._accept_thread.start()

    # -- introspection --------------------------------------------------------

    def sessions(self) -> List[Session]:
        """Active sessions plus the recently-closed ring (DM_SESSIONS)."""
        with self._lock:
            active = sorted(self._sessions.values(),
                            key=lambda s: s.session_id)
            return active + list(self._closed_sessions)

    # -- accept / admission ---------------------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, addr = self._listener.accept()
            except OSError:
                return  # listener closed by close()
            if self.closed:
                self._reject(sock, ServerBusyError(
                    "server is shutting down"))
                continue
            thread = threading.Thread(
                target=self._serve_connection, args=(sock, addr),
                name="dmx-conn", daemon=True)
            with self._lock:
                self._conn_threads.append(thread)
                self._conn_threads = [
                    t for t in self._conn_threads if t.is_alive()]
            thread.start()

    def _reject(self, sock, exc: Error) -> None:
        self.metrics.counter("server.rejections").inc()
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            protocol.send_frame(sock, {"error": protocol.error_to_wire(exc)})
        except OSError:
            pass
        finally:
            _close_socket(sock)

    def _admit(self, sock, remote: str, hello: dict) -> Optional[Session]:
        """Apply the admission policy to a handshaked hello.

        Returns the new :class:`Session`, or None after sending a typed
        rejection.  Blocks (bounded by ``queue_limit``) while all session
        slots are busy — the queued client simply sees a slow welcome.
        """
        batch_size = hello.get("batch_size")
        max_dop = hello.get("max_dop")
        session = None
        rejection = None
        with self._lock:
            while True:
                if self.closed:
                    rejection = ServerBusyError("server is shutting down")
                    break
                if len(self._sessions) < self.max_sessions:
                    session = Session(self._next_session_id, sock, remote,
                                      batch_size, max_dop)
                    self._next_session_id += 1
                    self._sessions[session.session_id] = session
                    session.thread = threading.current_thread()
                    self.metrics.counter("server.sessions_total").inc()
                    self.metrics.gauge("server.sessions_active").set(
                        len(self._sessions))
                    break
                if self._waiting >= self.queue_limit:
                    rejection = ServerBusyError(
                        f"server at capacity: {len(self._sessions)} "
                        f"sessions active and {self._waiting} queued "
                        f"(max_sessions={self.max_sessions}, "
                        f"queue_limit={self.queue_limit})")
                    break
                self._waiting += 1
                self.metrics.gauge("server.queue_depth").set(self._waiting)
                try:
                    self._lock.wait()
                finally:
                    self._waiting -= 1
                    self.metrics.gauge("server.queue_depth").set(
                        self._waiting)
        if rejection is not None:
            self._reject(sock, rejection)
            return None
        return session

    def _retire(self, session: Session) -> None:
        with self._lock:
            self._sessions.pop(session.session_id, None)
            session.state = "closed"
            session.sock = None
            session.thread = None
            self._closed_sessions.append(session)
            self.metrics.gauge("server.sessions_active").set(
                len(self._sessions))
            self._lock.notify_all()  # wake queued hellos and close()

    # -- connection handling --------------------------------------------------

    def _serve_connection(self, sock, addr) -> None:
        remote = f"{addr[0]}:{addr[1]}"
        session = None
        try:
            sock.settimeout(HANDSHAKE_TIMEOUT)
            try:
                hello, nbytes = protocol.recv_frame(sock)
            except (ProtocolError, OSError):
                _close_socket(sock)
                return
            if hello is None:  # connected and left without a word
                _close_socket(sock)
                return
            self._bytes_in.inc(nbytes)
            op = hello.get("op")
            if op == "cancel":
                self._handle_cancel(sock, hello)
                return
            if op != "hello":
                self._reject_protocol(sock, ProtocolError(
                    f"expected a hello or cancel frame, got op={op!r}"))
                return
            version = hello.get("protocol")
            if version != protocol.PROTOCOL_VERSION:
                self._reject_protocol(sock, ProtocolError(
                    f"protocol version mismatch: client speaks {version!r}, "
                    f"server speaks {protocol.PROTOCOL_VERSION}"))
                return
            session = self._admit(sock, remote, hello)
            if session is None:
                return
            session.bytes_in += nbytes
            sock.settimeout(None)  # sessions may idle; close() unblocks us
            self._send(session, {
                "ok": True,
                "session": session.session_id,
                "secret": session.secret,
                "protocol": protocol.PROTOCOL_VERSION,
                "batch_size": session.batch_size,
                "max_dop": session.max_dop,
            })
            self._session_loop(session)
        except (ProtocolError, OSError):
            pass  # torn peer or racing teardown: nothing left to tell it
        except Exception as exc:  # noqa: BLE001 - the fuzz invariant
            self.thread_errors.append(exc)
        finally:
            if session is not None:
                self._retire(session)
            _close_socket(sock)

    def _reject_protocol(self, sock, exc: ProtocolError) -> None:
        try:
            protocol.send_frame(sock, {"error": protocol.error_to_wire(exc)})
        except OSError:
            pass
        finally:
            _close_socket(sock)

    def _handle_cancel(self, sock, frame: dict) -> None:
        """A control connection: cancel one statement of one session."""
        try:
            session_id = frame.get("session")
            with self._lock:
                session = self._sessions.get(session_id)
            if session is None or frame.get("secret") != session.secret:
                raise Error(f"no session {session_id!r} with that secret")
            target = self.provider.workload.cancel(
                int(frame.get("statement", 0)), session=session.session_id)
            reply = {"ok": True,
                     "message": f"cancel requested for statement "
                                f"{target.statement_id} ({target.kind}, "
                                f"phase {target.phase})"}
        except Error as exc:
            reply = {"error": protocol.error_to_wire(exc)}
        try:
            protocol.send_frame(sock, reply)
        except OSError:
            pass
        finally:
            _close_socket(sock)

    # -- the session loop -----------------------------------------------------

    def _send(self, session: Session, message: dict) -> None:
        nbytes = protocol.send_frame(session.sock, message)
        session.bytes_out += nbytes
        self._bytes_out.inc(nbytes)

    def _session_loop(self, session: Session) -> None:
        """Bind the session's thread-locals and serve frames until EOF.

        Statements execute on this thread, so the provider's statement
        records, workload registry, and pool all see the session exactly
        as they would an embedded caller thread.
        """
        obs_workload.set_session(session.session_id)
        set_session_dop_cap(session.max_dop)
        try:
            while True:
                try:
                    frame, nbytes = protocol.recv_frame(session.sock)
                except ProtocolError as exc:
                    # The stream cannot resynchronise after a framing
                    # error: answer (best effort) and tear down.
                    with contextlib.suppress(OSError, ProtocolError):
                        self._send(session, {
                            "error": protocol.error_to_wire(exc)})
                    return
                if frame is None:
                    return  # clean EOF at a frame boundary
                session.bytes_in += nbytes
                self._bytes_in.inc(nbytes)
                op = frame.get("op")
                if op == "goodbye":
                    self._send(session, {"ok": True})
                    return
                if op == "ping":
                    self._send(session, {"ok": True, "pong": True})
                    continue
                if op == "execute":
                    self._handle_execute(session, frame)
                    continue
                if op == "execute_stream":
                    self._handle_execute_stream(session, frame)
                    continue
                self._send(session, {"error": protocol.error_to_wire(
                    ProtocolError(f"unknown op {op!r}"))})
        finally:
            obs_workload.set_session(None)
            set_session_dop_cap(None)

    def _note_statement(self, session: Session, text: str) -> None:
        session.statements += 1
        session.last_statement = _condense(text)
        self._statements.inc()

    def _handle_execute(self, session: Session, frame: dict) -> None:
        text = frame.get("statement", "")
        self._note_statement(session, text)
        try:
            with self.gate.admit():
                result = self.provider.execute(text)
            if isinstance(result, Rowset):
                session.rows_sent += len(result.rows)
            reply = {"ok": True, "result": protocol.result_to_wire(result)}
        except Error as exc:
            reply = {"error": protocol.error_to_wire(exc)}
        try:
            self._send(session, reply)
        except ProtocolError as exc:
            # A reply over MAX_FRAME_BYTES is refused before its first byte
            # is written: the stream is in sync, so the error is the reply.
            self._send(session, {"error": protocol.error_to_wire(exc)})

    def _handle_execute_stream(self, session: Session, frame: dict) -> None:
        """execute_stream: a columns frame, then batch frames, then end.

        The statement stays live — ``running`` in ``DM_QUERY_LOG``, within
        reach of ``Connection.cancel`` and of :meth:`close`'s drain —
        until its last batch is out, and the whole drain runs inside the
        gate.  Mid-stream errors (a cancel landing between batches, a lazy
        bind failure) arrive as an error frame *instead of* the end frame;
        the client re-raises at that point in its batch iterator, matching
        where the embedded stream would have raised.
        """
        text = frame.get("statement", "")
        self._note_statement(session, text)
        batch_size = frame.get("batch_size")
        if batch_size is None:
            batch_size = session.batch_size
        try:
            with self.gate.admit():
                stream = self.provider.execute_stream(text, batch_size)
                self._send(session, {
                    "ok": True,
                    "columns": protocol.columns_to_wire(stream.columns)})
                for batch in stream.batches():
                    session.rows_sent += len(batch)
                    self._send(session, {
                        "batch": protocol.encode_rows(batch)})
                self._send(session, {"end": True})
        except Error as exc:
            with contextlib.suppress(OSError, ProtocolError):
                self._send(session, {"error": protocol.error_to_wire(exc)})

    # -- shutdown -------------------------------------------------------------

    def close(self) -> None:
        """Drain and stop: finish in-flight statements (up to
        ``DRAIN_TIMEOUT``, then cancel stragglers), tear down sessions,
        optionally checkpoint the durable store, detach from the provider.
        Idempotent."""
        with self._lock:
            if self.closed:
                return
            self.closed = True
            self._lock.notify_all()  # queued hellos re-check and bail
        _close_socket(self._listener)

        if not self.gate.wait_idle(DRAIN_TIMEOUT):
            # Politely ask stragglers — statements and streams still
            # sending batches alike — to stop at their next checkpoint,
            # then give them one more drain window.
            for record in self.provider.workload.active():
                if record.session is not None:
                    with contextlib.suppress(Error):
                        self.provider.workload.cancel(
                            record.statement_id,
                            reason="server shutting down")
            self.gate.wait_idle(DRAIN_TIMEOUT)

        with self._lock:
            sessions = list(self._sessions.values())
            threads = [s.thread for s in sessions if s.thread is not None]
            threads += [t for t in self._conn_threads if t.is_alive()]
        for session in sessions:
            _close_socket(session.sock)  # unblocks recv/sendall
        for thread in threads:
            if thread is not threading.current_thread():
                thread.join(timeout=DRAIN_TIMEOUT)
        self._accept_thread.join(timeout=DRAIN_TIMEOUT)

        if self.checkpoint_on_close and self.provider.store is not None:
            self.provider.checkpoint()
        if self.provider.dmx_server is self:
            self.provider.dmx_server = None

    def __enter__(self) -> "DmxServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _close_socket(sock) -> None:
    if sock is None:
        return
    with contextlib.suppress(OSError):
        sock.shutdown(socket.SHUT_RDWR)
    with contextlib.suppress(OSError):
        sock.close()


def serve(provider, host: str = "127.0.0.1", port: int = 0,
          **kwargs) -> DmxServer:
    """Start a :class:`DmxServer` for ``provider`` and return it."""
    return DmxServer(provider, host=host, port=port, **kwargs)
