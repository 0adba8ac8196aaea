"""Interactive DMX shell (system S13): the deployment story, live.

"Once the DMM is created and optimized, deployment within the enterprise
becomes as easy as writing SQL queries."  ``dmxsh`` (or ``python -m repro``)
is a tiny proof of that: a REPL speaking the full SQL+DMX surface against an
in-memory provider, with optional demo data preloaded.

Usage::

    dmxsh [--demo N] [--script FILE] [--trace] [--durable PATH]
          [--metrics-port N] [--serve PORT | --connect HOST:PORT]

``--serve PORT`` turns the session into a network server: after any
``--demo``/``--script`` preload, the provider is served over the DMX wire
protocol (``repro.server``) until stdin closes; port 0 picks an ephemeral
port, and the bound port is announced on stdout.  ``--connect HOST:PORT``
is the other side: the shell runs against a remote server instead of an
embedded provider (meta-commands that need in-process state are
unavailable there).

``--durable PATH`` opens (or recovers) a crash-safe store under PATH:
acknowledged statements are journaled and survive process death, so
quitting the shell and reopening the same path resumes the session's
tables, views, and trained models.

Commands end with ``;``.  Shell meta-commands: ``.help``, ``.models``,
``.tables``, ``.quit``.  ``--trace`` (or the ``TRACE ON`` verb) enables span
capture and prints the trace of every statement as it runs.
``--metrics-port N`` serves ``/metrics`` (Prometheus text exposition),
``/healthz``, and ``/queries`` over HTTP for the life of the session.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from repro.core.provider import Connection, connect, split_statements
from repro.errors import Error, ParseError
from repro.lang.lexer import tokenize
from repro.sqlstore.rowset import Rowset

BANNER = """\
OLE DB for Data Mining shell (reproduction of Netz et al., ICDE 2001)
Statements end with ';'.  Try:
    SELECT * FROM $SYSTEM.MINING_SERVICES;
    .help for meta-commands, .quit to leave.
"""

HELP = """\
Meta-commands:
    .help        this text
    .models      list mining models
    .tables      list tables and views
    .describe M  render a trained model's content as a report
    .checkpoint  snapshot the durable store now (requires --durable)
    .top [N]     the N hottest statement fingerprints (default 10) from
                 the workload repository ($SYSTEM.DM_STATEMENT_STATS)
    .kill ID     cancel a running statement (ids: $SYSTEM.DM_QUERY_LOG)
    .tracefile F export the trace ring to F as Chrome-trace JSON (Perfetto)
    .quit        exit

Statement surface (paper section 3):
    CREATE MINING MODEL <name> (...) USING <algorithm>[(params)]
    INSERT INTO <model> (...) SHAPE {...} APPEND ({...} RELATE a TO b) AS n
    SELECT ... FROM <model> [NATURAL] PREDICTION JOIN (...) AS t [ON ...]
    SELECT * FROM <model>.CONTENT | <model>.PMML
    SELECT * FROM $SYSTEM.MINING_MODELS | MINING_COLUMNS | MINING_SERVICES
    SELECT * FROM $SYSTEM.DM_QUERY_LOG | DM_TRACE_EVENTS | DM_PROVIDER_METRICS
        (DM_QUERY_LOG: one row per statement, running ones included)
    SELECT * FROM $SYSTEM.DM_LOCK_WAITS
    SELECT * FROM $SYSTEM.DM_STATEMENT_STATS | DM_PLAN_HISTORY | DM_PLAN_CHANGES
    TRACE ON | OFF | LAST | STATUS
    CANCEL <statement id>           -- stop a live statement cooperatively
    EXPLAIN [ANALYZE] <statement>   -- plan tree, with actuals under ANALYZE
    DELETE FROM MINING MODEL <name>;  DROP MINING MODEL <name>
    EXPORT MINING MODEL <name> TO '<path>'
    IMPORT MINING MODEL FROM '<path>' [AS <name>]
    plus plain SQL: CREATE TABLE / INSERT / SELECT / UPDATE / DELETE / VIEWs
"""


def run_command(connection: Connection, command: str,
                out=None, show_trace: bool = False) -> None:
    """Execute one statement and print its result."""
    out = out if out is not None else sys.stdout
    result = connection.execute(command)
    if isinstance(result, Rowset):
        from repro.obs.explain import is_plan_rowset
        if is_plan_rowset(result):
            from repro.reporting import render_plan
            out.write(render_plan(result) + "\n")
        else:
            out.write(result.pretty() + "\n")
        out.write(f"({len(result)} rows)\n")
    elif isinstance(result, str):
        out.write(result + "\n")
    else:
        out.write(f"OK ({result} rows affected)\n")
    if show_trace:
        _print_trace(connection, command, out)


def _print_trace(connection: Connection, command: str, out) -> None:
    """After a traced statement, render its trace (--trace mode)."""
    from repro.reporting import render_trace
    record = connection.provider.tracer.last()
    if record is not None and record.text.strip() == command.strip():
        out.write(render_trace(record) + "\n")


_EMBEDDED_META = (".models", ".describe", ".checkpoint", ".tracefile",
                  ".tables", ".top")


def run_meta(connection, command: str, out=None) -> bool:
    """Handle a .meta command; returns False to exit the loop."""
    out = out if out is not None else sys.stdout
    word = command.strip().lower()
    if word in (".quit", ".exit"):
        return False
    if not hasattr(connection, "provider") and \
            any(word.startswith(name) for name in _EMBEDDED_META):
        out.write(f"{word.split()[0]} needs an embedded session; over "
                  f"--connect query the $SYSTEM rowsets instead "
                  f"(e.g. SELECT * FROM $SYSTEM.MINING_MODELS;)\n")
        return True
    if word == ".help":
        out.write(HELP)
    elif word == ".models":
        for model in connection.models():
            out.write(f"{model!r}\n")
        if not connection.models():
            out.write("(no mining models)\n")
    elif word.startswith(".describe"):
        name = command.strip()[len(".describe"):].strip().strip("[]")
        if not name:
            out.write("usage: .describe <model name>\n")
        else:
            from repro.reporting import render_model
            try:
                out.write(render_model(connection.model(name)) + "\n")
            except Error as exc:
                out.write(f"error: {exc}\n")
    elif word == ".checkpoint":
        try:
            connection.provider.checkpoint()
            out.write("checkpoint written\n")
        except Error as exc:
            out.write(f"error: {exc}\n")
    elif word.startswith(".kill"):
        argument = command.strip()[len(".kill"):].strip()
        if not argument or not argument.isdigit():
            out.write("usage: .kill <statement id>  (ids: SELECT "
                      "STATEMENT_ID FROM $SYSTEM.DM_QUERY_LOG "
                      "WHERE STATUS = 'running')\n")
        else:
            try:
                out.write(connection.cancel(int(argument)) + "\n")
            except Error as exc:
                out.write(f"error: {exc}\n")
    elif word.startswith(".top"):
        argument = command.strip()[len(".top"):].strip()
        if argument and not argument.isdigit():
            out.write("usage: .top [count]\n")
        else:
            from repro.reporting import render_top_statements
            out.write(render_top_statements(
                connection.provider.repository,
                limit=int(argument) if argument else 10) + "\n")
    elif word.startswith(".tracefile"):
        path = command.strip()[len(".tracefile"):].strip()
        if not path:
            out.write("usage: .tracefile <path>\n")
        else:
            try:
                count = connection.provider.export_trace(path)
                out.write(f"wrote {count} statement trace(s) to {path} "
                          f"(open in chrome://tracing or Perfetto)\n")
            except OSError as exc:
                out.write(f"error: {exc}\n")
    elif word == ".tables":
        database = connection.database
        for name in sorted(database.tables):
            out.write(f"table {database.tables[name].name} "
                      f"({len(database.tables[name])} rows)\n")
        for name in sorted(database.views):
            out.write(f"view  {name}\n")
        if not database.tables and not database.views:
            out.write("(no tables)\n")
    else:
        out.write(f"unknown meta-command {command!r}; try .help\n")
    return True


def load_demo(connection: Connection, customers: int) -> None:
    """Load the generated warehouse into the session (--demo N)."""
    from repro.datagen import WarehouseConfig, load_warehouse
    load_warehouse(connection.database,
                   WarehouseConfig(customers=customers))
    sys.stdout.write(
        f"Loaded demo warehouse: Customers/Sales/[Car Ownership] with "
        f"{customers} customers.\n")


def _ends_statement(buffer: str) -> bool:
    """True when the lexer reads ``;`` as the last token of ``buffer``.  An
    unterminated string, [identifier or /* comment waits for the lines
    that close it; after a stray character a line ending in ``;`` ends
    the buffer, so running it reports the lexer's error."""
    try:
        tokens = tokenize(buffer)
    except ParseError as exc:
        return "unterminated" not in str(exc) and \
            buffer.rstrip().endswith(";")
    return len(tokens) > 1 and tokens[-2].is_symbol(";")


def repl(connection: Connection, show_trace: bool = False) -> None:
    """Interactive loop: buffer lines until ';', run meta-commands."""
    sys.stdout.write(BANNER)
    buffer = ""
    while True:
        prompt = "dmx> " if not buffer else "...> "
        try:
            line = input(prompt)
        except (EOFError, KeyboardInterrupt):
            sys.stdout.write("\n")
            return
        if not buffer and line.strip().startswith("."):
            if not run_meta(connection, line):
                return
            continue
        buffer += line + "\n"
        if _ends_statement(buffer):
            for command in split_statements(buffer):
                try:
                    run_command(connection, command, show_trace=show_trace)
                except Error as exc:
                    sys.stdout.write(f"error: {exc}\n")
            buffer = ""


def main(argv: Optional[list] = None) -> int:
    """Entry point for ``dmxsh`` / ``python -m repro``."""
    parser = argparse.ArgumentParser(
        prog="dmxsh", description="OLE DB for Data Mining shell")
    parser.add_argument("--demo", type=int, metavar="N", default=0,
                        help="preload the demo warehouse with N customers")
    parser.add_argument("--script", metavar="FILE",
                        help="execute a ';'-separated DMX script and exit")
    parser.add_argument("--trace", action="store_true",
                        help="enable span capture and print each "
                             "statement's trace tree")
    parser.add_argument("--durable", metavar="PATH",
                        help="open/recover a crash-safe store under PATH; "
                             "acknowledged statements survive process death")
    parser.add_argument("--metrics-port", type=int, metavar="N",
                        default=None,
                        help="serve /metrics, /healthz, /queries and "
                             "/statements over HTTP on port N (0 = "
                             "ephemeral)")
    parser.add_argument("--serve", type=int, metavar="PORT", default=None,
                        help="serve the provider over the DMX wire protocol "
                             "on PORT (0 = ephemeral; the bound port is "
                             "announced) until stdin closes")
    parser.add_argument("--connect", metavar="HOST:PORT", default=None,
                        help="run the shell against a remote DMX server "
                             "instead of an embedded provider")
    args = parser.parse_args(argv)

    if args.connect is not None:
        return _run_remote(args, parser)

    connection = connect(durable_path=args.durable)
    if args.metrics_port is not None:
        server = connection.provider.serve_metrics(port=args.metrics_port)
        sys.stdout.write(f"Telemetry endpoint at {server.url} "
                         f"(/metrics, /healthz, /queries, /statements)\n")
    if args.durable:
        info = connection.provider.recovery_info or {}
        sys.stdout.write(
            f"Durable store {args.durable}: snapshot seq "
            f"{info.get('snapshot_seq', 0)}, replayed "
            f"{info.get('replayed', 0)} journaled statement(s)"
            + (f", skipped {info['torn_records']} torn record(s)"
               if info.get("torn_records") else "") + ".\n")
    if args.trace:
        connection.provider.tracer.enabled = True
    if args.demo:
        load_demo(connection, args.demo)
    if args.script:
        with open(args.script) as handle:
            for command in split_statements(handle.read()):
                try:
                    run_command(connection, command, show_trace=args.trace)
                except Error as exc:
                    sys.stderr.write(f"error: {exc}\n")
                    return 1
        if args.serve is None:
            return 0
    if args.serve is not None:
        return _run_server(connection, args)
    repl(connection, show_trace=args.trace)
    return 0


def _run_server(connection: Connection, args) -> int:
    """--serve PORT: serve the (preloaded) provider until stdin closes."""
    from repro.server import DmxServer
    server = DmxServer(connection.provider, port=args.serve,
                       checkpoint_on_close=bool(args.durable))
    sys.stdout.write(f"Serving DMX on {server.host}:{server.port} "
                     f"(close stdin or Ctrl-C to stop)\n")
    sys.stdout.flush()
    try:
        for _ in sys.stdin:
            pass  # stay up until the controlling process closes stdin
    except KeyboardInterrupt:
        pass
    sys.stdout.write("Draining sessions...\n")
    server.close()
    connection.close()
    sys.stdout.write("Server stopped.\n")
    return 0


def _run_remote(args, parser) -> int:
    """--connect HOST:PORT: the shell against a remote DMX server."""
    for flag, value in (("--serve", args.serve), ("--durable", args.durable),
                        ("--demo", args.demo or None),
                        ("--metrics-port", args.metrics_port),
                        ("--trace", args.trace or None)):
        if value is not None:
            parser.error(f"{flag} applies to an embedded session and "
                         f"cannot be combined with --connect")
    host, _, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        parser.error("--connect expects HOST:PORT, e.g. 127.0.0.1:8123")
    from repro.client import connect as net_connect
    try:
        connection = net_connect(host, int(port_text))
    except OSError as exc:
        sys.stderr.write(f"error: cannot connect to {args.connect}: "
                         f"{exc}\n")
        return 1
    sys.stdout.write(f"Connected to {args.connect} "
                     f"(session {connection.session_id}).\n")
    try:
        if args.script:
            with open(args.script) as handle:
                for command in split_statements(handle.read()):
                    try:
                        run_command(connection, command)
                    except Error as exc:
                        sys.stderr.write(f"error: {exc}\n")
                        return 1
            return 0
        repl(connection)
    finally:
        connection.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
