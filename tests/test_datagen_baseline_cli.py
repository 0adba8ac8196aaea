"""The synthetic warehouse, the external-pipeline baseline, and the shell."""

import io
import os

import pytest

import repro
from benchmarks.external_pipeline import (
    run_external_pipeline,
    run_in_provider_pipeline,
)
from repro.cli import main as cli_main, run_command, run_meta
from repro.client import connect as net_connect
from repro.core.provider import split_statements
from repro.datagen import (
    PAPER_CUSTOMER,
    WarehouseConfig,
    generate_warehouse,
    load_warehouse,
)
from repro.server import DmxServer


class TestWarehouseGenerator:
    def test_paper_customer_is_exact(self):
        data = generate_warehouse(WarehouseConfig(customers=1))
        assert data.customers[0] == (1, "Male", "Black", 35.0, 1.0)
        purchases = [(p, q, t) for c, p, q, t in data.sales if c == 1]
        assert purchases == PAPER_CUSTOMER["purchases"]
        cars = [(car, p) for c, car, p in data.cars if c == 1]
        assert cars == PAPER_CUSTOMER["cars"]

    def test_deterministic_given_seed(self):
        a = generate_warehouse(WarehouseConfig(customers=50, seed=3))
        b = generate_warehouse(WarehouseConfig(customers=50, seed=3))
        assert a.customers == b.customers
        assert a.sales == b.sales

    def test_different_seeds_differ(self):
        a = generate_warehouse(WarehouseConfig(customers=50, seed=3))
        b = generate_warehouse(WarehouseConfig(customers=50, seed=4))
        assert a.sales != b.sales

    def test_segments_drive_age(self):
        data = generate_warehouse(WarehouseConfig(customers=400))
        ages = {"student": [], "retired": []}
        for cid, gender, hair, age, _ in data.customers:
            segment = data.segments[cid]
            if segment in ages:
                ages[segment].append(age)
        mean = lambda xs: sum(xs) / len(xs)
        assert mean(ages["student"]) < 30 < 55 < mean(ages["retired"])

    def test_load_creates_three_tables(self, conn):
        load_warehouse(conn.database, WarehouseConfig(customers=20))
        for table in ("Customers", "Sales", "Car Ownership"):
            assert conn.database.has_table(table)
        assert conn.execute(
            "SELECT COUNT(*) FROM Customers").single_value() == 20

    def test_uncertain_cars_have_probabilities(self):
        data = generate_warehouse(WarehouseConfig(customers=300,
                                                  uncertain_cars=True))
        probabilities = {p for _, _, p in data.cars}
        assert any(p < 1.0 for p in probabilities)

    def test_certain_cars_config(self):
        data = generate_warehouse(WarehouseConfig(
            customers=300, uncertain_cars=False,
            include_paper_customer=False))
        assert all(p == 1.0 for _, _, p in data.cars)


class TestExternalBaseline:
    def test_both_pipelines_produce_predictions(self, conn, tmp_path):
        load_warehouse(conn.database, WarehouseConfig(customers=120))
        in_db = run_in_provider_pipeline(conn.provider)
        external, stats = run_external_pipeline(conn.provider,
                                                str(tmp_path))
        assert len(in_db) == 120
        assert len(external) == 120

    def test_external_pipeline_leaves_file_droppings(self, conn, tmp_path):
        load_warehouse(conn.database, WarehouseConfig(customers=60))
        _, stats = run_external_pipeline(conn.provider, str(tmp_path))
        # export x2 + prepared + predictions = the paper's "trail of
        # droppings in the file system"
        assert len(stats.files_written) == 4
        assert stats.bytes_written > 0
        for path in stats.files_written:
            assert os.path.exists(path)

    def test_predictions_agree_between_pipelines(self, conn, tmp_path):
        load_warehouse(conn.database, WarehouseConfig(customers=120))
        in_db = run_in_provider_pipeline(conn.provider)
        external, _ = run_external_pipeline(conn.provider, str(tmp_path))
        in_db_map = dict(in_db.rows)
        external_map = dict(external.rows)
        agree = sum(1 for k in in_db_map
                    if str(in_db_map[k]) == str(external_map[k]))
        # identical algorithm + data => identical predictions
        assert agree == len(in_db_map)


# Scripts a scan for ';' outside quotes splits unlike the lexer reads
# them, each with the statements the lexer sees.  Every one that has
# statements ends in a SELECT whose one row is (1,).
LEXED_SCRIPTS = [
    ("CREATE TABLE [a]];b] (x LONG); INSERT INTO [a]];b] VALUES (1); "
     "SELECT x FROM [a]];b]",
     ["CREATE TABLE [a]];b] (x LONG)", "INSERT INTO [a]];b] VALUES (1)",
      "SELECT x FROM [a]];b]"]),
    ("SELECT 1 AS a; -- done", ["SELECT 1 AS a"]),
    ("SELECT 1 AS a; % note", ["SELECT 1 AS a"]),
    ("SELECT 1 AS a; /* done; */", ["SELECT 1 AS a"]),
    ("-- nothing; here\n/* nor; here */ % nor here", []),
]


class TestStatementSplitter:
    def test_splits_on_semicolons(self):
        parts = split_statements("SELECT 1; SELECT 2;")
        assert parts == ["SELECT 1", "SELECT 2"]

    def test_ignores_semicolons_in_strings_and_brackets(self):
        parts = split_statements(
            "SELECT 'a;b' FROM [weird;name]; SELECT 2")
        assert len(parts) == 2
        assert "[weird;name]" in parts[0]

    def test_ignores_semicolons_in_comments(self):
        parts = split_statements("SELECT 1 -- not; here\n; SELECT 2")
        assert len(parts) == 2

    def test_block_comments(self):
        parts = split_statements("SELECT 1 /* a;b */; SELECT 2")
        assert len(parts) == 2

    @pytest.mark.parametrize("script, statements", LEXED_SCRIPTS)
    def test_splits_as_the_lexer_reads(self, script, statements):
        assert split_statements(script) == statements

    def test_text_the_lexer_cannot_take_stays_in_its_piece(self):
        assert split_statements("SELECT 1; SELECT 'a; SELECT 2") == [
            "SELECT 1", "SELECT 'a; SELECT 2"]

    @pytest.mark.parametrize("script, statements", LEXED_SCRIPTS)
    def test_embedded_and_wire_scripts_run_what_it_splits(self, script,
                                                          statements):
        embedded, served = repro.connect(), repro.connect()
        server = DmxServer(served.provider, port=0)
        try:
            with net_connect("127.0.0.1", server.port) as client:
                for run in (embedded.execute_script, client.execute_script):
                    results = run(script)
                    assert len(results) == len(statements)
                    if results:
                        assert results[-1].rows == [(1,)]
        finally:
            server.close()
            served.close()
            embedded.close()


class TestCli:
    def test_run_command_prints_rowsets(self, conn):
        out = io.StringIO()
        run_command(conn, "SELECT 1 AS one", out=out)
        text = out.getvalue()
        assert "one" in text and "(1 rows)" in text

    def test_run_command_prints_counts(self, conn):
        out = io.StringIO()
        conn.execute("CREATE TABLE T (a LONG)")
        run_command(conn, "INSERT INTO T VALUES (1), (2)", out=out)
        assert "OK (2 rows affected)" in out.getvalue()

    def test_meta_commands(self, conn):
        out = io.StringIO()
        assert run_meta(conn, ".help", out=out)
        assert "PREDICTION JOIN" in out.getvalue()
        assert run_meta(conn, ".models", out=out)
        assert run_meta(conn, ".tables", out=out)
        assert not run_meta(conn, ".quit", out=out)
        assert run_meta(conn, ".bogus", out=out)

    def test_script_mode(self, tmp_path, capsys):
        script = tmp_path / "script.dmx"
        script.write_text(
            "CREATE TABLE T (a LONG);\n"
            "INSERT INTO T VALUES (1), (2);\n"
            "SELECT COUNT(*) AS n FROM T;\n")
        exit_code = cli_main(["--script", str(script)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "n" in captured.out

    def test_script_mode_error_exit_code(self, tmp_path, capsys):
        script = tmp_path / "bad.dmx"
        script.write_text("SELECT * FROM Missing;")
        assert cli_main(["--script", str(script)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_demo_flag(self, tmp_path, capsys):
        script = tmp_path / "demo.dmx"
        script.write_text("SELECT COUNT(*) AS n FROM Customers;")
        assert cli_main(["--demo", "25", "--script", str(script)]) == 0
        assert "25" in capsys.readouterr().out


class TestRepl:
    def test_repl_executes_and_quits(self, monkeypatch, capsys):
        import repro
        from repro.cli import repl
        lines = iter([
            "SELECT 1 AS one;",
            ".models",
            "SELECT * FROM",       # continuation buffering...
            "$SYSTEM.MINING_SERVICES;",
            "SELEKT nonsense;",    # parse error is reported, loop survives
            ".quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
        repl(repro.connect())
        output = capsys.readouterr().out
        assert "one" in output
        assert "Repro_Decision_Trees" in output
        assert "error:" in output

    def test_repl_waits_for_the_real_terminator(self, monkeypatch, capsys):
        """A ``;`` inside a string ends no statement: each statement runs
        once, whole, when a line ends it."""
        import repro
        from repro import cli
        lines = iter([
            "SELECT 'a;b' AS s",
            ", 1 AS c;",
            "SELECT 'x;",          # an unterminated string keeps buffering
            "y' AS t; SELECT 2 AS u; -- done",
            "SELECT ? AS v;",      # a stray character: its error shows
            ".quit",
        ])
        monkeypatch.setattr("builtins.input", lambda prompt: next(lines))
        ran = []
        run = cli.run_command
        monkeypatch.setattr(cli, "run_command", lambda connection, command,
                            **kwargs: ran.append(command) or run(
                                connection, command, **kwargs))
        cli.repl(repro.connect())
        assert ran == ["SELECT 'a;b' AS s\n, 1 AS c", "SELECT 'x;\ny' AS t",
                       "SELECT 2 AS u", "SELECT ? AS v;"]
        output = capsys.readouterr().out
        assert "a;b" in output and "x;" in output
        assert output.count("error:") == 1
        assert "unexpected character '?'" in output

    def test_repl_exits_on_eof(self, monkeypatch, capsys):
        import repro
        from repro.cli import repl

        def raise_eof(prompt):
            raise EOFError

        monkeypatch.setattr("builtins.input", raise_eof)
        repl(repro.connect())  # must return, not raise
