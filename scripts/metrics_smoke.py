"""CI smoke check for the HTTP telemetry endpoint.

Starts ``python -m repro --metrics-port 0`` (the real CLI path) with its
stdin held open so the REPL — and with it the telemetry server — stays
alive, reads the announced endpoint URL, runs a few statements through
the REPL, then fetches ``/metrics``, ``/healthz``, ``/queries`` and
``/statements`` over real HTTP.  The exposition is validated with the
same strict text-format parser the test suite uses.

Exit code 0 on success; raises (non-zero exit) on any failure.

    PYTHONPATH=src python scripts/metrics_smoke.py
"""

import json
import os
import re
import subprocess
import sys
import time
import urllib.request

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

from tests.obs.test_export import parse_exposition  # noqa: E402

STATEMENTS = (
    "CREATE TABLE Smoke (x INT);\n"
    "INSERT INTO Smoke VALUES (1), (2), (3);\n"
    "SELECT * FROM Smoke;\n"
    "EXPLAIN ANALYZE SELECT * FROM Smoke;\n"
)


def fetch(url):
    with urllib.request.urlopen(url, timeout=10) as response:
        return response.status, response.read().decode("utf-8")


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, ["src", env.get("PYTHONPATH")]))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "--metrics-port", "0"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, cwd=REPO, env=env)
    try:
        # The CLI announces the bound ephemeral port before the banner.
        line = process.stdout.readline()
        match = re.search(r"(http://[\d.]+:(\d+))", line)
        assert match, f"no endpoint URL announced: {line!r}"
        url = match.group(1)
        # --metrics-port 0 asks for an ephemeral port; the URL must carry
        # the real bound port, never the literal 0 back.
        assert int(match.group(2)) != 0, f"announced port 0: {line!r}"

        process.stdin.write(STATEMENTS)
        process.stdin.flush()
        deadline = time.time() + 10
        while time.time() < deadline:
            status, body = fetch(url + "/queries")
            if len(json.loads(body)) >= 4:
                break
            time.sleep(0.1)

        status, body = fetch(url + "/metrics")
        assert status == 200, f"/metrics returned {status}"
        families = parse_exposition(body)
        total = families["repro_statements_total"]["samples"][0][2]
        assert total >= 4, f"statements.total={total}, expected >= 4"
        assert "repro_provider_info" in families
        latency = families["repro_statements_latency_ms"]
        count = [s for s in latency["samples"]
                 if s[0].endswith("_count")][0][2]
        assert count >= 4, f"latency histogram count={count}"

        status, body = fetch(url + "/healthz")
        assert status == 200, f"/healthz returned {status}"
        assert json.loads(body) == {"status": "ok"}

        status, body = fetch(url + "/queries?limit=2")
        assert status == 200, f"/queries returned {status}"
        records = json.loads(body)
        assert len(records) == 2 and records[-1]["status"] == "ok"

        # /statements serves the workload repository: the REPL statements
        # above must already have aggregated under their fingerprints.
        status, body = fetch(url + "/statements")
        assert status == 200, f"/statements returned {status}"
        workload = json.loads(body)
        stats = workload["statements"]
        assert stats, "/statements reported an empty repository"
        assert all(s["fingerprint"] for s in stats)
        select = [s for s in stats if s["kind"] == "SELECT" and s["calls"]]
        assert select, f"no retired SELECT fingerprint in {stats!r}"
        assert "plan_changes" in workload

        print(f"metrics smoke OK: {len(families)} metric families, "
              f"{total:g} statements recorded, healthz ok, "
              f"{len(stats)} statement fingerprints")
        return 0
    finally:
        try:
            process.stdin.close()
        except OSError:
            pass
        process.wait(timeout=10)


if __name__ == "__main__":
    sys.exit(main())
