"""Smoke test of the end-to-end benchmark (run explicitly; not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_smoke.py

Pins the ``BENCHMARK.json`` schema, runs the 1/10-scale suite untraced and
traced, and checks that nothing — server child, thread, scratch directory —
outlives a run that succeeds or one that is interrupted."""

import json
import os
import re
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def catalogue():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def leftovers():
    """Server children still alive, benchmark threads, scratch directories."""
    found = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                command = handle.read().replace(b"\0", b" ").decode()
        except OSError:
            continue
        if "server_child.py" in command or \
                ("run.py" in command and "--child" in command):
            found.append(f"process {pid}: {command}")
    found += [f"thread {t.name}" for t in threading.enumerate()
              if t.name.startswith(("dmx-", "e2e-"))]
    scratch = os.path.join(HERE, "out", "tmp")
    if os.path.isdir(scratch):
        found += [f"scratch {name}" for name in os.listdir(scratch)]
    return found


def test_benchmark_json_schema():
    doc = catalogue()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["paths"] == ["benchmarks/e2e"]
    assert 1 <= doc["run_seconds"] <= 60
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = [entry["name"] for section in
             ("workloads", "end_to_end", "per_layer")
             for entry in doc[section]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names), names
    for workload in doc["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in doc["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in doc["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(metric["unit"]) and \
            metric["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and \
        setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_quick_suite_untraced_and_traced(tmp_path):
    out = tmp_path / "results.json"
    started = time.time()
    done = subprocess.run(
        [sys.executable, RUN, "--quick", "--traced", "--seed", "7",
         "--out", str(out)], capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert time.time() - started < 60
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is True and last["failed"] == 0
    assert last["attempted"] >= 1

    doc = catalogue()
    results = json.loads(out.read_text())["results"]
    assert [(r["workload"], r["traced"]) for r in results] == [
        (w["name"], traced) for w in doc["workloads"]
        for traced in (False, True)]
    for result in results:
        section = "per_layer" if result["traced"] else "end_to_end"
        assert set(result["metrics"]) == {m["name"] for m in doc[section]}
        assert result["checks_failed"] == 0 and result["errors"] == 0
        for name in ("git_sha", "python", "nproc", "seed", "scale"):
            assert name in result["provenance"]
        if not result["traced"]:
            assert all(entry["value"] > 0
                       for entry in result["metrics"].values())
    for workload in doc["workloads"]:
        path = os.path.join(HERE, "out", f"trace_{workload['name']}.json")
        with open(path, encoding="utf-8") as handle:
            trace = json.load(handle)
        assert trace["span_fields"] == ["name", "start_ms", "end_ms",
                                        "parent", "statement"]
        assert trace["spans"]
    assert leftovers() == []


def test_driver_line_has_exactly_the_declared_metrics():
    doc = catalogue()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [sys.executable, RUN, "--quick", "--workload", "sql_mem",
             "--seed", "3", "--seconds", "10", "--trace", str(trace)],
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr[-3000:]
        last = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert set(last["metrics"]) == {m["name"] for m in doc[section]}
        units = {m["name"]: m["unit"] for m in doc[section]}
        for name, entry in last["metrics"].items():
            assert set(entry) == {"value", "unit"}
            assert entry["unit"] == units[name]


def test_interrupted_run_leaves_nothing_behind():
    child = subprocess.Popen(
        [sys.executable, RUN, "--workload", "served_mixed", "--seed", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    time.sleep(4.0)          # mid set-up or mid run: server child is alive
    child.send_signal(signal.SIGINT)
    child.communicate(timeout=60)
    assert child.returncode != 0
    deadline = time.time() + 10
    while leftovers() and time.time() < deadline:
        time.sleep(0.2)
    assert leftovers() == []
