"""Shared plumbing of the end-to-end benchmark: paths, the metric catalogue
read from ``BENCHMARK.json``, sample summaries, scratch directories and
process-level probes.  Nothing here imports :mod:`repro`."""

from __future__ import annotations

import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from typing import Iterable, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(REPO_ROOT, "src")
OUT = os.path.join(HERE, "out")
TMP = os.path.join(OUT, "tmp")
BENCHMARK_JSON = os.path.join(REPO_ROOT, "BENCHMARK.json")

WORKLOADS = ("lifecycle_mem", "sql_mem", "sql_paged", "served_mixed")

now = time.perf_counter


def require_program() -> None:
    """Put the provider's source on ``sys.path``; exit non-zero without a
    result when the checkout holds the benchmark but not the program."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(
            f"benchmarks/e2e: the program under test is missing "
            f"({SRC}/repro); nothing to measure")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_catalogue() -> dict:
    """``BENCHMARK.json``: the one place metric names, units, directions
    and bounds are fixed."""
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


# -- sample summaries ----------------------------------------------------------

def percentile(samples: List[float], fraction: float) -> float:
    """Linear-interpolated percentile of a non-empty sample."""
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summarize(samples: Iterable[float], fraction: float = 0.5) -> dict:
    """A timing metric: the chosen percentile (median by default) with the
    quartiles and the sample count it rests on."""
    values = list(samples)
    if not values:
        return {"value": 0.0, "n": 0}
    return {"value": percentile(values, fraction),
            "q1": percentile(values, 0.25), "q3": percentile(values, 0.75),
            "n": len(values)}


def exact(value: float, n: Optional[int] = None) -> dict:
    """A count, a ratio of counts, or a single measurement."""
    out = {"value": value}
    if n is not None:
        out["n"] = n
    return out


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median — the driver's
    steadiness measure (``statistics.quantiles(values, n=4)``)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# -- scratch space (inside the checkout, never /tmp) ------------------------------

def scratch_dir(tag: str) -> str:
    """A fresh directory under ``out/tmp`` whose name carries this process's
    pid, so the parent can sweep what a crashed child left behind."""
    os.makedirs(TMP, exist_ok=True)
    serial = 0
    while True:
        path = os.path.join(TMP, f"{tag}-{os.getpid()}-{serial}")
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            serial += 1


def sweep_scratch(pid: int) -> None:
    if not os.path.isdir(TMP):
        return
    for name in os.listdir(TMP):
        if f"-{pid}-" in name:
            shutil.rmtree(os.path.join(TMP, name), ignore_errors=True)
    if not os.listdir(TMP):
        os.rmdir(TMP)


def directory_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


# -- process probes ------------------------------------------------------------------

def peak_rss_mb(pid: Optional[int] = None) -> float:
    """``VmHWM`` of this process (or of ``pid``) in MiB."""
    with open(f"/proc/{pid or 'self'}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def bytes_written() -> int:
    """Bytes this process has passed to ``write()`` so far (``wchar``);
    0 where ``/proc/self/io`` is not readable."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def provenance(seed: int, scale: dict) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "python": platform.python_version(),
            "nproc": os.cpu_count(), "seed": seed, "scale": scale}


def write_json(path: str, document) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=1, sort_keys=True)
        handle.write("\n")


# -- machine-speed probe --------------------------------------------------------------

#: Wall time of :func:`speed_kernel` that defines the reference speed.
KERNEL_REFERENCE_S = 0.00055


class _Row:
    __slots__ = ("columns", "row")

    def __init__(self, columns, row):
        self.columns = columns
        self.row = row

    def with_row(self, row):
        return _Row(self.columns, row)

    def get(self, parts):
        return self.row[self.columns[tuple(p.upper() for p in parts)]]


def speed_kernel() -> float:
    """A fixed slice of interpreter work (object allocation, dict and tuple
    traffic, string methods, a sort); returns its wall time.  It never
    changes with the program under test, so its time tracks only how fast
    this machine is running right now."""
    started = now()
    base = _Row({("A",): 0, ("B",): 1, ("C",): 2}, None)
    out = []
    for i in range(300):
        context = base.with_row((i, "v%d" % (i % 7), i * 0.5))
        if isinstance(context.get(("a",)), int) and \
                context.get(("c",)) > 3.0:
            out.append((context.get(("b",)), i))
    out.sort()
    return now() - started


class SpeedProbe:
    """Samples :func:`speed_kernel` between statements, at most once per
    ``every`` seconds of wall time, so that a timed span can be scaled to
    the reference speed.

    The sandbox this benchmark was built on alternates, in stretches of
    seconds, between two CPU speeds about 1.5x apart, so raw timings of
    equal work spread by 20-30 % between runs.  Dividing a round's time by
    the kernel's slowdown during that same round brings the spread of
    CPU-bound work down to a few percent.
    """

    def __init__(self, every: float = 0.02):
        self.every = every
        self._last = 0.0
        self._pending: List[float] = []

    def tick(self) -> None:
        if now() - self._last >= self.every:
            self._pending.append(speed_kernel())
            self._last = now()

    def slowdown(self) -> float:
        """Mean kernel time since the last call over the reference time;
        closes the interval with one more sample."""
        self._pending.append(speed_kernel())
        self._last = now()
        samples, self._pending = self._pending, []
        return (sum(samples) / len(samples)) / KERNEL_REFERENCE_S
