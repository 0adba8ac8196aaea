"""One benchmark for the DMX life cycle.

    PYTHONPATH=src python benchmarks/e2e/run.py --seed 7
        [--workload NAME] [--quick] [--traced] [--seconds N] [--out FILE]

generates the inputs from the seed, runs each workload in its own fresh
child process with the provider at ``connect()`` defaults, checks every
answer, prints every metric by name with its unit, and writes the results to
``benchmarks/e2e/out/``.  ``--traced`` adds a second, traced run per
workload that emits the per-layer metrics and ``trace_<workload>.json``.

The benchmark driver calls

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace T

and reads the last line of standard output: one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics`` — every end-to-end
metric of ``BENCHMARK.json`` with ``--trace 0``, every per-layer metric with
``--trace 1``.  The exit code is non-zero when an answer check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import common  # noqa: E402
from statements import scale_of  # noqa: E402

CHILD_TIMEOUT_S = 170
SETUPS = 3          # set-ups per run; setup_s is their median


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true",
                        help="run untraced, then traced")
    parser.add_argument("--quick", action="store_true",
                        help="1/10 scale smoke run (< 30 s in total)")
    parser.add_argument("--out", default=None,
                        help="results file (default out/results.json)")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# -- child: one workload, one process -----------------------------------------------

def child_main(args) -> int:
    common.require_program()
    from workloads import run_workload
    scale = scale_of(args.workload, args.seconds, args.quick)
    result = run_workload(args.workload, args.seed, scale,
                          traced=bool(args.trace),
                          setups=1 if args.quick else SETUPS)
    result["provenance"] = common.provenance(args.seed, scale)
    print(json.dumps(result), flush=True)
    return 0


def run_child(workload: str, args, traced: bool) -> dict:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds),
               "--trace", "1" if traced else "0"]
    if args.quick:
        command.append("--quick")
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                             start_new_session=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        # Timeout or interrupt: take the child's whole session down (its
        # server process included) before reporting.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
        raise
    finally:
        common.sweep_scratch(child.pid)
    if child.returncode != 0:
        raise RuntimeError(f"workload {workload} failed in its child "
                           f"process (exit {child.returncode})")
    return json.loads(stdout.strip().splitlines()[-1])


# -- parent: catalogue, report, contract line -------------------------------------------

def declared(catalogue: dict, section: str) -> dict:
    return {entry["name"]: entry for entry in catalogue[section]}


def select_metrics(result: dict, catalogue: dict) -> dict:
    """The metrics the driver expects from this run, validated against the
    catalogue: nothing missing, nothing undeclared."""
    section = "per_layer" if result["traced"] else "end_to_end"
    measured = result[section]
    if result["traced"]:
        measured = {**measured, **result["statement_classes"]}
    names = declared(catalogue, section)
    missing = sorted(set(names) - set(measured))
    extra = sorted(set(measured) - set(names))
    if missing or extra:
        raise RuntimeError(
            f"{result['workload']}: metrics out of step with BENCHMARK.json "
            f"(missing {missing}, undeclared {extra})")
    return {name: {"value": measured[name]["value"],
                   "unit": names[name]["unit"]} for name in names}


def print_report(result: dict, catalogue: dict) -> None:
    units = {**declared(catalogue, "end_to_end"),
             **declared(catalogue, "per_layer")}
    mode = "traced" if result["traced"] else "untraced"
    scale = ", ".join(f"{k}={v}" for k, v in
                      result["provenance"]["scale"].items())
    print(f"\n== {result['workload']} ({mode}; seed "
          f"{result['provenance']['seed']}; {scale}) ==")
    counts = result["counts"]
    if "pool_bytes" in counts:
        print(f"   buffer pool {counts['pool_bytes']:.0f} B under "
              f"{counts['table_bytes']:.0f} B of rows "
              f"({counts['table_bytes'] / counts['pool_bytes']:.1f}x)")
    sections = [("end_to_end", result["end_to_end"]),
                ("statement classes", result["statement_classes"])]
    if result["traced"]:
        sections.append(("per_layer", result["per_layer"]))
    for title, metrics in sections:
        print(f"  -- {title}")
        for name in sorted(metrics):
            entry = metrics[name]
            unit = units[name]["unit"] if name in units else ""
            detail = ""
            if "q1" in entry:
                detail = f"  [q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}]"
            if "n" in entry:
                detail += f"  n={entry['n']}"
            print(f"  {name:<46} {entry['value']:>14.6g} {unit:<6}{detail}")
    print(f"  statements {result['attempted']}, errors {result['errors']}, "
          f"answer checks {result['checks_attempted']}, "
          f"failed {result['checks_failed']}; "
          f"samples {result['sample_counts']}")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    args = parse_args(argv)
    common.require_program()
    catalogue = common.load_catalogue()
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    if args.child:
        return child_main(args)

    workloads = [args.workload] if args.workload else list(common.WORKLOADS)
    modes = [False, True] if args.traced else [bool(args.trace)]
    results = []
    for workload in workloads:
        for traced in modes:
            result = run_child(workload, args, traced)
            print_report(result, catalogue)
            result["metrics"] = select_metrics(result, catalogue)
            results.append(result)

    out = args.out or os.path.join(common.OUT, "results.json")
    common.write_json(out, {"results": results})
    attempted = sum(r["checks_attempted"] for r in results)
    failed = sum(r["checks_failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{'traced' if r['traced'] else 'e2e'}/"
                   f"{name}": entry
                   for r in results for name, entry in r["metrics"].items()}
    print(f"\nresults written to {os.path.relpath(out)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
