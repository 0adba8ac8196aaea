"""A/A check: the same code, measured twice, must agree with itself.

    PYTHONPATH=src python benchmarks/e2e/aa_check.py [--runs 5] [--quick]
        [--workload NAME] [--seconds N] [--seed 1]

Runs the suite twice (sets A and B, ``--runs`` seeds each, the same seeds in
both) on this checkout and fails if

* the medians of any end-to-end metric differ between A and B by more than
  the metric's own bound in ``BENCHMARK.json``, or
* any exact count (statements, rows, answer checks, ``buffer.misses`` on the
  single-client paged workload, ``store.journal.appends``, ``write_amp``)
  differs between the A and the B run of the same seed, or
* any answer check fails.

It also prints, per workload and metric, the spread of all runs (quartile
distance over median, as the benchmark driver computes it), so a bound can be
tightened — or a metric demoted to ``per_layer`` — with evidence.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import run
from common import WORKLOADS, load_catalogue, spread


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5,
                        help="seeds per set (spreads need at least 2)")
    parser.add_argument("--seed", type=int, default=1, help="first seed")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)

    catalogue = load_catalogue()
    if args.seconds is None:
        args.seconds = float(catalogue["run_seconds"])
    metrics = {m["name"]: m for m in catalogue["end_to_end"]}
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    seeds = range(args.seed, args.seed + args.runs)

    problems = []
    for workload in workloads:
        sets = {"A": [], "B": []}
        for label in sets:
            for seed in seeds:
                job = argparse.Namespace(seed=seed, seconds=args.seconds,
                                         quick=args.quick)
                result = run.run_child(workload, job, traced=False)
                sets[label].append(result)
                if result["checks_failed"]:
                    problems.append(f"{workload} seed {seed} set {label}: "
                                    f"{result['checks_failed']} answer "
                                    f"checks failed")
        for a, b in zip(sets["A"], sets["B"]):
            if a["counts"] != b["counts"]:
                differing = sorted(
                    key for key in set(a["counts"]) | set(b["counts"])
                    if a["counts"].get(key) != b["counts"].get(key))
                problems.append(
                    f"{workload} seed {a['provenance']['seed']}: exact "
                    f"counts differ between the two runs: {differing}")

        print(f"\n== {workload}: {args.runs} seeds x 2 sets")
        print(f"  {'metric':<20} {'median A':>12} {'median B':>12} "
              f"{'|A-B|/A':>8} {'bound':>6} {'spread':>7}")
        for name, entry in metrics.items():
            values = {label: [r["end_to_end"][name]["value"] for r in runs]
                      for label, runs in sets.items()}
            median_a = statistics.median(values["A"])
            median_b = statistics.median(values["B"])
            gap = abs(median_b - median_a) / median_a if median_a else 0.0
            both = values["A"] + values["B"]
            width = spread(both) if len(both) >= 2 else 0.0
            flag = ""
            if gap > entry["bound"]:
                flag = "  <-- beyond its bound"
                problems.append(f"{workload} {name}: medians differ by "
                                f"{gap:.3f}, bound {entry['bound']}")
            print(f"  {name:<20} {median_a:>12.5g} {median_b:>12.5g} "
                  f"{gap:>8.3f} {entry['bound']:>6} {width:>7.3f}{flag}")

    print()
    for problem in problems:
        print(f"FAILED: {problem}")
    if not problems:
        print("A/A check passed: every end-to-end metric agrees with itself "
              "within its bound and every exact count repeats.")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
