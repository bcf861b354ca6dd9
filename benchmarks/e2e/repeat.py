#!/usr/bin/env python3
"""Does the benchmark repeat?  Run it N times and check its own bounds.

    python benchmarks/e2e/repeat.py [--sets 2] [--runs 3] [--seconds S]

Every run uses another ``--seed``; the workload order alternates from
run to run.  Per (end-to-end metric, workload) and per set this prints
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread (Q3 - Q1) / median, and checks what the driver checks: each
spread, ``setup_s`` excepted, stays within the metric's bound in
``BENCHMARK.json``, and the last set's median is not worse than the
first's by more than the bound.  Writes ``out/repeatability.json``;
exits 1 when a check fails.

The rule for a metric that fails here: demote it to a per-layer metric,
never widen its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from statistics import median, quantiles
from typing import Any, Dict, List

from run import _pin_hash_seed, run_child


def main() -> int:
    _pin_hash_seed()
    from e2elib import env

    env.require_source()
    from e2elib.data import WORKLOADS

    spec = json.loads(env.SPEC_PATH.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3, help="runs per set")
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args()

    # values[set][workload][metric] -> one value per run
    values: List[Dict[str, Dict[str, List[float]]]] = []
    failed_operations = 0
    seed = 0
    for set_index in range(args.sets):
        values.append({w: {} for w in WORKLOADS})
        for run_index in range(args.runs):
            seed += 1
            order = WORKLOADS if run_index % 2 == 0 else tuple(reversed(WORKLOADS))
            for workload in order:
                code, result = run_child(workload, seed, args.seconds, 0, args.quick)
                if result is None:
                    print(f"{workload} seed {seed}: no result (exit {code})", file=sys.stderr)
                    return 1
                failed_operations += result["failed"]
                for name, metric in result["metrics"].items():
                    values[set_index][workload].setdefault(name, []).append(metric["value"])
                print(f"set {set_index} run {run_index} {workload} seed {seed}: exit {code}", flush=True)

    rows: List[Dict[str, Any]] = []
    ok = failed_operations == 0
    for metric in spec["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        for workload in WORKLOADS:
            medians: List[float] = []
            for set_index in range(args.sets):
                series = values[set_index][workload][name]
                q1, q2, q3 = quantiles(series, n=4)
                spread = (q3 - q1) / median(series)
                within = name == "setup_s" or spread <= bound
                ok = ok and within
                medians.append(median(series))
                rows.append(
                    {
                        "metric": name,
                        "workload": workload,
                        "set": set_index,
                        "median": median(series),
                        "q1": q1,
                        "q3": q3,
                        "spread": spread,
                        "bound": bound,
                        "within_bound": within,
                    }
                )
            first, last = medians[0], medians[-1]
            worse = (last - first) / first if better == "lower" else (first - last) / first
            steady = worse <= bound
            ok = ok and steady
            rows.append(
                {
                    "metric": name,
                    "workload": workload,
                    "set": "last-vs-first",
                    "worse_by": worse,
                    "bound": bound,
                    "within_bound": steady,
                }
            )

    print(f"\n{'metric':18}{'workload':14}{'set':>14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}  ok")
    for row in rows:
        if row["set"] == "last-vs-first":
            print(
                f"{row['metric']:18}{row['workload']:14}{'last-vs-first':>14}"
                f"{'':36}{row['worse_by']:>9.3f}{row['bound']:>7.2f}  {row['within_bound']}"
            )
        else:
            print(
                f"{row['metric']:18}{row['workload']:14}{row['set']:>14}"
                f"{row['median']:>12.4f}{row['q1']:>12.4f}{row['q3']:>12.4f}"
                f"{row['spread']:>9.3f}{row['bound']:>7.2f}  {row['within_bound']}"
            )
    env.OUT_DIR.mkdir(exist_ok=True)
    document = {
        "sets": args.sets,
        "runs_per_set": args.runs,
        "seconds": args.seconds,
        "provenance": env.provenance(),
        "failed_operations": failed_operations,
        "values": values,
        "rows": rows,
        "repeats_within_bounds": ok,
    }
    (env.OUT_DIR / "repeatability.json").write_text(json.dumps(document, indent=1) + "\n")
    print(f"\nrepeats within bounds: {ok}; failed operations: {failed_operations}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
