#!/usr/bin/env python3
"""The repo's one benchmark: four workloads, checked answers, named metrics.

    python benchmarks/e2e/run.py                      # all four, untraced
    python benchmarks/e2e/run.py --trace              # ... plus a traced run each
    python benchmarks/e2e/run.py --workload churn --seed 3 --seconds 20 --trace 0

With ``--workload`` the run happens in this process and the last line
of standard output is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``: the end-to-end metrics of ``BENCHMARK.json``
for ``--trace 0``, its per-layer metrics for ``--trace 1``.  Without it
every workload runs in a process of its own and a summary is printed.
See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional


def _pin_hash_seed() -> None:
    """Re-execute under ``PYTHONHASHSEED=0``.

    Set iteration order reaches the cover search, so an unpinned hash
    seed makes two runs of the same code plan differently.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def _parser(default_seconds: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=0, help="orders cells, draws writes")
    parser.add_argument(
        "--seconds",
        type=float,
        default=float(default_seconds),
        help="timed region per workload (never fewer than 7 passes per cell)",
    )
    parser.add_argument(
        "--trace",
        type=int,
        nargs="?",
        const=1,
        default=0,
        choices=(0, 1),
        help="1: the layer-attributed traced run (per-layer metrics)",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="self-test scale: 1 university / 800 publications, 2 passes",
    )
    parser.add_argument(
        "--regen-expected",
        action="store_true",
        help="recompute expected/<scale>.json with the naive oracle (slow)",
    )
    return parser


def run_workload(args, spec: Dict[str, Any]) -> int:
    from e2elib import env
    from e2elib.churn import Churn
    from e2elib.data import FULL, QUICK, WORKLOADS, RunConfig
    from e2elib.library import Library
    from e2elib.serve import ServeClosed

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {WORKLOADS}", file=sys.stderr)
        return 2
    config = RunConfig(
        workload=args.workload,
        seed=args.seed,
        seconds=0.0 if args.quick else args.seconds,
        trace=bool(args.trace),
        scale=QUICK if args.quick else FULL,
        min_passes=2 if args.quick else 7,
    )
    load_start = env.load_average()
    env.warn_if_loaded(load_start, "start")
    runner = {"churn": Churn, "serve_closed": ServeClosed}.get(args.workload, Library)(config)
    result = runner.run()
    load_end = env.load_average()
    env.warn_if_loaded(load_end, "end")

    measured: Dict[str, float] = result["metrics"]
    declared = spec["per_layer"] if config.trace else spec["end_to_end"]
    stray = sorted(set(measured) - {m["name"] for m in declared})
    if stray:
        raise SystemExit(f"metrics not declared in BENCHMARK.json: {stray}")
    metrics: Dict[str, Dict[str, Any]] = {}
    for metric in declared:
        if config.trace:
            # A layer this workload does not exercise reports no work.
            value = measured.get(metric["name"], 0.0)
        else:
            value = measured[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    checker = runner.checker
    document = {
        "workload": config.workload,
        "traced": config.trace,
        "seed": config.seed,
        "seconds": config.seconds,
        "scale": config.scale.name,
        "dataset_scales": config.scale.describe(),
        "provenance": env.provenance(),
        "load_average_1m": {"start": load_start, "end": load_end},
        "info": result["info"],
        "attempted": checker.attempted,
        "failed": checker.failed,
        "failed_share": checker.failed_share,
        "failures": checker.failures,
        "metrics": metrics,
        "cell_latencies_s": result.get("cells"),
        "busy_s_per_pass": result.get("busy_s"),
        "claim": None,
    }
    env.OUT_DIR.mkdir(exist_ok=True)
    suffix = "_trace" if config.trace else ""
    path = env.OUT_DIR / f"result_{config.workload}{suffix}.json"
    path.write_text(json.dumps(document, indent=1) + "\n")

    print(f"# {config.workload} seed={config.seed} traced={config.trace} {result['info']}")
    for name, entry in metrics.items():
        print(f"{name:48} {entry['value']:>16.6g} {entry['unit']}")
    if not config.trace:  # traced, it is one of the per-layer metrics above
        print(f"{'failed_share':48} {checker.failed_share:>16.6g} ratio")
    for failure in checker.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    correct = checker.failed == 0 and checker.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_child(workload: str, seed: int, seconds: float, trace: int, quick: bool):
    """One workload run in a process of its own; its last-line JSON."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]  # fmt: skip
    if quick:
        command.append("--quick")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, ValueError):
        return done.returncode or 1, None


def run_all(args) -> int:
    from e2elib.data import WORKLOADS

    status = 0
    summary: Dict[str, Any] = {}
    for workload in WORKLOADS:
        for trace in (0, 1) if args.trace else (0,):
            code, result = run_child(workload, args.seed, args.seconds, trace, args.quick)
            status = status or code
            if result is None:
                print(f"{workload}: no result (exit {code})", file=sys.stderr)
                continue
            entry = summary.setdefault(workload, {"metrics": {}})
            entry["metrics"].update(result["metrics"])
            if not trace:
                entry.update({k: result[k] for k in ("correct", "attempted", "failed")})
                entry["failed_share"] = result["failed"] / result["attempted"]
    for workload, entry in summary.items():
        print(f"\n== {workload}: failed_share={entry.get('failed_share')}")
        for name, metric in entry["metrics"].items():
            print(f"{name:48} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({"workloads": summary, "claim": None}))
    return status


def regen_expected(quick: bool) -> int:
    """Recompute the committed digests with the naive oracle."""
    from e2elib import churn, data
    from e2elib.check import Expected, digest, render_rows
    from repro.query import evaluate, parse_query

    scale = data.QUICK if quick else data.FULL
    expected = Expected(scale.name)
    expected.cells = {}
    cells = data.cold_plan_cells() + data.warm_eval_cells() + data.serve_cells()
    for dataset in sorted({cell.dataset for cell in cells}):
        database = data.build_dataset(dataset, scale)
        graph = database.saturated().facts_graph()
        texts = data.query_texts(dataset)
        for name in sorted({c.query for c in cells if c.dataset == dataset}):
            answers = evaluate(parse_query(texts[name], name=name), graph)
            expected.cells[f"{dataset}/{name}"] = digest(render_rows(answers))
            print(f"{dataset}/{name}: {expected.cells[f'{dataset}/{name}']}", flush=True)
    database = data.build_dataset("lubm-small", scale)
    texts = data.query_texts("lubm-small")
    queries = {n: parse_query(texts[n], name=n) for n in data.CHURN_QUERIES}
    expected.churn_seed = 0
    expected.churn_steps = []
    for step in range(12 if quick else 160):
        churn.apply_write(database, churn.write_batch(0, step), step)
        expected.churn_steps.append(churn.oracle_digests(database, queries))
        print(f"churn step {step}: {expected.churn_steps[-1]}", flush=True)
    expected.save()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    _pin_hash_seed()
    from e2elib import env

    env.require_source()
    spec = json.loads(env.SPEC_PATH.read_text())
    args = _parser(spec["run_seconds"]).parse_args(argv)
    if args.regen_expected:
        return regen_expected(args.quick)
    if args.workload:
        return run_workload(args, spec)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
