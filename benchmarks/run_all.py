"""Regenerate every paper table and figure in one run.

Usage::

    python benchmarks/run_all.py                   # everything
    python benchmarks/run_all.py table2 fig6       # a selection

Full grids are printed paper-style and per-bench text tables land under
``benchmarks/results/``.  Scales and timeouts come from the ``REPRO_*``
environment variables (see ``_harness.py``).
"""

from __future__ import annotations

import argparse
import sys
import time

import bench_table1_q1_stats
import bench_table2_q1_covers
import bench_table3_q2_stats
import bench_table4_workload_stats
import bench_fig4_lubm_small
import bench_fig5_lubm_large
import bench_fig6_dblp
import bench_fig7_lubm_search
import bench_fig8_dblp_search
import bench_fig9_cost_models
import bench_fig10_saturation
import bench_ablation_cost_terms
import bench_ablation_calibration
import bench_ablation_pruning
import bench_cache
import bench_litemat

TARGETS = {
    "table1": bench_table1_q1_stats.main,
    "table2": bench_table2_q1_covers.main,
    "table3": bench_table3_q2_stats.main,
    "table4": bench_table4_workload_stats.main,
    "fig4": bench_fig4_lubm_small.main,
    "fig5": bench_fig5_lubm_large.main,
    "fig6": bench_fig6_dblp.main,
    "fig7": bench_fig7_lubm_search.main,
    "fig8": bench_fig8_dblp_search.main,
    "fig9": bench_fig9_cost_models.main,
    "fig10": bench_fig10_saturation.main,
    "ablation-cost": bench_ablation_cost_terms.main,
    "ablation-calibration": bench_ablation_calibration.main,
    "ablation-pruning": bench_ablation_pruning.main,
    "cache": bench_cache.main,
    "litemat": bench_litemat.main,
}


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "targets",
        nargs="*",
        metavar="TARGET",
        help=f"benchmarks to run (default all): {', '.join(sorted(TARGETS))}",
    )
    args = parser.parse_args(argv)
    chosen = args.targets or list(TARGETS)
    unknown = [name for name in chosen if name not in TARGETS]
    if unknown:
        raise SystemExit(f"unknown targets {unknown}; choose from {sorted(TARGETS)}")
    for name in chosen:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        start = time.perf_counter()
        TARGETS[name]()
        print(f"[{name} done in {time.perf_counter() - start:.1f}s]")


if __name__ == "__main__":
    main(sys.argv[1:])
