"""Aggregation: everything is built from each cell's best pass.

The stated machine's cores run 15-35 % slower for seconds to minutes at
a time (noisy neighbours: a fixed 30 ms kernel has its median a third
above its minimum), and a gen-2 GC pause adds up to 1.7 s to whichever
operation it lands in.  Both only ever add time.  So a cell's latency
is its *minimum* over the timed passes — the cost of the code when the
machine did not interfere — and throughput comes from the best pass,
which still pays for every collection the pass's own garbage caused.
A pooled mean or percentile over heterogeneous cells would move with
every slow period.
"""

from __future__ import annotations

import math
import resource
from time import perf_counter
from typing import Dict, Iterable, List, Mapping, Sequence

import numpy as np


_CALIBRATION_KEYS = np.arange(20_000, dtype=np.int64)[::-1].copy()


def calibration_tick() -> float:
    """Seconds one fixed piece of work takes right now.

    The work is the interpreter and numpy doing what the engine does
    (integer loops, tuple allocation, hashing, sort, unique) and touches
    no ``repro`` code, so only the machine can change its cost.
    """
    started = perf_counter()
    total = 0
    for value in range(3_000):
        total += value * value
    frozenset((value, value + 1) for value in range(1_000))
    np.sort(_CALIBRATION_KEYS)
    np.unique(_CALIBRATION_KEYS % 997)
    return perf_counter() - started


def calibrate(ticks: int = 60) -> List[float]:
    return [calibration_tick() for _ in range(ticks)]


def machine_speed(ticks: Sequence[float]) -> Dict[str, float]:
    """What the result document records about the machine during a run."""
    return {
        "calibration_tick_ms_p05": 1000.0 * percentile(ticks, 0.05),
        "calibration_tick_ms_median": 1000.0 * percentile(ticks, 0.5),
        "ticks": len(ticks),
    }


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q * len(ordered)) - 1)
    return ordered[rank]


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def best_ms(samples_s: Mapping[str, List[float]]) -> Dict[str, float]:
    """Each cell's best (smallest) latency over the passes, in ms."""
    return {cell: 1000.0 * min(values) for cell, values in samples_s.items()}


def end_to_end(
    samples_s: Mapping[str, List[float]],
    throughput_per_pass: Sequence[float],
    setup_s: float,
) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    ``samples_s`` holds one latency per cell and timed pass;
    ``throughput_per_pass`` the operations per second of each pass,
    counting only time spent inside operations (the answer check
    between operations is not the system's time).
    """
    best = best_ms(samples_s)
    return {
        "setup_s": setup_s,
        "throughput_qps": max(throughput_per_pass),
        "geomean_ms": geomean(list(best.values())),
        "peak_rss_mb": peak_rss_mb(),
    }


def plan_cache_counters(answerers: Iterable) -> Dict[str, int]:
    """``QueryCache.counters()`` summed over the answerers that have a cache."""
    totals: Dict[str, int] = {}
    for answerer in answerers:
        if answerer.cache is not None:
            for name, value in answerer.cache.counters().items():
                totals[name] = totals.get(name, 0) + value
    return totals


def plan_cache_metrics(before: Mapping[str, int], after: Mapping[str, int]) -> Dict[str, float]:
    """The plan-cache metrics of the timed region, from counter deltas."""
    hits, misses, invalidations = (
        after[f"cache.plan.{name}"] - before.get(f"cache.plan.{name}", 0)
        for name in ("hits", "misses", "invalidations")
    )
    return {
        "cache.plan.hit_ratio": hits / max(1, hits + misses),
        "cache.plan.misses": float(misses),
        "cache.plan.invalidations": float(invalidations),
    }


def validity_metrics(
    span_ms: Mapping[str, float],
    operations: int,
    untraced_s: Mapping[str, List[float]],
    busy_s: Mapping[bool, Sequence[float]],
) -> Dict[str, float]:
    """How far the traced run can be trusted, plus the slowest cell.

    ``span_ms`` is per operation; ``busy_s[traced]`` the per-pass time
    inside operations of the traced and the untraced passes.
    """
    best = best_ms(untraced_s)
    return {
        "trace.coverage": sum(span_ms.values()) * operations / sum(best.values()),
        "trace.overhead_ratio": min(busy_s[True]) / min(busy_s[False]),
        "answering.slowest_cell_ms": max(best.values()),
    }
