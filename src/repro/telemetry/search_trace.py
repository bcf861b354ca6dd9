"""Serialization of the optimizer's cover-search exploration.

GCov (and ECov) accept a ``trace`` list that receives ``(cover, cost)``
pairs in the order covers were costed — the exploration the paper's
Figures 7-8 count.  This module turns that raw list into JSON-friendly
trajectory records: the cost of each explored cover plus the running
best cost, which makes the anytime convergence curve (and any
exploration plateau) directly plottable from a trace file.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Sequence, Tuple


def cover_fragments(cover: Iterable[frozenset]) -> List[List[int]]:
    """A cover as sorted lists of sorted triple indexes (stable JSON form)."""
    return sorted(sorted(fragment) for fragment in cover)


def trajectory(trace: Sequence[Tuple[Any, float]]) -> List[Dict[str, Any]]:
    """Per-step exploration records with the running best cost."""
    records: List[Dict[str, Any]] = []
    best = float("inf")
    for step, (cover, cost) in enumerate(trace):
        if cost < best:
            best = cost
        records.append(
            {
                "step": step,
                "cost": cost,
                "best_cost": best,
                "fragments": cover_fragments(cover),
            }
        )
    return records
