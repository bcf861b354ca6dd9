"""The multi-level query-answering cache (DESIGN.md §9).

A :class:`QueryCache` coordinates the cache levels of one answering
pipeline:

* **plan cache** (owned here) — the planned reformulation per
  ``(query fingerprint, strategy, snapshot)``, including memoized
  *failures* (infeasible searches, blown term limits), so a repeated
  monster query fails fast;
* **reformulation cache** (owned by
  :class:`repro.reformulation.Reformulator`, registered here) — CQ→UCQ
  rewritings keyed by ``(schema part of the snapshot, canonical
  form)``, deliberately *not* by the data part: reformulations are pure
  schema consequences and survive data updates;
* **engine caches** (e.g. the SQLite engine's compiled-SQL cache,
  registered here) — keyed per plan and dictionary size.

Key invalidation matrix (a new key, never a clear):

=====================  ==============  ============
update                 reformulations  plans / SQL
=====================  ==============  ============
data (insert)          survive         re-keyed
schema (constraints)   re-keyed        re-keyed
=====================  ==============  ============

The registry exists so one ``cache-stats`` surface (CLI, telemetry
counters, the benchmark harness) sees every level regardless of which
layer owns the underlying :class:`~repro.cache.lru.LRUCache`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, Hashable, Tuple

from .fingerprint import query_fingerprint
from .lru import LRUCache, MISSING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..query.bgp import BGPQuery
    from ..storage.database import RDFDatabase, Snapshot


class QueryCache:
    """Coordinates the cache levels threaded through a QueryAnswerer."""

    def __init__(self, plan_capacity: int = 512) -> None:
        self.plans = LRUCache(plan_capacity)
        self._levels: Dict[str, LRUCache] = {"plan": self.plans}

    # ------------------------------------------------------------------
    # Level registry
    # ------------------------------------------------------------------
    def register(self, name: str, cache: LRUCache) -> LRUCache:
        """Expose another layer's LRU under ``name`` in stats/counters."""
        self._levels[name] = cache
        return cache

    @property
    def levels(self) -> Dict[str, LRUCache]:
        """The registered caches by level name (read-only view by use)."""
        return dict(self._levels)

    # ------------------------------------------------------------------
    # Plan cache
    # ------------------------------------------------------------------
    @staticmethod
    def plan_key(
        snapshot: "Snapshot", query: "BGPQuery", strategy: str
    ) -> Tuple[Hashable, ...]:
        """The key of one planning request against one database state.

        Both parts of the snapshot count: the schema decides the
        reformulation, the data the statistics-driven choices (cover,
        pruned terms, join orders).
        """
        return (query_fingerprint(query), strategy, snapshot)

    def get_plan(
        self, database: "RDFDatabase", query: "BGPQuery", strategy: str
    ) -> Any:
        """Cached plan entry or :data:`~repro.cache.lru.MISSING`."""
        return self.plans.get(
            self.plan_key(database.snapshot(), query, strategy), MISSING
        )

    def put_plan(
        self,
        database: "RDFDatabase",
        query: "BGPQuery",
        strategy: str,
        entry: Any,
    ) -> None:
        """Store a plan entry (a result or a memoized failure)."""
        self.plans.put(self.plan_key(database.snapshot(), query, strategy), entry)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Flat monotone counters, ``cache.<level>.<counter>`` keyed.

        The answerer snapshots this before and after a call and records
        the delta into the call's
        :class:`~repro.telemetry.MetricsRecorder`.
        """
        flat: Dict[str, int] = {}
        for name, cache in self._levels.items():
            flat[f"cache.{name}.hits"] = cache.hits
            flat[f"cache.{name}.misses"] = cache.misses
            flat[f"cache.{name}.evictions"] = cache.evictions
            flat[f"cache.{name}.invalidations"] = cache.invalidations
        return flat

    def stats(self) -> Dict[str, Dict[str, Any]]:
        """Per-level stats snapshot (sizes, counters, hit rates)."""
        return {name: cache.stats() for name, cache in sorted(self._levels.items())}

    def clear(self) -> None:
        """Drop every entry in every registered level."""
        for cache in self._levels.values():
            cache.clear()

    def __repr__(self) -> str:
        levels = ", ".join(
            f"{name}={len(cache)}" for name, cache in sorted(self._levels.items())
        )
        return f"QueryCache({levels})"
