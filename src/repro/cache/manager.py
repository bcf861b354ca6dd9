"""The multi-level query-answering cache (DESIGN.md §9).

A :class:`QueryCache` coordinates the cache levels of one answering
pipeline:

* **plan cache** (owned here) — the planned reformulation per
  ``(query fingerprint, strategy, the part of the snapshot the plan
  reads)``, including memoized *failures* (infeasible searches, blown
  term limits), so a repeated monster query fails fast.  It is also
  the only memo of ``litemat``'s interval plans;
* **reformulation cache** (owned by
  :class:`repro.reformulation.Reformulator`, registered here) — CQ→UCQ
  rewritings keyed by ``(schema part of the snapshot, canonical
  form)``, deliberately *not* by the data part: reformulations are pure
  schema consequences and survive data updates;
* **engine caches** (e.g. the SQLite engine's compiled-SQL cache,
  registered here) — keyed per plan and dictionary size.

Key invalidation matrix (a new key, never a clear):

=====================  ==============  ==================  ======================
update                 reformulations  plans               counts / estimates
=====================  ==============  ==================  ======================
data (insert)          survive         by what they read   start empty
schema (constraints)   re-keyed        re-keyed            survive
=====================  ==============  ==================  ======================

A data write keeps a plan that reads the schema alone (``ucq``,
``scq``, ``litemat``), keeps a cost-chosen plan (``gcov``, ``ecov``)
until the row count moves to another :func:`statistics_generation`, and
re-keys a plan that reads the data (``pruned-ucq``).  Engine caches
(SQL) are keyed per plan and dictionary size.

The last column is the counts each table view memoizes and the
cardinality estimator's records (DESIGN.md §19): both belong to one
table version, so a data write's new view starts with empty ones.

The three memo levels fill through one rule, :meth:`LRUCache.memo
<repro.cache.lru.LRUCache.memo>`: one counted lookup per call, and a
memoized failure stored frozen as ``(type, args)`` and re-raised as a
fresh exception on every hit, never as a live exception object.

The registry exists so one ``cache-stats`` surface (CLI, telemetry
counters, the benchmark harness) sees every level regardless of which
layer owns the underlying :class:`~repro.cache.lru.LRUCache`.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Any, Dict, Hashable, Tuple

from .fingerprint import query_fingerprint
from .lru import LRUCache, MISSING

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..query.bgp import BGPQuery
    from ..storage.database import RDFDatabase, Snapshot


#: What a plan can read, narrowest first: the values of a strategy
#: row's ``reads``, each keyed by :meth:`QueryCache.plan_key`.
PLAN_READS = ("schema", "statistics", "data")

#: Entries of the plan cache.
PLAN_CACHE_CAPACITY = 512


def statistics_generation(rows: int) -> int:
    """The statistics generation of a table of ``rows`` rows:
    ``⌊8·log2(rows + 1)⌋``, a geometric bucket about 9 % wide.

    A cost-chosen plan is keyed on it rather than on the table version:
    Theorem 3.1 makes every cover correct on every data state, so a
    write can change which cover is cheapest but never whether the held
    one is right, and the estimator that chose it errs by far more than
    a few per cent of rows (DESIGN.md §9).  The cover is searched again
    once the table has grown by about a tenth.
    """
    return int(8 * math.log2(rows + 1))


@functools.lru_cache(maxsize=None)
def _reads(strategy: str) -> str:
    """The ``reads`` fact of the strategy row called ``strategy``; the
    table is imported on first use, since ``repro.answering`` imports
    this package."""
    from ..answering.strategies import strategy_named

    return strategy_named(strategy).reads


class QueryCache:
    """Coordinates the cache levels threaded through a QueryAnswerer."""

    def __init__(self) -> None:
        self.plans = LRUCache(PLAN_CACHE_CAPACITY)
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

        The key holds the part of the snapshot the strategy's plan reads
        (its row's ``reads``, DESIGN.md §9): the schema digest for a plan
        made from the schema alone, the digest and the
        :func:`statistics_generation` for a cost-chosen cover, the whole
        snapshot key for a plan that reads the data (pruning reads
        emptiness).  A plan of an older state is just another key.
        """
        reads = _reads(strategy)
        if reads == "schema":
            part: Hashable = snapshot.schema.digest
        elif reads == "statistics":
            part = (snapshot.schema.digest, statistics_generation(snapshot.table.count))
        else:
            part = snapshot.key
        return (query_fingerprint(query), strategy, part)

    def get_plan(
        self, database: "RDFDatabase", query: "BGPQuery", strategy: str
    ) -> Any:
        """Cached plan entry or :data:`~repro.cache.lru.MISSING`."""
        return self.plans.get(
            self.plan_key(database.snapshot(), query, strategy), MISSING
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Flat lifetime counters, ``cache.<level>.<counter>`` keyed.

        Monotone over the cache's life and shared by every thread
        answering through it, so no one answer's share can be read off
        them: a traced answer's own plan-cache outcome is its ``plan``
        span's ``cached`` (DESIGN.md §7).
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
