"""Multi-level caching for the answering pipeline (DESIGN.md §9).

Three pieces:

* :mod:`.lru` — the bounded LRU map with hit/miss/eviction counters
  that backs every cache level;
* :mod:`.fingerprint` — variable-renaming-invariant query fingerprints,
  the query half of every cache key;
* :mod:`.manager` — :class:`QueryCache`, coordinating the plan cache
  with the reformulation and engine caches and exporting their
  counters through telemetry.
"""

from .fingerprint import query_fingerprint
from .lru import LRUCache, MISSING
from .manager import QueryCache

__all__ = [
    "LRUCache",
    "MISSING",
    "QueryCache",
    "query_fingerprint",
]
