"""Shared infrastructure for the cover-search algorithms.

Both ECov and GCov score candidate covers by (a) building the
cover-based JUCQ reformulation — reformulating each fragment's cover
query, memoized across candidates — and (b) applying a cost function to
the JUCQ.  :class:`CoverScorer` packages that, counts how many covers
were explored (the paper's Figures 7-8 metric), and memoizes per-cover
costs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict

from ..query.algebra import JUCQ
from ..query.bgp import BGPQuery
from ..reformulation.covers import Cover
from ..reformulation.jucq import CoverQueryMemo, jucq_for_cover
from ..reformulation.reformulate import Reformulator

#: A cost function maps a JUCQ to an estimated scalar cost.
CostFunction = Callable[[JUCQ], float]


class SearchInfeasible(RuntimeError):
    """The search space is too large for the configured budget.

    The paper's ECov hits this on the 10-atom DBLP Q10: "the search
    space is so large that exhaustive search is unfeasible".
    """


@dataclass
class CoverSearchResult:
    """Outcome of a cover search."""

    query: BGPQuery
    cover: Cover
    jucq: JUCQ
    estimated_cost: float
    covers_explored: int
    elapsed_s: float
    algorithm: str


class CoverScorer:
    """Builds and costs cover-based JUCQs, with memoization and accounting."""

    def __init__(
        self,
        query: BGPQuery,
        reformulator: Reformulator,
        cost_function: CostFunction,
    ):
        self.query = query
        self.reformulator = reformulator
        self.cost_function = cost_function
        self._jucq_cache: Dict[Cover, JUCQ] = {}
        #: A move changes one fragment; the others keep their cover query.
        self._cover_queries: CoverQueryMemo = {}
        self._cost_cache: Dict[Cover, float] = {}
        #: Distinct covers whose cost was computed.
        self.covers_explored = 0

    def jucq(self, cover: Cover) -> JUCQ:
        """The JUCQ reformulation for a cover (validation skipped: the
        search algorithms only generate valid covers)."""
        cached = self._jucq_cache.get(cover)
        if cached is None:
            cached = jucq_for_cover(
                self.query,
                cover,
                self.reformulator,
                validate=False,
                cover_queries=self._cover_queries,
            )
            self._jucq_cache[cover] = cached
        return cached

    def cost(self, cover: Cover) -> float:
        """Estimated cost of the cover's JUCQ (memoized).

        When the reformulator carries a term limit and a fragment blows
        past it, the cover is simply infeasible (its operand would
        exceed any engine's statement size): cost +inf, nothing
        materialized.
        """
        from ..reformulation.reformulate import ReformulationLimitExceeded

        cached = self._cost_cache.get(cover)
        if cached is None:
            try:
                cached = self.cost_function(self.jucq(cover))
            except ReformulationLimitExceeded:
                cached = float("inf")
            self._cost_cache[cover] = cached
            self.covers_explored += 1
        return cached


class Stopwatch:
    """Tiny elapsed-time helper."""

    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return time.perf_counter() - self.start

