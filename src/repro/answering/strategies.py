"""The answering strategies, as data (DESIGN.md §6).

The paper draws query answering as one pipeline (Figure 1) and its
alternatives as *the same pipeline with a different cover* (§3); only
the store-side approaches differ in which store the plan runs on.  A
:class:`Strategy` therefore records two facts, and everything
:class:`~repro.answering.QueryAnswerer` asks about a strategy is
derived from them:

``rewrite``
    How the planned query is produced — ``(answerer, query, tracer,
    budget, derived) -> (planned, search result or None)``.  ``None``
    means the query is evaluated as written, so there is nothing to
    plan-cache, no union-term budget to check and
    ``reformulation_terms`` is 0.
``store``
    ``None`` for the base database; otherwise ``answerer ->``
    :class:`Derived`: the store as resolved once per answer, so the
    plan and the engine it runs on see the same one.  The cost model is
    bound to the base store, so a plan that runs elsewhere yields no
    accuracy sample.

The rows, in the order ``STRATEGIES`` and the CLI list them:

``ucq``         §3: the one-fragment cover — the classic single union.
``pruned-ucq``  the UCQ with statically empty terms removed (ref. [11]).
``scq``         §3: the all-singletons cover of [13].
``ecov``        §4: the cover found by exhaustive search.
``gcov``        §4: the cover found by the greedy Algorithm 1 (default).
``saturation``  §5.3: the query as written, over the saturated store.
``litemat``     LiteMat interval encoding (DESIGN.md §16): range scans
                over an interval-ordered derived store.

An eighth strategy is one more row here plus its rewrite function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, NamedTuple, Optional, Tuple

from ..optimizer.ecov import ecov
from ..optimizer.gcov import gcov
from ..optimizer.search import CoverSearchResult
from ..query.algebra import JUCQ, ucq_as_jucq
from ..query.bgp import BGPQuery
from ..reformulation.covers import Cover, scq_cover, ucq_cover
from ..reformulation.jucq import jucq_for_cover
from ..reformulation.prune import prune_jucq
from ..storage.database import RDFDatabase, Snapshot
from ..storage.interval_encoding import IntervalEncoding
from ..telemetry import trajectory

if TYPE_CHECKING:
    from .answerer import QueryAnswerer


class Derived(NamedTuple):
    """A strategy's derived store, resolved once for one answer."""

    #: The base snapshot the store is current at: the key of the engine
    #: over it and of every plan cached for it.
    snapshot: Snapshot
    #: Returns the store; called only when the engine over it is rebuilt.
    build: Callable[[], RDFDatabase]
    #: The interval encoding a ``litemat`` plan must embed.
    encoding: Optional[IntervalEncoding] = None


Planned = Tuple[Any, Optional[CoverSearchResult]]
#: ``(answerer, query, search trace or None, budget, derived)`` -> the rewriting.
Chooser = Callable[
    ["QueryAnswerer", BGPQuery, Optional[list], Any, Optional[Derived]], Planned
]
Rewrite = Callable[["QueryAnswerer", BGPQuery, Any, Any, Optional[Derived]], Planned]
Store = Callable[["QueryAnswerer"], Derived]


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table (module docstring)."""

    name: str
    rewrite: Optional[Rewrite] = None
    store: Optional[Store] = None

    def plan(
        self,
        answerer: "QueryAnswerer",
        query: BGPQuery,
        tracer,
        budget,
        derived: Optional[Derived],
    ) -> Planned:
        """``(planned query, search result or None)`` for ``query``."""
        if self.rewrite is None:
            return query, None
        return self.rewrite(answerer, query, tracer, budget, derived)


def _fixed(cover_of: Callable[[BGPQuery], Cover]) -> Chooser:
    """A §3 strategy: the pipeline under a cover that needs no search."""

    def choose(answerer, query, trace, budget, derived) -> Planned:
        cover = cover_of(query)
        if len(cover) == 1:  # the query is its own cover query
            return ucq_as_jucq(answerer.reformulator.reformulate(query)), None
        return jucq_for_cover(query, cover, answerer.reformulator), None

    return choose


def _ecov(answerer, query, trace, budget, derived) -> Planned:
    result = ecov(
        query,
        answerer.reformulator,
        answerer.cost_model.cost,
        max_covers=answerer.ecov_max_covers,
        trace=trace,
        budget=budget,
    )
    return result.jucq, result


def _gcov(answerer, query, trace, budget, derived) -> Planned:
    result = gcov(
        query,
        answerer.reformulator,
        answerer.cost_model.cost,
        trace=trace,
        budget=budget,
    )
    return result.jucq, result


def _intervals(answerer, query, trace, budget, derived) -> Planned:
    reformulated = answerer.interval_reformulator.reformulate(query, derived.encoding)
    return ucq_as_jucq(reformulated), None


def _prune(answerer, planned: JUCQ, tracer) -> JUCQ:
    with tracer.span("prune") as span:
        pruned = prune_jucq(planned, answerer.cost_model.estimator)
        span.set(union_terms=pruned.total_union_terms())
    return pruned


def _rewriting(
    name: str,
    choose: Chooser,
    searches: bool = False,
    post: Optional[Callable[["QueryAnswerer", JUCQ, Any], JUCQ]] = None,
    store: Optional[Store] = None,
) -> Strategy:
    """A row whose ``rewrite`` is the one body every rewriting strategy
    shares: choose a cover and build its JUCQ inside one span, then the
    optional post-pass."""
    span_name, label = (
        ("cover-search", "algorithm") if searches else ("reformulate", "strategy")
    )

    def rewrite(answerer, query, tracer, budget, derived) -> Planned:
        trace: Optional[list] = [] if searches and tracer.enabled else None
        with tracer.span(span_name, **{label: name}) as span:
            planned, search = choose(answerer, query, trace, budget, derived)
            if search is None:
                span.set(union_terms=planned.total_union_terms())
            else:
                span.set(
                    covers_explored=search.covers_explored,
                    estimated_cost=search.estimated_cost,
                )
        if trace:
            tracer.record(
                "search",
                {
                    "algorithm": name,
                    "query": query.name,
                    "covers_explored": search.covers_explored,
                    "best_cost": search.estimated_cost,
                    "trajectory": trajectory(trace),
                },
            )
        if post is not None:
            planned = post(answerer, planned, tracer)
        return planned, search

    return Strategy(name, rewrite, store)


def _saturated_store(answerer) -> Derived:
    snapshot = answerer.database.snapshot()
    return Derived(snapshot, lambda: answerer._saturate(snapshot))


def _interval_store(answerer) -> Derived:
    encoding, store, snapshot = answerer.interval_assigner.current(answerer.database)
    return Derived(snapshot, lambda: store, encoding)


#: The seven rows, in public order.
STRATEGY_TABLE: Dict[str, Strategy] = {
    row.name: row
    for row in (
        _rewriting("ucq", _fixed(ucq_cover)),
        _rewriting("pruned-ucq", _fixed(ucq_cover), post=_prune),
        _rewriting("scq", _fixed(scq_cover)),
        _rewriting("ecov", _ecov, searches=True),
        _rewriting("gcov", _gcov, searches=True),
        Strategy("saturation", store=_saturated_store),
        _rewriting("litemat", _intervals, store=_interval_store),
    )
}

#: The strategy names accepted by :meth:`QueryAnswerer.answer`.
STRATEGIES: Tuple[str, ...] = tuple(STRATEGY_TABLE)


def strategy_named(name: str) -> Strategy:
    """The table row called ``name``; ``ValueError`` for an unknown one."""
    try:
        return STRATEGY_TABLE[name]
    except KeyError:
        raise ValueError(
            f"unknown strategy {name!r}; expected one of {STRATEGIES}"
        ) from None
