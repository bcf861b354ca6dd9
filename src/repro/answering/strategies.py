"""The answering strategies, as data (DESIGN.md §6).

The paper draws query answering as one pipeline (Figure 1) and its
alternatives as *the same pipeline with a different cover* (§3); only
the store-side approaches differ in which store the plan runs on.  A
:class:`Strategy` therefore records two facts, and everything
:class:`~repro.answering.QueryAnswerer` asks about a strategy is
derived from them:

``rewrite``
    How the planned JUCQ is produced — ``(answerer, query, tracer,
    budget, derived) -> (planned, search result or None)``.  ``None``
    means the query is evaluated as written (as its one-term JUCQ,
    :func:`~repro.query.algebra.as_jucq`), so there is nothing to
    plan-cache, no union-term budget to check and
    ``reformulation_terms`` is 0.
``derives``
    ``None`` for the base database; otherwise the
    :class:`~repro.reasoning.encoded.Layout` of the derived store the
    plan runs on.  The answerer holds one
    :class:`~repro.answering.stores.DerivedStoreHolder` per such row,
    and one answer reads the store and its engine at most once, through
    :class:`Derived`, so the plan and the engine it runs on see the
    same store.  The cost model is bound to the base store, so a plan
    that runs elsewhere yields no accuracy sample.

One more fact says how long a plan stays valid:

``reads``
    The part of the snapshot the plan is a function of, which is what
    :meth:`~repro.cache.QueryCache.plan_key` keys it on (DESIGN.md §9):
    ``"schema"`` (the digest), ``"statistics"`` (the digest and the
    table's statistics generation: a cost-chosen cover) or ``"data"``
    (the whole snapshot key: the plan reads which atoms are empty);
    any other value fails when the row is built.

The rows, in the order ``STRATEGIES`` and the CLI list them, with
what their plans read:

``ucq``         schema      §3: the one-fragment cover — the classic
                            single union.
``pruned-ucq``  data        the UCQ with statically empty terms removed
                            (ref. [11]).
``scq``         schema      §3: the all-singletons cover of [13].
``ecov``        statistics  §4: the cover found by exhaustive search.
``gcov``        statistics  §4: the cover found by the greedy
                            Algorithm 1 (default).
``saturation``  schema      §5.3: the query as written, as a one-term
                            operand (never cached), over the saturated
                            store.
``litemat``     schema      LiteMat interval encoding (DESIGN.md §16):
                            range scans over an interval-ordered derived
                            store; the layout is a function of the
                            schema fingerprint.

An eighth strategy is one more row here plus its rewrite function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from ..cache.manager import PLAN_READS
from ..optimizer.ecov import ecov
from ..optimizer.gcov import gcov
from ..optimizer.search import CoverSearchResult
from ..query.algebra import JUCQ, as_jucq
from ..query.bgp import BGPQuery
from ..reasoning.encoded import Layout
from ..reformulation.covers import Cover, scq_cover, ucq_cover
from ..reformulation.jucq import jucq_for_cover
from ..reformulation.litemat import interval_reformulate
from ..reformulation.prune import prune_jucq
from ..storage.database import Snapshot
from ..telemetry import trajectory
from .stores import Derivation, DerivedStoreHolder

if TYPE_CHECKING:
    from .answerer import QueryAnswerer


@dataclass
class Derived:
    """What one answer's plan reads and runs on."""

    #: The base snapshot the answer reads: the plan cache keys each plan
    #: on the part of it the plan reads.
    snapshot: Snapshot
    #: The holder of the row's derived store; None for the base database.
    holder: Optional[DerivedStoreHolder] = None
    _derivation: Optional[Derivation] = field(default=None, init=False)

    def derivation(self) -> Derivation:
        """The derived store and its engine at the snapshot, derived on
        the first ask: once per answer, and only if a stage reads it."""
        if self._derivation is None:
            self._derivation = self.holder.at(self.snapshot)
        return self._derivation


Planned = Tuple[JUCQ, Optional[CoverSearchResult]]
#: ``(answerer, query, search trace or None, budget, derived)`` -> the rewriting.
Chooser = Callable[["QueryAnswerer", BGPQuery, Optional[list], Any, Derived], Planned]
Rewrite = Callable[["QueryAnswerer", BGPQuery, Any, Any, Derived], Planned]


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table (module docstring)."""

    name: str
    reads: str
    rewrite: Optional[Rewrite] = None
    derives: Optional[Layout] = None

    def __post_init__(self) -> None:
        if self.reads not in PLAN_READS:
            raise ValueError(
                f"strategy {self.name!r} reads {self.reads!r}, not one of {PLAN_READS}"
            )

    def plan(
        self,
        answerer: "QueryAnswerer",
        query: BGPQuery,
        tracer,
        budget,
        derived: Derived,
    ) -> Planned:
        """``(planned JUCQ, search result or None)`` for ``query``."""
        if self.rewrite is None:
            return as_jucq(query), None
        return self.rewrite(answerer, query, tracer, budget, derived)


def _fixed(cover_of: Callable[[BGPQuery], Cover]) -> Chooser:
    """A §3 strategy: the pipeline under a cover that needs no search."""

    def choose(answerer, query, trace, budget, derived) -> Planned:
        cover = cover_of(query)
        reformulator = answerer.reformulator.at(derived.snapshot.schema)
        if len(cover) == 1:  # the query is its own cover query
            return as_jucq(reformulator.reformulate(query)), None
        return jucq_for_cover(query, cover, reformulator), None

    return choose


def _ecov(answerer, query, trace, budget, derived) -> Planned:
    result = ecov(
        query,
        answerer.reformulator.at(derived.snapshot.schema),
        partial(answerer.cost_model.cost, view=derived.snapshot.table),
        max_covers=answerer.ecov_max_covers,
        trace=trace,
        budget=budget,
    )
    return result.jucq, result


def _gcov(answerer, query, trace, budget, derived) -> Planned:
    result = gcov(
        query,
        answerer.reformulator.at(derived.snapshot.schema),
        partial(answerer.cost_model.cost, view=derived.snapshot.table),
        trace=trace,
        budget=budget,
    )
    return result.jucq, result


def _intervals(answerer, query, trace, budget, derived) -> Planned:
    encoding = derived.derivation().store.encoding
    return as_jucq(interval_reformulate(query, encoding.schema, encoding)), None


def _prune(answerer, planned: JUCQ, tracer, derived: Derived) -> JUCQ:
    with tracer.span("prune") as span:
        view = derived.snapshot.table
        pruned = prune_jucq(planned, answerer.cost_model.estimator, view)
        span.set(union_terms=pruned.total_union_terms())
    return pruned


def _rewriting(
    name: str,
    reads: str,
    choose: Chooser,
    searches: bool = False,
    post: Optional[Callable[["QueryAnswerer", JUCQ, Any, Derived], JUCQ]] = None,
    derives: Optional[Layout] = None,
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
            planned = post(answerer, planned, tracer, derived)
        return planned, search

    return Strategy(name, reads, rewrite, derives)


#: The seven rows, in public order.
STRATEGY_TABLE: Dict[str, Strategy] = {
    row.name: row
    for row in (
        _rewriting("ucq", "schema", _fixed(ucq_cover)),
        _rewriting("pruned-ucq", "data", _fixed(ucq_cover), post=_prune),
        _rewriting("scq", "schema", _fixed(scq_cover)),
        _rewriting("ecov", "statistics", _ecov, searches=True),
        _rewriting("gcov", "statistics", _gcov, searches=True),
        Strategy("saturation", "schema", derives=Layout.SATURATED),
        _rewriting("litemat", "schema", _intervals, derives=Layout.INTERVALS),
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
