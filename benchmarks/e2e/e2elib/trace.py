"""The traced run: spans recorded from the benchmark's own files.

With ``--trace`` the single ``QueryAnswerer.answer`` call is replaced
by :class:`StagedDriver`, which makes the same public calls ``answer``
makes — parse, plan (``gcov`` through timing proxies when planning
cold), ``evaluate_relation``, decode — one span per call.  A span's
name starts with its layer (``src/repro/<layer>``); a layer's self time
is its spans' durations minus the part their child spans cover.  Spans
stay in memory and are written out when the workload ends.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional, Tuple

from repro.engine import to_sql
from repro.optimizer import gcov
from repro.query import parse_query
from repro.telemetry import MetricsRecorder


class _Span:
    __slots__ = ("tracer", "name", "ident", "parent", "start", "child_s")

    def __init__(self, tracer: "SpanTracer", name: str):
        self.tracer = tracer
        self.name = name
        self.child_s = 0.0

    def __enter__(self) -> "_Span":
        tracer = self.tracer
        tracer.next_ident += 1
        self.ident = tracer.next_ident
        self.parent = tracer.current
        tracer.current = self
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        end = perf_counter()
        tracer = self.tracer
        parent = self.parent
        tracer.current = parent
        duration = end - self.start
        if parent is not None:
            parent.child_s += duration
        tracer.records.append(
            (
                self.ident,
                0 if parent is None else parent.ident,
                self.name,
                self.start,
                end,
                duration - self.child_s,
                tracer.operation,
                tracer.cell,
                tracer.pass_index,
            )
        )


class SpanTracer:
    """Single-threaded span recorder (the library workloads run serially)."""

    FIELDS = ("id", "parent", "name", "start", "end", "self_s", "op", "cell", "pass")

    def __init__(self) -> None:
        self.records: List[tuple] = []
        self.counts: Dict[Tuple[int, str], Dict[str, int]] = defaultdict(dict)
        self.current: Optional[_Span] = None
        self.next_ident = 0
        self.operation = 0
        self.cell = ""
        self.pass_index = 0

    def begin(self, cell: str, pass_index: int) -> None:
        """Start the next operation: its spans share one operation id."""
        self.operation += 1
        self.cell = cell
        self.pass_index = pass_index

    def span(self, name: str) -> _Span:
        return _Span(self, name)

    def count(self, name: str, amount: int) -> None:
        """A count taken at the same boundary as the current operation."""
        bucket = self.counts[(self.pass_index, self.cell)]
        bucket[name] = bucket.get(name, 0) + amount

    # -- aggregation ---------------------------------------------------
    def best_pass_ms(self) -> Dict[str, Dict[str, float]]:
        """``name -> cell -> self time (ms)``, from each cell's best pass.

        A cell's best pass is the timed pass in which its operation took
        the least time in total, so the layer times of a cell add up to
        one real operation, the same one the untraced best latency is
        compared with.
        """
        by_operation: Dict[Tuple[str, int], Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        for _id, _parent, name, _s, _e, self_s, _op, cell, pass_index in self.records:
            if pass_index >= 0:
                by_operation[(cell, pass_index)][name] += self_s
        best: Dict[str, Dict[str, float]] = {}
        for (cell, _pass), spans in by_operation.items():
            if cell not in best or sum(spans.values()) < sum(best[cell].values()):
                best[cell] = spans
        table: Dict[str, Dict[str, float]] = defaultdict(dict)
        for cell, spans in best.items():
            for name, self_s in spans.items():
                table[name][cell] = 1000.0 * self_s
        return table

    def ms_per_operation(self, operations_per_pass: int) -> Dict[str, float]:
        """Per span name: its self time summed over the cells' best
        passes, spread over the operations of a pass."""
        return {
            name: sum(by_cell.values()) / operations_per_pass
            for name, by_cell in self.best_pass_ms().items()
        }

    def counts_per_pass(self) -> Dict[str, float]:
        """Per count name: the median over timed passes of the pass total."""
        totals: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for (pass_index, _cell), bucket in self.counts.items():
            if pass_index >= 0:
                for name, amount in bucket.items():
                    totals[name][pass_index] += amount
        return {name: float(median(by_pass.values())) for name, by_pass in totals.items()}

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as sink:
            for record in self.records:
                row: Dict[str, Any] = dict(zip(self.FIELDS, record))
                row["layer"] = record[2].partition(".")[0]
                sink.write(json.dumps(row) + "\n")


class ReformulatorProxy:
    """Times ``Reformulator.reformulate`` as ``gcov`` sees it."""

    def __init__(self, inner, tracer: SpanTracer):
        self.inner = inner
        self.tracer = tracer
        #: The fragment queries that missed the memo, for the
        #: ``minimize_ucq`` replay (``analysis.minimize_ms``).
        self.missed: List[Any] = []

    def reformulate(self, query):
        misses = self.inner.cache.misses
        with self.tracer.span("reformulation.reformulate"):
            result = self.inner.reformulate(query)
        if self.inner.cache.misses > misses:
            self.missed.append(query)
        return result

    def __getattr__(self, name: str):
        return getattr(self.inner, name)


class CostProxy:
    """A counting, timing ``cost_fn`` for the cover search."""

    def __init__(self, cost, tracer: SpanTracer):
        self.cost = cost
        self.tracer = tracer

    def __call__(self, jucq) -> float:
        self.tracer.count("cost.calls", 1)
        with self.tracer.span("cost.cost"):
            return self.cost(jucq)


#: ``MetricsRecorder`` operator counters -> the benchmark's count names.
ENGINE_COUNTS = {
    "engine.rows_scanned": ("scan.rows",),
    "engine.rows_joined": (
        "join.hash.emit_rows",
        "join.merge.emit_rows",
        "join.cross.emit_rows",
    ),
    "engine.union_inputs": ("union.input_rows",),
    "engine.dedup_in": ("dedup.input_rows",),
    "engine.dedup_out": ("dedup.output_rows",),
}


class StagedDriver:
    """``answer()`` taken apart at the layer boundaries.

    ``cold=True`` plans every operation with ``gcov`` through the
    proxies (the answerer has no plan cache); otherwise planning goes
    through ``QueryAnswerer.plan``, i.e. the plan cache.  The derived
    stores of ``saturation`` and ``litemat`` are kept here the way the
    answerer keeps them: rebuilt when the schema or the data moved.
    """

    def __init__(self, tracer: SpanTracer, answerer, cold: bool):
        self.tracer = tracer
        self.answerer = answerer
        self.database = answerer.database
        self.cold = cold
        if cold:
            self.reformulator = ReformulatorProxy(answerer.reformulator, tracer)
            self.cost = CostProxy(answerer.cost_model.cost, tracer)
        self._saturated: Tuple[Any, Any] = (None, None)
        self._litemat: Tuple[Any, Any] = (None, None)
        #: The engine memoizes generated SQL per plan; so does the driver.
        self._sql: Dict[Any, str] = {}
        #: The last plan per cell name, for the after-run layer measures.
        self.plans: Dict[str, Any] = {}

    def _plan(self, query, strategy: str):
        tracer = self.tracer
        if self.cold:
            with tracer.span("optimizer.gcov"):
                result = gcov(query, self.reformulator, self.cost)
            tracer.count("optimizer.covers_explored", result.covers_explored)
            return result.jucq
        with tracer.span("answering.plan"):
            planned, _search = self.answerer.plan(query, strategy)
        return planned

    def _engine(self, strategy: str):
        database = self.database
        base = self.answerer.engine
        if strategy == "saturation":
            key = (database.schema.fingerprint(), database.epoch)
            if self._saturated[0] != key:
                with self.tracer.span("reasoning.saturate"):
                    saturated = database.saturated()
                self._saturated = (key, base.for_database(saturated))
            return self._saturated[1]
        if strategy == "litemat":
            with self.tracer.span("reasoning.litemat_encode"):
                _encoding, store, epoch = self.answerer.interval_assigner.current(
                    database
                )
            if self._litemat[0] != epoch:
                self._litemat = (epoch, base.for_database(store))
            return self._litemat[1]
        return base

    def answer(self, text: str, cell) -> frozenset:
        # The operation's own span: its self time is the driver's glue.
        with self.tracer.span("trace.driver"):
            return self._answer(text, cell)

    def _answer(self, text: str, cell) -> frozenset:
        tracer = self.tracer
        with tracer.span("query.parse"):
            query = parse_query(text, name=cell.query)
        # answer() plans before it asks for the engine; litemat's plan
        # pays the re-encode either way, so the order only moves where
        # the span sits, not what the operation costs.
        engine = self._engine(cell.strategy)
        planned = self._plan(query, cell.strategy)
        self.plans[cell.name] = planned
        if cell.strategy != "saturation":
            tracer.count("reformulation.union_terms", planned.total_union_terms())
        decode = engine.database.dictionary.decode
        if cell.engine == "sqlite":
            sql = self._sql.get(planned)
            if sql is None:
                with tracer.span("engine.sqlite.sql"):
                    sql = to_sql(planned, engine.database.dictionary)
                self._sql[planned] = sql
            with tracer.span("engine.sqlite.execute"):
                rows = engine.execute_sql(sql)
        else:
            recorder = MetricsRecorder()
            with tracer.span("engine.evaluate_relation"):
                relation = engine.evaluate_relation(planned, metrics=recorder)
            for name, sources in ENGINE_COUNTS.items():
                tracer.count(name, sum(recorder.get(s) for s in sources))
            rows = None
        with tracer.span("engine.decode"):
            if rows is None:
                rows = relation.to_tuples()
            answers = frozenset(tuple(decode(v) for v in row) for row in rows)
        tracer.count("engine.answers", len(answers))
        return answers
