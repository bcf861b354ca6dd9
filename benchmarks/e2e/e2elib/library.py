"""The two in-process library workloads: ``cold_plan`` and ``warm_eval``.

Same operation, opposite layers: ``cold_plan`` rebuilds the answerers
(no plan cache, empty reformulation memo) at the start of every pass so
the optimizer path does most of the work; ``warm_eval`` keeps
long-lived answerers with a ``QueryCache`` so every plan is a cache hit
and the engine does most of it.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Tuple

from repro.analysis import minimize_ucq
from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.engine import SQLiteEngine
from repro.query import parse_query
from repro.reformulation import Reformulator, reformulate

from . import micro
from .check import Checker, Expected
from .data import (
    SETUP_REPEATS,
    Cell,
    RunConfig,
    build_dataset,
    cold_plan_cells,
    query_texts,
    seed_ordered,
    warm_eval_cells,
)
from .env import OUT_DIR
from .stats import (
    calibrate,
    end_to_end,
    geomean,
    machine_speed,
    plan_cache_counters,
    plan_cache_metrics,
    validity_metrics,
)
from .trace import SpanTracer, StagedDriver

AnswererKey = Tuple[str, str]  # (dataset, engine)


class Library:
    def __init__(self, config: RunConfig):
        self.config = config
        self.cold = config.workload == "cold_plan"
        cells = cold_plan_cells() if self.cold else warm_eval_cells()
        self.cells: List[Cell] = seed_ordered(cells, config.seed)
        self.datasets = sorted({cell.dataset for cell in cells})
        self.texts = {name: query_texts(name) for name in self.datasets}
        self.expected = Expected(config.scale.name)
        self.checker = Checker()
        self.tracer = SpanTracer()
        self.databases: Dict[str, Any] = {}
        self.answerers: Dict[AnswererKey, QueryAnswerer] = {}
        self.drivers: Dict[AnswererKey, StagedDriver] = {}
        #: Latencies per cell over the timed passes, by kind of pass.
        self.samples: Dict[bool, Dict[str, List[float]]] = {False: {}, True: {}}
        self.busy: Dict[bool, List[float]] = {False: [], True: []}
        #: From the untraced operations' own reports and clocks.
        self.optimization_s = 0.0
        self.total_s = 0.0
        self.overhead_s: List[float] = []
        self.memo_hit_ratios: List[float] = []
        self.analysis_counts: List[Dict[str, int]] = []
        self.answer_counts: Dict[str, int] = {}
        self.calibration: List[float] = []
        #: Kept from the traced passes for the after-run measures: the
        #: last plan per cell, and the fragment queries that missed the
        #: reformulation memo in the last traced pass.
        self.plans: Dict[str, Any] = {}
        self.missed: List[Tuple[Any, List[Any]]] = []

    # -- construction ----------------------------------------------------
    def _build(self) -> float:
        self.databases = {}
        gc.collect()
        started = perf_counter()
        for name in self.datasets:
            self.databases[name] = build_dataset(name, self.config.scale)
        return perf_counter() - started

    def _answerer(self, key: AnswererKey) -> QueryAnswerer:
        database = self.databases[key[0]]
        if self.cold:
            return QueryAnswerer(database, reformulator=Reformulator(database.schema))
        if key[1] == "sqlite":
            return QueryAnswerer(
                database, engine=SQLiteEngine(database), cache=QueryCache()
            )
        # No timeout anywhere: a deadline makes the answerer skip the plan
        # cache, which would silently turn this into a planning workload.
        return QueryAnswerer(database, cache=QueryCache())

    def _construct(self) -> None:
        """The long-lived answerers (``cold_plan`` replaces them per operation)."""
        keys = sorted({(cell.dataset, cell.engine) for cell in self.cells})
        self.answerers = {key: self._answerer(key) for key in keys}
        if self.config.trace:
            self.drivers = {
                key: StagedDriver(self.tracer, answerer, self.cold)
                for key, answerer in self.answerers.items()
            }

    # -- one pass ----------------------------------------------------------
    def _pass(self, pass_index: int, traced: bool) -> None:
        gc.collect()
        timed = pass_index >= 0
        if timed:
            self.calibration.extend(calibrate())
        busy = 0.0
        memo_hits = memo_misses = 0
        analysis: Dict[str, int] = {}
        if traced and self.cold:
            self.missed = []
        for cell in self.cells:
            text = self.texts[cell.dataset][cell.query]
            key = (cell.dataset, cell.engine)
            if self.cold:
                # Nothing carries over from one operation to the next, so a
                # cell costs the same wherever the seed puts it in the pass.
                self.answerers[key] = self._answerer(key)
                if traced:
                    self.drivers[key] = StagedDriver(self.tracer, self.answerers[key], True)
            answerer = self.answerers[key]
            try:
                if traced:
                    self.tracer.begin(cell.name, pass_index)
                    started = perf_counter()
                    answers = self.drivers[key].answer(text, cell)
                    latency = perf_counter() - started
                else:
                    started = perf_counter()
                    query = parse_query(text, name=cell.query)
                    parsed = perf_counter()
                    report = answerer.answer(query, strategy=cell.strategy)
                    latency = perf_counter() - started
                    answers = report.answers
                    if timed:
                        self.optimization_s += report.optimization_s
                        self.total_s += report.total_s
                        self.overhead_s.append(
                            latency - (parsed - started) - report.total_s
                        )
            except Exception as error:  # an operation that raised is a failed one
                self.checker.fail(f"{cell.name}: {error!r}")
                continue
            self.answer_counts[cell.name] = len(answers)
            self.checker.check(
                cell.answer_key,
                answers,
                self.expected.cells.get(cell.answer_key, "missing"),
            )
            if timed:
                busy += latency
                self.samples[traced].setdefault(cell.name, []).append(latency)
            if traced:
                driver = self.drivers[key]
                self.plans.update(driver.plans)
                if self.cold:
                    self.missed.append((driver.database.schema, driver.reformulator.missed))
            if self.cold:
                reformulator = answerer.reformulator
                memo_hits += reformulator.cache.hits
                memo_misses += reformulator.cache.misses
                for name, value in reformulator.analysis_counters.items():
                    analysis[name] = analysis.get(name, 0) + value
        if timed:
            self.busy[traced].append(busy)
            if self.cold:
                self.memo_hit_ratios.append(memo_hits / max(1, memo_hits + memo_misses))
                self.analysis_counts.append(analysis)

    # -- the run -------------------------------------------------------------
    def run(self) -> Dict[str, Any]:
        config = self.config
        build_s: List[float] = []
        construct_s: List[float] = []
        for _ in range(SETUP_REPEATS):
            self.answerers = {}
            self.drivers = {}
            build_s.append(self._build())
            started = perf_counter()
            self._construct()
            construct_s.append(perf_counter() - started)
        started = perf_counter()
        if config.trace:
            # First, so that the derived stores are built inside its spans.
            self._pass(-1, traced=True)
        self._pass(-1, traced=False)
        warmup_s = perf_counter() - started
        setup_s = median(build_s) + median(construct_s) + warmup_s

        cache_before = plan_cache_counters(self.answerers.values())
        timed_started = perf_counter()
        passes = 0
        while passes < config.min_passes or perf_counter() - timed_started < config.seconds:
            self._pass(passes, traced=config.trace and passes % 2 == 1)
            passes += 1
        cache_after = plan_cache_counters(self.answerers.values())

        info = {
            "passes": passes,
            "cells": len(self.cells),
            "samples": sum(len(v) for v in self.samples[False].values()),
            "build_s": build_s,
            "warmup_s": warmup_s,
            "machine": machine_speed(self.calibration),
        }
        if not config.trace:
            metrics = end_to_end(
                self.samples[False],
                [len(self.cells) / busy for busy in self.busy[False]],
                setup_s,
            )
            return {
                "metrics": metrics,
                "info": info,
                "cells": self.samples[False],
                "busy_s": self.busy[False],
            }
        metrics = self._per_layer(cache_before, cache_after)
        metrics["storage.build_s"] = median(build_s)
        self.tracer.write(OUT_DIR / f"trace_{config.workload}.jsonl")
        info["spans"] = len(self.tracer.records)
        return {"metrics": metrics, "info": info}

    # -- per-layer metrics -----------------------------------------------------
    def _per_layer(self, cache_before, cache_after) -> Dict[str, float]:
        tracer = self.tracer
        n_cells = len(self.cells)
        span_ms = tracer.ms_per_operation(n_cells)
        counts = tracer.counts_per_pass()
        metrics: Dict[str, float] = {
            f"{name}_ms": value
            for name, value in span_ms.items()
            if name not in ("engine.sqlite.sql", "answering.plan", "trace.driver")
        }
        # Spans of the sqlite cells only are spread over those cells only.
        sqlite_cells = [c for c in self.cells if c.engine == "sqlite"]
        if sqlite_cells:
            metrics["engine.sqlite.execute_ms"] *= n_cells / len(sqlite_cells)
        metrics.update(validity_metrics(span_ms, n_cells, self.samples[False], self.busy))
        metrics["answering.optimization_share"] = self.optimization_s / self.total_s
        metrics["answering.overhead_ms"] = 1000.0 * sum(self.overhead_s) / len(
            self.overhead_s
        )
        metrics["failed_share"] = self.checker.failed_share

        for name in ("reformulation.union_terms", "cost.calls", "optimizer.covers_explored"):
            metrics[name] = counts.get(name, 0.0)
        for name in ("engine.rows_scanned", "engine.rows_joined", "engine.union_inputs"):
            metrics[name] = counts.get(name, 0.0)
        metrics["engine.rows_deduped"] = counts.get("engine.dedup_in", 0.0) - counts.get(
            "engine.dedup_out", 0.0
        )
        native_answers = sum(
            self.answer_counts[c.name] for c in self.cells if c.engine != "sqlite"
        )
        metrics["engine.rows_scanned_per_answer"] = metrics["engine.rows_scanned"] / max(
            1, native_answers
        )
        metrics["storage.decode_us_per_row"] = (
            1000.0 * span_ms.get("engine.decode", 0.0) * n_cells
        ) / max(1, sum(self.answer_counts.values()))

        if self.cold:
            metrics["reformulation.memo_hit_ratio"] = median(self.memo_hit_ratios)
            for name in ("analysis.containment_checks", "analysis.terms_eliminated"):
                metrics[name] = float(median(c.get(name, 0) for c in self.analysis_counts))
            metrics["analysis.minimize_ms"] = self._replay_minimize() / n_cells
        else:
            metrics.update(plan_cache_metrics(cache_before, cache_after))
            for name in ("reasoning.saturate", "reasoning.litemat_encode"):
                # Built once, in the traced warm-up pass (set-up time here).
                metrics[f"{name}_ms"] = 1000.0 * sum(
                    r[5] for r in tracer.records if r[2] == name
                )
        metrics.update(self._after_run_measures())
        return metrics

    def _replay_minimize(self) -> float:
        """``minimize_ucq`` replayed over the fragment queries that missed
        the memo in the last traced pass; total milliseconds."""
        spent = 0.0
        for schema, fragments in self.missed:
            for fragment in fragments:
                union = reformulate(fragment, schema)
                started = perf_counter()
                minimize_ucq(union, schema)
                spent += perf_counter() - started
        return 1000.0 * spent

    def _after_run_measures(self) -> Dict[str, float]:
        """Single public calls timed over the cells' own plans."""
        measures: Dict[str, float] = {}
        qerrors: List[float] = []
        match_us: List[float] = []
        range_us: List[float] = []
        compile_ms: List[float] = []
        for key, answerer in self.answerers.items():
            database = answerer.database
            cells = [
                c
                for c in self.cells
                if (c.dataset, c.engine) == key and c.name in self.plans
            ]

            def plans_of(*strategies: str) -> List[Any]:
                return [self.plans[c.name] for c in cells if c.strategy in strategies]

            if key[1] == "sqlite":
                measures["engine.sqlite.sql_ms"] = micro.sql_ms(
                    database.dictionary, plans_of("gcov")
                )
                continue
            for cell in cells:
                if cell.strategy == "gcov":
                    estimate = max(
                        1.0, answerer.cost_model.estimator.estimate(self.plans[cell.name])
                    )
                    actual = max(1.0, float(self.answer_counts[cell.name]))
                    qerrors.append(max(estimate / actual, actual / estimate))
            direct = plans_of("gcov", "ucq", "scq")
            patterns, _ = micro.atom_patterns(direct, database.dictionary)
            match_us.append(micro.match_us(database.table, patterns))
            compile_ms.append(micro.compile_ms(database, direct))
            litemat = plans_of("litemat")
            if litemat:
                _encoding, store, _epoch = answerer.interval_assigner.current(database)
                _, ranges = micro.atom_patterns(litemat, store.dictionary)
                range_us.append(micro.match_range_us(store.table, ranges))
            if answerer.cache is not None:
                queries = [
                    (parse_query(self.texts[c.dataset][c.query], name=c.query), c.strategy)
                    for c in cells
                    if c.strategy != "saturation"
                ]
                measures["cache.lookup_us"] = micro.plan_lookup_us(
                    answerer.cache, database, queries
                )
        if qerrors:
            measures["cost.qerror_geomean"] = geomean(qerrors)
        if match_us:
            measures["storage.match_us"] = sum(match_us) / len(match_us)
            measures["engine.compile_ms"] = sum(compile_ms) / len(compile_ms)
        if range_us:
            measures["storage.match_range_us"] = sum(range_us) / len(range_us)
        return measures
