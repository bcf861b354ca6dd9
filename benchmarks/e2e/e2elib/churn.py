"""``churn``: writes beside reads on a private ``lubm-small`` copy.

Each step is one write cell (a 20-triple batch of new student records;
every 5th step also toggles one leaf subclass edge) then twelve read
cells, strategy-major, so the first read of each strategy pays that
strategy's rebuild after the write: nothing for gcov beyond re-planning,
a re-saturation for ``saturation``, a re-encode for ``litemat``.  The
storage, cache, reasoning and answering layers are the ones ``warm_eval``
uses, used the other way round.
"""

from __future__ import annotations

import gc
import random
from statistics import median
from time import perf_counter
from typing import Any, Dict, List, Optional

from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.datasets import department_uri, ub
from repro.query import parse_query
from repro.rdf import RDF_TYPE, Literal, Triple, URI

from .check import Checker, Expected, digest, oracle_answers, render_rows
from .data import (
    CHURN_QUERIES,
    CHURN_STRATEGIES,
    CHURN_WRITE,
    SETUP_REPEATS,
    RunConfig,
    build_dataset,
    churn_read_cells,
    query_texts,
)
from .env import OUT_DIR
from .stats import (
    best_ms,
    calibrate,
    end_to_end,
    machine_speed,
    plan_cache_metrics,
    validity_metrics,
)
from .trace import SpanTracer, StagedDriver

STUDENTS_PER_BATCH = 4  # x 5 triples each = the 20-triple batch
WARMUP_STEPS = 3
TOGGLE_EVERY = 5
#: Under a seed with no committed digests the three strategies must
#: agree on every step, and the naive oracle is consulted on every
#: ORACLE_EVERY-th.  Not every 10th: one consultation costs 2-3 s (naive
#: Q21 enumerates every publication) and the driver's budget is 92 runs
#: in 3420 s.
ORACLE_EVERY = 40
#: A leaf class the generator never emits: toggling its edge to Student
#: changes who is a Person without touching any other class.
TOGGLED_EDGE = (ub("ExchangeStudent"), ub("Student"))
STUDENT_KINDS = (
    "GraduateStudent",
    "UndergraduateStudent",
    "TeachingAssistant",
    "ResearchAssistant",
    "ExchangeStudent",
)


def write_batch(seed: int, step: int) -> List[Triple]:
    """The step's new student records in university 0 (same seed, same batch)."""
    rng = random.Random(f"{seed}:{step}")
    triples: List[Triple] = []
    for index in range(STUDENTS_PER_BATCH):
        student = URI(f"http://www.univ0.edu/churn/student{step}_{index}")
        department = rng.randrange(4)
        base = f"http://www.univ0.edu/dept{department}/"
        triples += [
            Triple(student, RDF_TYPE, ub(rng.choice(STUDENT_KINDS))),
            Triple(student, ub("memberOf"), department_uri(0, department)),
            Triple(student, ub("name"), Literal(f"ChurnStudent{step}.{index}")),
            Triple(student, ub("takesCourse"), URI(f"{base}gradcourse{rng.randrange(8)}")),
            Triple(URI(f"{base}pub{rng.randrange(40)}"), ub("publicationAuthor"), student),
        ]
    return triples


def apply_write(database, batch: List[Triple], step: int) -> bool:
    """The write operation; true when every triple of the batch was taken."""
    added = database.load_facts(batch)
    if step % TOGGLE_EVERY == TOGGLE_EVERY - 1:
        schema = database.schema
        if schema.is_subclass(*TOGGLED_EDGE):
            schema.remove_subclass(*TOGGLED_EDGE)
        else:
            schema.add_subclass(*TOGGLED_EDGE)
    return added == len(batch)


def oracle_digests(database, queries: Dict[str, Any]) -> Dict[str, str]:
    return {
        name: digest(render_rows(oracle_answers(database, query)))
        for name, query in queries.items()
    }


class Churn:
    def __init__(self, config: RunConfig):
        self.config = config
        self.reads = churn_read_cells()
        texts = query_texts("lubm-small")
        self.texts = {name: texts[name] for name in CHURN_QUERIES}
        self.queries = {
            name: parse_query(text, name=name) for name, text in self.texts.items()
        }
        self.expected = Expected(config.scale.name)
        self.checker = Checker()
        self.tracer = SpanTracer()
        self.database: Any = None
        self.answerer: Optional[QueryAnswerer] = None
        self.driver: Optional[StagedDriver] = None
        self.samples: Dict[bool, Dict[str, List[float]]] = {False: {}, True: {}}
        self.busy: Dict[bool, List[float]] = {False: [], True: []}
        self.oracle_consultations = 0
        self.calibration: List[float] = []

    def _construct(self) -> None:
        self.database = build_dataset("lubm-small", self.config.scale)
        self.answerer = QueryAnswerer(self.database, cache=QueryCache())
        if self.config.trace:
            self.driver = StagedDriver(self.tracer, self.answerer, cold=False)

    def _step_digests(self, step: int) -> Optional[Dict[str, str]]:
        """The expected digests of this step, or None (agreement only)."""
        expected = self.expected
        if self.config.seed == expected.churn_seed and step < len(expected.churn_steps):
            return expected.churn_steps[step]
        if (step - WARMUP_STEPS + 1) % ORACLE_EVERY == 0 and step >= WARMUP_STEPS:
            self.oracle_consultations += 1
            return oracle_digests(self.database, self.queries)
        return None

    def _step(self, step: int, timed: bool, traced: bool) -> None:
        gc.collect()
        if timed:
            self.calibration.extend(calibrate(15))
        database, answerer, tracer = self.database, self.answerer, self.tracer
        record = self.samples[traced] if timed else {}
        pass_index = step if timed else -1
        busy = 0.0

        batch = write_batch(self.config.seed, step)
        if traced:
            tracer.begin(CHURN_WRITE.name, pass_index)
        started = perf_counter()
        try:
            if traced:
                with tracer.span("storage.load_facts"):
                    complete = apply_write(database, batch, step)
            else:
                complete = apply_write(database, batch, step)
        except Exception as error:  # a write that raised is a failed operation
            self.checker.fail(f"write@{step}: {error!r}")
        else:
            latency = perf_counter() - started
            if complete:
                self.checker.passed()
            else:
                self.checker.fail(f"write@{step}: batch only partly loaded")
            busy += latency
            record.setdefault(CHURN_WRITE.name, []).append(latency)

        self.checker.forget()
        digests = self._step_digests(step)
        for cell in self.reads:
            text = self.texts[cell.query]
            try:
                started = perf_counter()
                if traced:
                    tracer.begin(cell.name, pass_index)
                    answers = self.driver.answer(text, cell)
                else:
                    query = parse_query(text, name=cell.query)
                    answers = answerer.answer(query, strategy=cell.strategy).answers
                latency = perf_counter() - started
            except Exception as error:  # a read that raised is a failed operation
                self.checker.fail(f"{cell.name}@{step}: {error!r}")
                continue
            busy += latency
            record.setdefault(cell.name, []).append(latency)
            self.checker.check(
                cell.query, answers, None if digests is None else digests[cell.query]
            )
        if timed:
            self.busy[traced].append(busy)

    def run(self) -> Dict[str, Any]:
        config = self.config
        construct_s: List[float] = []
        for _ in range(SETUP_REPEATS):
            self.database = self.answerer = self.driver = None
            gc.collect()
            started = perf_counter()
            self._construct()
            construct_s.append(perf_counter() - started)
        started = perf_counter()
        step = 0
        for _ in range(WARMUP_STEPS):
            self._step(step, timed=False, traced=config.trace and step % 2 == 1)
            step += 1
        setup_s = median(construct_s) + perf_counter() - started

        cache_before = self.answerer.cache.counters()
        timed_started = perf_counter()
        while (
            step - WARMUP_STEPS < config.min_passes
            or perf_counter() - timed_started < config.seconds
        ):
            self._step(step, timed=True, traced=config.trace and step % 2 == 1)
            step += 1
        cache_after = self.answerer.cache.counters()

        info = {
            "steps": step - WARMUP_STEPS,
            "cells": len(self.reads) + 1,
            "samples": sum(len(v) for v in self.samples[False].values()),
            "oracle_consultations": self.oracle_consultations,
            "committed_digests": config.seed == self.expected.churn_seed,
            "machine": machine_speed(self.calibration),
        }
        if not config.trace:
            metrics = end_to_end(
                self.samples[False],
                [(len(self.reads) + 1) / busy for busy in self.busy[False]],
                setup_s,
            )
            return {
                "metrics": metrics,
                "info": info,
                "cells": self.samples[False],
                "busy_s": self.busy[False],
            }
        metrics = self._per_layer(cache_before, cache_after)
        metrics["storage.build_s"] = median(construct_s)
        self.tracer.write(OUT_DIR / f"trace_{config.workload}.jsonl")
        info["spans"] = len(self.tracer.records)
        return {"metrics": metrics, "info": info}

    def _per_layer(self, cache_before, cache_after) -> Dict[str, float]:
        operations = len(self.reads) + 1
        span_ms = self.tracer.ms_per_operation(operations)
        counts = self.tracer.counts_per_pass()
        untraced_ms = best_ms(self.samples[False])
        metrics: Dict[str, float] = {
            f"{name}_ms": span_ms.get(name, 0.0)
            for name in ("query.parse", "engine.evaluate_relation", "engine.decode")
        }
        # Per step, not per operation: each happens once after a write.
        for name in ("reasoning.saturate", "reasoning.litemat_encode"):
            metrics[f"{name}_ms"] = span_ms.get(name, 0.0) * operations
        metrics["storage.load_facts_ms"] = untraced_ms[CHURN_WRITE.name]
        for strategy in CHURN_STRATEGIES:
            first = next(c for c in self.reads if c.strategy == strategy)
            metrics[f"answering.first_read_after_write_ms.{strategy}"] = untraced_ms[
                first.name
            ]
        metrics.update(plan_cache_metrics(cache_before, cache_after))
        for name in ("engine.rows_scanned", "engine.rows_joined", "engine.union_inputs"):
            metrics[name] = counts.get(name, 0.0)
        metrics["reformulation.union_terms"] = counts.get("reformulation.union_terms", 0.0)
        metrics.update(validity_metrics(span_ms, operations, self.samples[False], self.busy))
        metrics["failed_share"] = self.checker.failed_share
        return metrics
