"""Shared infrastructure for the paper-reproduction benchmarks.

One module per paper table/figure lives next to this file; each uses
the helpers here to (a) build the benchmark stores at reproducible
scales, (b) get per-engine calibrated cost models, and (c) run
(query × strategy × engine) measurements with timeouts and the paper's
missing-bar semantics for engine failures.

Scales are configurable through environment variables so the same
harness covers quick CI runs and long reproduction runs:

=======================  =======  ===========================================
variable                 default  meaning
=======================  =======  ===========================================
``REPRO_LUBM_SMALL``     12       universities in the "LUBM 1M"-role dataset
``REPRO_LUBM_LARGE``     48       universities in the "LUBM 100M"-role dataset
``REPRO_DBLP_PUBS``      12000    publications in the DBLP-role dataset
``REPRO_BENCH_TIMEOUT``  60       per-evaluation timeout (seconds)
``REPRO_BENCH_REPEATS``  1        timing repeats per measured cell
=======================  =======  ===========================================

Structured results: every benchmark's ``main()`` funnels its rows
through a :class:`repro.bench.BenchReport` and writes it as
``results/<name>.txt``.  :func:`finish_grid` is the shared epilogue for
grid-shaped benchmarks — it prints the paper-style table and writes the
text file from the same cells.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

from repro.answering import QueryAnswerer
from repro.bench import BenchReport, summarize
from repro.cache import QueryCache
from repro.cost import CostConstants, CostModel, calibrate
from repro.datasets import (
    build_dblp_database,
    build_lubm_database,
    dblp_workload,
    lubm_workload,
    motivating_q1,
    motivating_q2,
)
from repro.engine import (
    EngineFailure,
    EngineTimeout,
    ExecutionBudget,
    NATIVE_HASH,
    NATIVE_MERGE,
    NativeEngine,
    SQLiteEngine,
)
from repro.reformulation import Reformulator
from repro.telemetry import Tracer

LUBM_SMALL_UNIVERSITIES = int(os.environ.get("REPRO_LUBM_SMALL", "12"))
LUBM_LARGE_UNIVERSITIES = int(os.environ.get("REPRO_LUBM_LARGE", "48"))
DBLP_PUBLICATIONS = int(os.environ.get("REPRO_DBLP_PUBS", "12000"))
EVAL_TIMEOUT_S = float(os.environ.get("REPRO_BENCH_TIMEOUT", "60"))
#: The per-evaluation allowance the figure scripts hand their engines.
EVAL_BUDGET = ExecutionBudget(timeout_s=EVAL_TIMEOUT_S)
BENCH_REPEATS = max(1, int(os.environ.get("REPRO_BENCH_REPEATS", "1")))


def scales() -> Dict[str, Any]:
    """The dataset/measurement scales in effect (the ``# scales:`` line)."""
    return {
        "lubm_small_universities": LUBM_SMALL_UNIVERSITIES,
        "lubm_large_universities": LUBM_LARGE_UNIVERSITIES,
        "dblp_publications": DBLP_PUBLICATIONS,
        "timeout_s": EVAL_TIMEOUT_S,
        "repeats": BENCH_REPEATS,
    }

#: The three engine personalities of the study (the paper's "three
#: well-established RDBMSs" role).
ENGINE_NAMES = ("native-hash", "native-merge", "sqlite")

#: Statement-size limits per engine, mirrored into the cost models.
_ENGINE_LIMITS = {"native-hash": 20_000, "native-merge": 2_000, "sqlite": 500}

_CALIBRATION_DIR = Path(__file__).parent / ".calibration"


# ----------------------------------------------------------------------
# Databases
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def lubm_small():
    """The small-scale LUBM-role store."""
    return build_lubm_database(universities=LUBM_SMALL_UNIVERSITIES, seed=0)


@lru_cache(maxsize=None)
def lubm_large():
    """The large-scale LUBM-role store."""
    return build_lubm_database(universities=LUBM_LARGE_UNIVERSITIES, seed=0)


@lru_cache(maxsize=None)
def dblp():
    """The DBLP-role store."""
    return build_dblp_database(publications=DBLP_PUBLICATIONS, seed=0)


_DB_BUILDERS = {"lubm-small": lubm_small, "lubm-large": lubm_large, "dblp": dblp}


@lru_cache(maxsize=None)
def database(dataset: str):
    """A benchmark store by name: lubm-small | lubm-large | dblp."""
    return _DB_BUILDERS[dataset]()


@lru_cache(maxsize=None)
def saturated_database(dataset: str):
    """The pre-saturated twin of a benchmark store (Figure 10 baseline)."""
    return database(dataset).saturated()


# ----------------------------------------------------------------------
# Engines and calibrated cost models
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def engine(dataset: str, engine_name: str):
    """A query engine over a benchmark store."""
    db = database(dataset)
    if engine_name == "native-hash":
        return NativeEngine(db, NATIVE_HASH)
    if engine_name == "native-merge":
        return NativeEngine(db, NATIVE_MERGE)
    if engine_name == "sqlite":
        return SQLiteEngine(db)
    raise ValueError(f"unknown engine {engine_name!r}")


@lru_cache(maxsize=None)
def saturated_engine(dataset: str, engine_name: str):
    """The same engine personality over the saturated store."""
    db = saturated_database(dataset)
    if engine_name == "native-hash":
        return NativeEngine(db, NATIVE_HASH)
    if engine_name == "native-merge":
        return NativeEngine(db, NATIVE_MERGE)
    if engine_name == "sqlite":
        return SQLiteEngine(db)
    raise ValueError(f"unknown engine {engine_name!r}")


@lru_cache(maxsize=None)
def cost_constants(dataset: str, engine_name: str) -> CostConstants:
    """Calibrated constants for (dataset, engine), cached on disk."""
    scale_tag = {
        "lubm-small": LUBM_SMALL_UNIVERSITIES,
        "lubm-large": LUBM_LARGE_UNIVERSITIES,
        "dblp": DBLP_PUBLICATIONS,
    }[dataset]
    path = _CALIBRATION_DIR / f"{dataset}-{scale_tag}-{engine_name}.json"
    if path.exists():
        return CostConstants.from_dict(json.loads(path.read_text()))
    constants = calibrate(engine(dataset, engine_name), database(dataset), repeats=2)
    _CALIBRATION_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(constants.to_dict(), indent=2))
    return constants


@lru_cache(maxsize=None)
def cost_model(dataset: str, engine_name: str) -> CostModel:
    """The calibrated, engine-limit-aware cost model for an engine."""
    return CostModel(
        database(dataset),
        constants=cost_constants(dataset, engine_name),
        max_operand_terms=_ENGINE_LIMITS[engine_name],
    )


#: Materialization ceiling for reformulations.  Any UCQ (or fragment)
#: beyond this exceeds every engine's statement limit anyway; aborting
#: early keeps the q2/Q28-class monsters (paper: 318k terms) from
#: exhausting memory.  Their exact |q_ref| still comes from the
#: factorized counter.
REFORMULATION_TERM_LIMIT = 50_000


@lru_cache(maxsize=None)
def reformulator(dataset: str, minimize: bool = True) -> Reformulator:
    """A shared memoizing reformulator per store.

    ``minimize=False`` turns the containment-based UCQ minimization
    pass off — the ablation arm of fig4's ``+nomin`` cells.
    """
    return Reformulator(
        database(dataset).schema,
        limit=REFORMULATION_TERM_LIMIT,
        minimize=minimize,
    )


@lru_cache(maxsize=None)
def answerer(
    dataset: str, engine_name: str, minimize: bool = True
) -> QueryAnswerer:
    """A ready QueryAnswerer wired with the calibrated cost model."""
    return QueryAnswerer(
        database(dataset),
        engine=engine(dataset, engine_name),
        cost_model=cost_model(dataset, engine_name),
        reformulator=reformulator(dataset, minimize),
        ecov_max_covers=20_000,
    )


@lru_cache(maxsize=None)
def cached_answerer(dataset: str, engine_name: str) -> QueryAnswerer:
    """A QueryAnswerer with the multi-level query cache enabled.

    Deliberately built with its *own* reformulator (not the shared
    memoizing :func:`reformulator`), so the cache's hit/miss accounting
    — and cold-vs-warm comparisons — are self-contained.
    """
    return QueryAnswerer(
        database(dataset),
        engine=engine(dataset, engine_name),
        cost_model=cost_model(dataset, engine_name),
        reformulator=Reformulator(
            database(dataset).schema, limit=REFORMULATION_TERM_LIMIT
        ),
        ecov_max_covers=20_000,
        cache=QueryCache(),
    )


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def lubm_queries(include_motivating: bool = True) -> List:
    """The LUBM workload entries (q1, q2, Q01-Q28)."""
    entries = list(lubm_workload())
    if include_motivating:
        entries = [motivating_q1(), motivating_q2()] + entries
    return entries


def dblp_queries() -> List:
    """The DBLP workload entries (Q01-Q10)."""
    return list(dblp_workload())


def workload(dataset: str) -> List:
    """The workload matching a store."""
    return dblp_queries() if dataset == "dblp" else lubm_queries()


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
@dataclass
class Measurement:
    """One (query, strategy, engine) data point."""

    dataset: str
    query: str
    strategy: str
    engine: str
    status: str  # "ok" | "failed" | "timeout" | "infeasible"
    optimization_s: float = 0.0
    evaluation_s: float = 0.0
    answers: int = 0
    reformulation_terms: int = 0
    covers_explored: int = 0
    detail: str = ""
    #: Flattened telemetry trace (``Tracer.to_dicts`` form) when the
    #: measurement ran traced; ``None`` otherwise.
    trace: Optional[List[Dict[str, Any]]] = None
    #: Per-repeat timing samples (``REPRO_BENCH_REPEATS`` runs); empty
    #: on failed cells.  ``optimization_s``/``evaluation_s`` hold the
    #: first repeat so single-run consumers are unchanged.
    optimization_samples_s: List[float] = field(default_factory=list)
    evaluation_samples_s: List[float] = field(default_factory=list)

    @property
    def total_ms(self) -> float:
        return (self.optimization_s + self.evaluation_s) * 1000.0

    @property
    def evaluation_ms(self) -> float:
        return self.evaluation_s * 1000.0

    def cell(self) -> str:
        """Paper-style table cell: *evaluation* time in ms (the paper's
        Figures 4-6 plot the reformulated query's evaluation; optimizer
        running times are Figure 7/8 material), or the failure kind."""
        if self.status == "ok":
            return f"{self.evaluation_ms:.1f}"
        return self.status.upper()


def measure(
    dataset: str,
    entry,
    strategy: str,
    engine_name: str,
    timeout_s: Optional[float] = None,
    trace: bool = False,
    cache: bool = False,
    repeats: Optional[int] = None,
    minimize: bool = True,
) -> Measurement:
    """Answer a query ``repeats`` times (default ``REPRO_BENCH_REPEATS``).

    The first repeat's Measurement is returned with every ok repeat's
    timings collected into ``*_samples_s`` — the repeat distribution
    the report cells carry.  A non-ok repeat ends the loop: missing-bar
    failures are deterministic and don't repay re-measurement.
    """
    repeats = BENCH_REPEATS if repeats is None else max(1, repeats)
    runs: List[Measurement] = []
    for _ in range(repeats):
        run = _measure_once(
            dataset, entry, strategy, engine_name,
            timeout_s, trace, cache, minimize,
        )
        runs.append(run)
        if run.status != "ok":
            break
    primary = runs[0]
    primary.optimization_samples_s = [
        run.optimization_s for run in runs if run.status == "ok"
    ]
    primary.evaluation_samples_s = [
        run.evaluation_s for run in runs if run.status == "ok"
    ]
    return primary


def _measure_once(
    dataset: str,
    entry,
    strategy: str,
    engine_name: str,
    timeout_s: Optional[float] = None,
    trace: bool = False,
    cache: bool = False,
    minimize: bool = True,
) -> Measurement:
    """Answer one query under one strategy/engine, with missing-bar semantics.

    With ``trace=True`` the answering call runs under a fresh
    :class:`repro.telemetry.Tracer` and the flattened span/record list
    is attached to the measurement.  With ``cache=True`` the measurement
    goes through the cache-enabled answerer (:func:`cached_answerer`):
    repeated measurements of the same (query, strategy) are then warm.
    """
    from repro.optimizer import SearchInfeasible
    from repro.reformulation import ReformulationLimitExceeded

    timeout_s = EVAL_TIMEOUT_S if timeout_s is None else timeout_s
    tracer = Tracer() if trace else None
    if cache:
        qa = cached_answerer(dataset, engine_name)
    else:
        qa = answerer(dataset, engine_name, minimize)
    try:
        report = qa.answer(
            entry.query,
            strategy=strategy,
            budget=ExecutionBudget(timeout_s=timeout_s),
            tracer=tracer,
        )
    except ReformulationLimitExceeded as error:
        return Measurement(
            dataset, entry.name, strategy, engine_name, "failed", detail=str(error)
        )
    except SearchInfeasible as error:
        return Measurement(
            dataset, entry.name, strategy, engine_name, "infeasible", detail=str(error)
        )
    except EngineFailure as error:
        status = "timeout" if isinstance(error, EngineTimeout) else "failed"
        return Measurement(
            dataset, entry.name, strategy, engine_name, status, detail=str(error)
        )
    return Measurement(
        dataset,
        entry.name,
        strategy,
        engine_name,
        "ok",
        optimization_s=report.optimization_s,
        evaluation_s=report.evaluation_s,
        answers=report.answer_count,
        reformulation_terms=report.reformulation_terms,
        covers_explored=report.covers_explored,
        trace=tracer.to_dicts() if tracer is not None else None,
    )


def run_grid(
    dataset: str,
    entries: Sequence,
    strategies: Sequence[str],
    engines: Sequence[str],
    timeout_s: Optional[float] = None,
    trace: bool = False,
    cache: bool = False,
) -> List[Measurement]:
    """The full (query × strategy × engine) grid of one figure."""
    results = []
    for engine_name in engines:
        for entry in entries:
            for strategy in strategies:
                results.append(
                    measure(
                        dataset,
                        entry,
                        strategy,
                        engine_name,
                        timeout_s,
                        trace,
                        cache,
                    )
                )
    return results


def print_grid(
    title: str, results: Sequence[Measurement], strategies: Sequence[str]
) -> None:
    """Render a figure's measurements as one table per engine."""
    print(f"\n=== {title} ===")
    engines = sorted({m.engine for m in results})
    queries: List[str] = []
    for m in results:
        if m.query not in queries:
            queries.append(m.query)
    for engine_name in engines:
        print(
            f"\n-- engine: {engine_name} "
            "(evaluation time of the reformulated query, ms; log-scale in the paper)"
        )
        header = "query".ljust(6) + "".join(s.rjust(14) for s in strategies)
        print(header)
        for query in queries:
            row = query.ljust(6)
            for strategy in strategies:
                cell = next(
                    (
                        m.cell()
                        for m in results
                        if m.engine == engine_name
                        and m.query == query
                        and m.strategy == strategy
                    ),
                    "-",
                )
                row += cell.rjust(14)
            print(row)


def results_dir() -> Path:
    """Directory where full-grid runs store their reports."""
    path = Path(__file__).parent / "results"
    path.mkdir(exist_ok=True)
    return path


# ----------------------------------------------------------------------
# Structured reports (DESIGN.md §12)
# ----------------------------------------------------------------------
def bench_report(name: str, title: Optional[str] = None) -> BenchReport:
    """A fresh report stamped with this run's scales."""
    return BenchReport(name, title=title, scales=scales())


def measurement_cell(report: BenchReport, m: Measurement) -> None:
    """Fold one Measurement into a report as a (labels, metrics) cell."""
    metrics: Dict[str, Any] = {}
    if m.status == "ok":
        optimization = m.optimization_samples_s or [m.optimization_s]
        evaluation = m.evaluation_samples_s or [m.evaluation_s]
        metrics["optimization_ms"] = summarize(s * 1000 for s in optimization)
        metrics["evaluation_ms"] = summarize(s * 1000 for s in evaluation)
    info: Dict[str, Any] = {
        "answers": m.answers,
        "reformulation_terms": m.reformulation_terms,
        "covers_explored": m.covers_explored,
    }
    if m.detail:
        info["detail"] = m.detail[:120]
    report.add_cell(
        {
            "dataset": m.dataset,
            "query": m.query,
            "strategy": m.strategy,
            "engine": m.engine,
        },
        status=m.status,
        metrics=metrics,
        info=info,
    )


def grid_report(
    name: str, results: Sequence[Measurement], title: Optional[str] = None
) -> BenchReport:
    """A full measurement grid as one BenchReport."""
    report = bench_report(name, title=title)
    for m in results:
        measurement_cell(report, m)
    return report


def finish_grid(
    name: str,
    title: str,
    results: Sequence[Measurement],
    strategies: Sequence[str],
) -> BenchReport:
    """Shared grid epilogue: print the table, write ``results/<name>.txt``
    from the same cells, return the report."""
    print_grid(title, results, strategies)
    report = grid_report(name, results, title=title)
    out = report.write_text(results_dir() / f"{name}.txt")
    print(f"\nraw results written to {out}")
    return report
