"""Datasets, queries and the fixed cell lists of the four workloads.

A *cell* is one fixed (dataset, query, strategy, engine) combination;
a workload repeats its cell list, in an order drawn from ``--seed``, in
passes.  Datasets are always generated with dataset seed 0, so the seed
changes the order of the work and never the work itself.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.datasets import (
    build_dblp_database,
    build_lubm_database,
    dblp_workload,
    lubm_workload,
    motivating_q1,
    motivating_q2,
)
from repro.query import to_sparql
from repro.storage import RDFDatabase

WORKLOADS = ("cold_plan", "warm_eval", "churn", "serve_closed")


@dataclass(frozen=True)
class Scale:
    """Dataset sizes; ``full`` is what the legacy harness uses."""

    name: str
    lubm_small: int
    lubm_large: int
    dblp: int

    def describe(self) -> Dict[str, int]:
        return {
            "lubm_small_universities": self.lubm_small,
            "lubm_large_universities": self.lubm_large,
            "dblp_publications": self.dblp,
        }


@dataclass(frozen=True)
class RunConfig:
    workload: str
    seed: int
    seconds: float
    trace: bool
    scale: Scale
    #: Floor on timed passes (7 at full scale, 2 for ``--quick``).
    min_passes: int


#: The dataset build + answerer/service construction is repeated this
#: many times and its median reported, so one slow build cannot move
#: ``setup_s``; the warm-up is run once.
SETUP_REPEATS = 3

FULL = Scale("full", lubm_small=12, lubm_large=48, dblp=12_000)
#: The self-test scale (``run.py --quick``).
QUICK = Scale("quick", lubm_small=1, lubm_large=1, dblp=800)


def build_dataset(name: str, scale: Scale) -> RDFDatabase:
    if name == "lubm-small":
        return build_lubm_database(universities=scale.lubm_small, seed=0)
    if name == "lubm-large":
        return build_lubm_database(universities=scale.lubm_large, seed=0)
    if name == "dblp":
        return build_dblp_database(publications=scale.dblp, seed=0)
    raise ValueError(f"unknown dataset {name!r}")


@dataclass(frozen=True)
class Cell:
    dataset: str
    query: str
    strategy: str
    engine: str = "native-hash"

    @property
    def name(self) -> str:
        return f"{self.dataset}/{self.query}/{self.strategy}/{self.engine}"

    @property
    def answer_key(self) -> str:
        """What the expected answer depends on: the data and the query."""
        return f"{self.dataset}/{self.query}"


def _entries(dataset: str):
    if dataset == "dblp":
        return list(dblp_workload())
    return [motivating_q1(), motivating_q2()] + list(lubm_workload())


def query_texts(dataset: str) -> Dict[str, str]:
    """SPARQL text per query name: what a user would submit."""
    return {entry.name: to_sparql(entry.query) for entry in _entries(dataset)}


LUBM_QUERIES = tuple(entry.name for entry in _entries("lubm-small"))
#: DBLP Q10 is left out: its cold gcov search alone takes ~11 s, 85 % of
#: a ``cold_plan`` pass, and would turn the workload into one query.
DBLP_QUERIES = tuple(e.name for e in _entries("dblp") if e.name != "Q10")
#: The big-union / type-heavy queries (q1 is a 2 112-term UCQ, Q18 704,
#: Q09 528): where per-union-term overhead is most of the evaluation.
HEAVY = ("Q05", "Q09", "Q15", "Q18", "Q19", "Q21", "Q25", "q1")
CHURN_QUERIES = ("Q01", "Q05", "Q13", "Q21")
CHURN_STRATEGIES = ("gcov", "saturation", "litemat")
#: The ``bench_serve`` mix: 1-10 ms of engine work per request.
SERVE_QUERIES: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    ("lubm", "lubm-small", ("Q01", "Q03", "Q04", "Q05", "Q10", "Q11", "Q14")),
    ("dblp", "dblp", ("Q01", "Q02", "Q04", "Q05", "Q07")),
)


def cold_plan_cells() -> List[Cell]:
    return [Cell("lubm-small", q, "gcov") for q in LUBM_QUERIES] + [
        Cell("dblp", q, "gcov") for q in DBLP_QUERIES
    ]


def warm_eval_cells() -> List[Cell]:
    """70 cells on ``lubm-large``.

    ucq x {q2, Q28} would fail by design (term limits) after 19-34 s of
    doomed materialization, so ucq runs on ``HEAVY`` only.
    """
    cells = [Cell("lubm-large", q, "gcov") for q in LUBM_QUERIES]
    for strategy in ("ucq", "scq", "litemat", "saturation"):
        cells += [Cell("lubm-large", q, strategy) for q in HEAVY]
    cells += [Cell("lubm-large", q, "gcov", "sqlite") for q in HEAVY]
    return cells


def churn_read_cells() -> List[Cell]:
    """Strategy-major, so each strategy's first read pays its rebuild."""
    return [
        Cell("lubm-small", q, strategy)
        for strategy in CHURN_STRATEGIES
        for q in CHURN_QUERIES
    ]


CHURN_WRITE = Cell("lubm-small", "write", "load_facts")


def serve_cells() -> List[Cell]:
    return [
        Cell(dataset, q, "gcov")
        for _service_name, dataset, names in SERVE_QUERIES
        for q in names
    ]


def seed_ordered(cells: List[Cell], seed: int) -> List[Cell]:
    ordered = list(cells)
    random.Random(seed).shuffle(ordered)
    return ordered
