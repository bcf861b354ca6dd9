"""Figure 7 — LUBM: covers explored and optimizer running times.

Top of the paper's figure: the number of covers explored by ECov (the
whole space) vs GCov (a small subset).  Bottom: the running time of
GCov and ECov next to the time to merely *build* the UCQ and SCQ
reformulations.  Expected shape: GCov explores a fraction of the space
and can be an order of magnitude faster than ECov; UCQ/SCQ construction
is cheaper still (they are cost-ignorant); the worst optimizer times
belong to the huge-reformulation queries (q2, Q28).
"""

from __future__ import annotations

import time

import pytest

import _harness as H
from repro.cost import CostModel
from repro.optimizer import SearchInfeasible, ecov, gcov
from repro.reformulation import Reformulator, scq_reformulation, ucq_reformulation

DATASET = "lubm-small"
QUERY_SUBSET = ("q1", "Q02", "Q09", "Q18", "Q26")


def _entry(name: str):
    return next(e for e in H.workload(DATASET) if e.name == name)


def _fresh_tools():
    """Unshared reformulator+model so each measurement pays full cost."""
    db = H.database(DATASET)
    return (
        Reformulator(db.schema, limit=H.REFORMULATION_TERM_LIMIT),
        CostModel(db, constants=H.cost_constants(DATASET, "native-hash")),
    )


@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig7_gcov_time(benchmark, name):
    query = _entry(name).query

    def run():
        reformulator, model = _fresh_tools()
        return gcov(query, reformulator, model.cost)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["covers_explored"] = result.covers_explored


@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig7_ecov_time(benchmark, name):
    query = _entry(name).query

    def run():
        reformulator, model = _fresh_tools()
        return ecov(query, reformulator, model.cost, max_covers=20_000)

    try:
        result = benchmark.pedantic(run, rounds=1, iterations=1)
    except SearchInfeasible as error:
        pytest.skip(f"ECov infeasible: {error}")
    benchmark.extra_info["covers_explored"] = result.covers_explored


@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig7_ucq_build_time(benchmark, name):
    query = _entry(name).query

    def run():
        reformulator, _ = _fresh_tools()
        return ucq_reformulation(query, reformulator)

    ucq = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["terms"] = len(ucq)


def test_fig7_gcov_explores_fraction(benchmark):
    """GCov explores far fewer covers than ECov on multi-atom queries."""

    def run():
        reformulator, model = _fresh_tools()
        query = _entry("Q02").query  # 6 atoms
        greedy = gcov(query, reformulator, model.cost)
        exhaustive = ecov(query, reformulator, model.cost, max_covers=50_000)
        return greedy, exhaustive

    greedy, exhaustive = benchmark.pedantic(run, rounds=1, iterations=1)
    assert greedy.covers_explored < exhaustive.covers_explored / 2


def search_main(bench_name: str, title: str, dataset: str, fresh_tools):
    """Shared fig7/fig8 driver: per-(query, method) optimizer timings.

    Each method — ECov/GCov search, UCQ/SCQ construction — becomes one
    report cell with a ``time_ms`` metric (infeasible/over-limit methods
    keep the paper's missing-cell semantics as non-ok statuses).
    """
    import gc

    from repro.bench import summarize
    from repro.reformulation import ReformulationLimitExceeded

    report = H.bench_report(bench_name, title)

    def timed_cell(query_name, method, run):
        labels = {"dataset": dataset, "query": query_name, "method": method}
        start = time.perf_counter()
        try:
            info = run() or {}
        except SearchInfeasible:
            report.add_cell(labels, status="infeasible")
            return "INF"
        except ReformulationLimitExceeded:
            report.add_cell(labels, status="failed")
            return "LIM"
        elapsed_ms = (time.perf_counter() - start) * 1000
        report.add_cell(
            labels, metrics={"time_ms": summarize([elapsed_ms])}, info=info
        )
        return f"{elapsed_ms:.0f}"

    print(title)
    print(
        f"{'query':8}{'ECov covers':>12}{'GCov covers':>12}"
        f"{'ECov (ms)':>12}{'GCov (ms)':>12}{'UCQ build':>12}{'SCQ build':>12}"
    )
    for entry in H.workload(dataset):
        query = entry.query
        covers = {}

        def run_ecov():
            reformulator, model = fresh_tools()
            result = ecov(query, reformulator, model.cost, max_covers=20_000)
            covers["ecov"] = result.covers_explored
            return {"covers_explored": result.covers_explored}

        def run_gcov():
            reformulator, model = fresh_tools()
            result = gcov(query, reformulator, model.cost)
            covers["gcov"] = result.covers_explored
            return {"covers_explored": result.covers_explored}

        def run_ucq():
            reformulator, _ = fresh_tools()
            return {"terms": len(ucq_reformulation(query, reformulator))}

        def run_scq():
            reformulator, _ = fresh_tools()
            scq_reformulation(query, reformulator)

        ecov_cell = timed_cell(entry.name, "ecov", run_ecov)
        gcov_cell = timed_cell(entry.name, "gcov", run_gcov)
        ucq_cell = timed_cell(entry.name, "ucq-build", run_ucq)
        scq_cell = timed_cell(entry.name, "scq-build", run_scq)
        print(
            f"{entry.name:8}{covers.get('ecov', 'INF')!s:>12}"
            f"{covers.get('gcov', '-')!s:>12}"
            f"{ecov_cell:>12}{gcov_cell:>12}{ucq_cell:>12}{scq_cell:>12}"
        )
        gc.collect()
    report.write_text(H.results_dir() / f"{bench_name}.txt")
    return report


def main():
    return search_main(
        "fig7_lubm_search",
        f"Figure 7 — optimizer search on {DATASET}",
        DATASET,
        _fresh_tools,
    )


if __name__ == "__main__":
    main()
