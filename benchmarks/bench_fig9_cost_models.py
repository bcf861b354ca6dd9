"""Figure 9 — our cost model vs the engine's internal cost model.

The paper drives ECov/GCov once with its own Section 4.1 cost model and
once with Postgres's internal estimate (via ``EXPLAIN``), then compares
the evaluation times of the chosen JUCQs.  Finding: the two mostly
agree — validating the paper model's accuracy — and the paper model is
*more robust* (its choices always evaluate; some EXPLAIN-guided ones
fail).

Here the rival oracle is the native engine's operator-level
:class:`~repro.engine.explain.EngineCostEstimator` (greedy join order,
per-operator charges), played against the calibrated Section 4.1 model.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.engine import EngineCostEstimator, EngineFailure
from repro.optimizer import gcov

DATASET = "lubm-small"
ENGINE = "native-hash"
QUERY_SUBSET = ("q1", "Q02", "Q07", "Q09", "Q18", "Q26")


def _entry(name: str):
    return next(e for e in H.workload(DATASET) if e.name == name)


def _choose(name: str, oracle: str):
    reformulator = H.reformulator(DATASET)
    if oracle == "paper":
        cost = H.cost_model(DATASET, ENGINE).cost
    else:
        cost = EngineCostEstimator(
            H.database(DATASET), H.engine(DATASET, ENGINE).profile
        ).cost
    return gcov(_entry(name).query, reformulator, cost)


@pytest.mark.parametrize("oracle", ("paper", "engine-internal"))
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_fig9_evaluation_time(benchmark, name, oracle):
    result = _choose(name, oracle)
    engine = H.engine(DATASET, ENGINE)

    def evaluate():
        return len(engine.evaluate(result.jucq, budget=H.EVAL_BUDGET))

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"engine limit: {error}")
    benchmark.extra_info.update(
        {"answers": answers, "covers_explored": result.covers_explored}
    )


def test_fig9_models_agree_on_answers(benchmark):
    """Whatever the oracle, the chosen JUCQ computes the same answers."""

    def run():
        engine = H.engine(DATASET, ENGINE)
        agreements = []
        for name in QUERY_SUBSET:
            paper_count = len(
                engine.evaluate(_choose(name, "paper").jucq, budget=H.EVAL_BUDGET)
            )
            internal_count = len(
                engine.evaluate(
                    _choose(name, "engine-internal").jucq, budget=H.EVAL_BUDGET
                )
            )
            agreements.append(paper_count == internal_count)
        return agreements

    assert all(benchmark.pedantic(run, rounds=1, iterations=1))


def main():
    import time

    from repro.bench import summarize

    engine = H.engine(DATASET, ENGINE)
    report = H.bench_report(
        "fig9_cost_models", "Figure 9 — paper vs engine-internal cost model"
    )
    print(f"Figure 9 — cost model comparison on {DATASET} / {ENGINE}")
    print(f"{'query':8}{'paper model (ms)':>18}{'engine model (ms)':>20}"
          f"{'same cover?':>14}")
    for entry in H.workload(DATASET):
        cells = {}
        covers = {}
        timings = {}
        for oracle in ("paper", "engine-internal"):
            try:
                result = _choose(entry.name, oracle)
                covers[oracle] = result.cover
                samples_ms = []
                for _ in range(H.BENCH_REPEATS):
                    start = time.perf_counter()
                    engine.evaluate(result.jucq, budget=H.EVAL_BUDGET)
                    samples_ms.append((time.perf_counter() - start) * 1000)
                timings[oracle] = samples_ms
                cells[oracle] = f"{samples_ms[0]:.1f}"
            except EngineFailure:
                cells[oracle] = "FAILED"
                covers[oracle] = None
        same = "yes" if covers["paper"] == covers["engine-internal"] else "no"
        for oracle in ("paper", "engine-internal"):
            ok = oracle in timings
            report.add_cell(
                {
                    "dataset": DATASET,
                    "query": entry.name,
                    "oracle": oracle,
                    "engine": ENGINE,
                },
                status="ok" if ok else "failed",
                metrics={"evaluation_ms": summarize(timings[oracle])} if ok else {},
                info={"same_cover": same},
            )
        print(
            f"{entry.name:8}{cells['paper']:>18}{cells['engine-internal']:>20}"
            f"{same:>14}"
        )
    report.write_text(H.results_dir() / "fig9_cost_models.txt")
    return report


if __name__ == "__main__":
    main()
