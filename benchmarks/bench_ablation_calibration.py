"""Ablation — does per-engine calibration matter?

The paper calibrates the cost constants separately for each RDBMS and
credits this with "making the most out of each of these engines".  This
bench runs GCov once with the engine-calibrated constants and once with
the uncalibrated library defaults, and compares the chosen covers and
the resulting evaluation times per engine.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.cost import CostConstants, CostModel
from repro.engine import EngineFailure
from repro.optimizer import gcov

DATASET = "lubm-small"
QUERY_SUBSET = ("q1", "Q02", "Q09", "Q26")


def _choose(name: str, engine_name: str, calibrated: bool):
    entry = next(e for e in H.workload(DATASET) if e.name == name)
    constants = (
        H.cost_constants(DATASET, engine_name) if calibrated else CostConstants()
    )
    model = CostModel(H.database(DATASET), constants=constants)
    return gcov(entry.query, H.reformulator(DATASET), model.cost)


@pytest.mark.parametrize("calibrated", (True, False), ids=("calibrated", "defaults"))
@pytest.mark.parametrize("engine_name", ("native-hash", "sqlite"))
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_ablation_calibration(benchmark, name, engine_name, calibrated):
    result = _choose(name, engine_name, calibrated)
    engine = H.engine(DATASET, engine_name)

    def evaluate():
        return len(engine.evaluate(result.jucq, budget=H.EVAL_BUDGET))

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"choice hit an engine limit: {error}")
    benchmark.extra_info.update(
        {"answers": answers, "covers_explored": result.covers_explored}
    )


def test_ablation_calibration_correctness(benchmark):
    """Calibration changes preferences, never answers."""

    def run():
        engine = H.engine(DATASET, "native-hash")
        same = []
        for name in QUERY_SUBSET:
            with_cal = len(
                engine.evaluate(
                    _choose(name, "native-hash", True).jucq, budget=H.EVAL_BUDGET
                )
            )
            without = len(
                engine.evaluate(
                    _choose(name, "native-hash", False).jucq, budget=H.EVAL_BUDGET
                )
            )
            same.append(with_cal == without)
        return same

    assert all(benchmark.pedantic(run, rounds=1, iterations=1))


def main():
    from repro.reformulation import format_cover

    report = H.bench_report(
        "ablation_calibration", "Ablation — cost-model calibration"
    )
    print(f"Ablation — calibration ({DATASET})")
    for engine_name in ("native-hash", "sqlite"):
        print(f"\nengine: {engine_name}")
        for name in QUERY_SUBSET:
            entry = next(e for e in H.workload(DATASET) if e.name == name)
            for calibrated in (True, False):
                result = _choose(name, engine_name, calibrated)
                tag = "calibrated" if calibrated else "defaults  "
                print(
                    f"  {name:5} {tag} cover="
                    f"{format_cover(entry.query, result.cover)}"
                )
                report.add_cell(
                    {
                        "dataset": DATASET,
                        "query": name,
                        "engine": engine_name,
                        "calibrated": str(calibrated).lower(),
                    },
                    info={"cover": format_cover(entry.query, result.cover)},
                )
    report.write_text(H.results_dir() / "ablation_calibration.txt")
    return report


if __name__ == "__main__":
    main()
