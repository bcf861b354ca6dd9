"""Ablation — empty-answer pruning (the paper's reference [11]) vs JUCQ.

The paper's related-work claim: pruning statically-empty union terms
"may reduce [the UCQ's] syntactic size, but ... the resulting
reformulated query may still be hard to evaluate".  This bench measures
plain UCQ, pruned UCQ, and the GCov JUCQ side by side: pruning shrinks
the union substantially yet remains a single flat union, while GCov's
cover-based JUCQ restructures the computation.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.engine import EngineFailure

DATASET = "lubm-small"
ENGINE = "native-hash"
QUERY_SUBSET = ("q1", "Q05", "Q09", "Q18")
STRATEGIES = ("ucq", "pruned-ucq", "gcov")


def _entry(name: str):
    return next(e for e in H.workload(DATASET) if e.name == name)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", QUERY_SUBSET)
def test_ablation_pruning(benchmark, name, strategy):
    qa = H.answerer(DATASET, ENGINE)
    planned = qa.plan(_entry(name).query, strategy)[0]
    engine = H.engine(DATASET, ENGINE)

    def evaluate():
        return len(engine.evaluate(planned, budget=H.EVAL_BUDGET))

    try:
        answers = benchmark.pedantic(evaluate, rounds=1, iterations=1)
    except EngineFailure as error:
        pytest.skip(f"engine limit: {error}")
    benchmark.extra_info.update(
        {"answers": answers, "union_terms": planned.total_union_terms()}
    )


def test_ablation_pruning_shrinks_but_preserves(benchmark):
    def run():
        qa = H.answerer(DATASET, ENGINE)
        rows = []
        for name in QUERY_SUBSET:
            query = _entry(name).query
            full = qa.plan(query, "ucq")[0].total_union_terms()
            pruned = qa.plan(query, "pruned-ucq")[0].total_union_terms()
            same = (
                qa.answer(query, strategy="pruned-ucq").answers
                == qa.answer(query, strategy="gcov").answers
            )
            rows.append((name, full, pruned, same))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert all(pruned <= full for _, full, pruned, _ in rows)
    assert all(same for *_, same in rows)


def main():
    report = H.bench_report(
        "ablation_pruning", "Ablation — reformulation pruning"
    )
    print(f"Ablation — pruning ({DATASET}, {ENGINE})")
    print(f"{'query':8}{'|UCQ|':>8}{'|pruned|':>10}{'UCQ ms':>10}"
          f"{'pruned ms':>11}{'GCov ms':>9}")
    for entry in H.workload(DATASET):
        cells = {}
        terms = {}
        for strategy in STRATEGIES:
            m = H.measure(DATASET, entry, strategy, ENGINE)
            cells[strategy] = m.cell()
            terms[strategy] = m.reformulation_terms
            H.measurement_cell(report, m)
        print(
            f"{entry.name:8}{terms.get('ucq', 0):>8}{terms.get('pruned-ucq', 0):>10}"
            f"{cells['ucq']:>10}{cells['pruned-ucq']:>11}{cells['gcov']:>9}"
        )
    report.write_text(H.results_dir() / "ablation_pruning.txt")
    return report


if __name__ == "__main__":
    main()
