"""Cache ablation — cold vs warm answering through the query cache.

Not a paper figure: this bench quantifies the multi-level query cache
of DESIGN.md §9.  A *cold* pass answers the workload through a fresh
answerer (empty reformulation memo, empty plan cache); a *warm* pass
repeats the same workload through the same cache-enabled answerer, so
every reformulation and plan is served from memory and only evaluation
remains.  The headline number is the warm/cold optimize-time ratio —
the ISSUE's acceptance bar is a ≥5× drop on the repeated LUBM workload.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.answering import QueryAnswerer
from repro.cache import QueryCache
from repro.reformulation import Reformulator

DATASET = "lubm-small"
ENGINE = "native-hash"
STRATEGY = "gcov"
#: Workload subset kept clear of the monster reformulations (q2/Q28).
QUERY_SUBSET = ("q1", "Q01", "Q04", "Q05", "Q09", "Q15", "Q18", "Q19")


def _fresh_answerer(cache: QueryCache = None) -> QueryAnswerer:
    """An answerer with no shared memo state (a genuinely cold start)."""
    db = H.database(DATASET)
    return QueryAnswerer(
        db,
        engine=H.engine(DATASET, ENGINE),
        cost_model=H.cost_model(DATASET, ENGINE),
        reformulator=Reformulator(db.schema, limit=H.REFORMULATION_TERM_LIMIT),
        ecov_max_covers=20_000,
        cache=cache,
    )


def _entries():
    return [e for e in H.workload(DATASET) if e.name in QUERY_SUBSET]


def _pass(answerer: QueryAnswerer):
    """Answer the subset once; returns (optimize_s, evaluate_s)."""
    optimize_s = evaluate_s = 0.0
    for entry in _entries():
        report = answerer.answer(entry.query, strategy=STRATEGY)
        optimize_s += report.optimization_s
        evaluate_s += report.evaluation_s
    return optimize_s, evaluate_s


@pytest.mark.parametrize("mode", ("cold", "warm"))
def test_bench_cache(benchmark, mode):
    if mode == "cold":
        answers = benchmark.pedantic(
            lambda: _pass(_fresh_answerer(QueryCache())), rounds=1, iterations=1
        )
    else:
        answerer = _fresh_answerer(QueryCache())
        _pass(answerer)  # fill every level
        answers = benchmark.pedantic(
            lambda: _pass(answerer), rounds=1, iterations=1
        )
    benchmark.extra_info.update(
        {"optimize_s": answers[0], "evaluate_s": answers[1]}
    )


def main():
    from repro.bench import summarize

    cache = QueryCache()
    answerer = _fresh_answerer(cache)
    report = H.bench_report("cache", "Cache ablation — cold vs warm passes")
    print(f"Cache ablation ({DATASET}, {ENGINE}, {STRATEGY})")
    print(f"{'pass':8}{'optimize ms':>14}{'evaluate ms':>14}")
    passes = []
    for index in range(3):
        optimize_s, evaluate_s = _pass(answerer)
        passes.append((optimize_s, evaluate_s))
        label = "cold" if index == 0 else f"warm{index}"
        print(f"{label:8}{optimize_s * 1000:>14.1f}{evaluate_s * 1000:>14.1f}")
        report.add_cell(
            {"dataset": DATASET, "engine": ENGINE, "pass": label},
            metrics={
                "optimize_ms": summarize([optimize_s * 1000]),
                "evaluate_ms": summarize([evaluate_s * 1000]),
            },
        )
    cold, warm = passes[0][0], passes[-1][0]
    if warm > 0:
        print(f"\nwarm/cold optimize speedup: {cold / warm:.1f}x")
    print("\n== cache levels ==")
    for level, stats in sorted(cache.stats().items()):
        print(
            f"  {level:<14} size={stats['size']:>5} hits={stats['hits']:>6} "
            f"misses={stats['misses']:>6} hit_rate={stats['hit_rate']:.2f}"
        )
        report.add_cell(
            {"dataset": DATASET, "engine": ENGINE, "cache_level": level},
            info={"hit_rate": round(stats["hit_rate"], 3)},
        )
    report.write_text(H.results_dir() / "cache.txt")
    return report


if __name__ == "__main__":
    main()
