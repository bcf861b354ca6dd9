"""Table 4 — characteristics of the full workloads.

For every LUBM query (q1, q2, Q01-Q28, at both scales) and DBLP query
(Q01-Q10): the number of union terms of its UCQ reformulation
``|q_ref|`` and its answer count — the paper's Table 4 rows.

``|q_ref|`` uses the factorized counter (no materialization), so even
the 300k-term q2 rows are instant.  Answer counts use the GCov strategy
on the native-hash engine (the one configuration that always
completes).
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.reformulation import reformulation_count

_LUBM_NAMES = [entry.name for entry in H.lubm_queries()]
_DBLP_NAMES = [entry.name for entry in H.dblp_queries()]


def _entry(dataset: str, name: str):
    return next(e for e in H.workload(dataset) if e.name == name)


def _row(dataset: str, name: str):
    entry = _entry(dataset, name)
    terms = reformulation_count(entry.query, H.database(dataset).schema)
    measurement = H.measure(dataset, entry, "gcov", "native-hash")
    answers = measurement.answers if measurement.status == "ok" else measurement.status
    return terms, answers


@pytest.mark.parametrize("name", _LUBM_NAMES)
def test_table4_lubm_reformulation_sizes(benchmark, name):
    entry = _entry("lubm-small", name)
    schema = H.database("lubm-small").schema
    terms = benchmark.pedantic(
        lambda: reformulation_count(entry.query, schema), rounds=1, iterations=1
    )
    benchmark.extra_info["q_ref_terms"] = terms
    assert terms >= 1


@pytest.mark.parametrize("name", _DBLP_NAMES)
def test_table4_dblp_reformulation_sizes(benchmark, name):
    entry = _entry("dblp", name)
    schema = H.database("dblp").schema
    terms = benchmark.pedantic(
        lambda: reformulation_count(entry.query, schema), rounds=1, iterations=1
    )
    benchmark.extra_info["q_ref_terms"] = terms
    assert terms >= 1


def test_table4_variety(benchmark):
    """The workload spans tiny (1-term) to huge (>10^5-term)
    reformulations, like the paper's (1 ... 318,096)."""

    def spread():
        schema = H.database("lubm-small").schema
        return [reformulation_count(e.query, schema) for e in H.lubm_queries()]

    sizes = benchmark.pedantic(spread, rounds=1, iterations=1)
    assert min(sizes) == 1
    assert max(sizes) > 100_000


def main():
    report = H.bench_report(
        "table4_workload_stats", "Table 4 — workload characteristics"
    )
    for dataset, names in (("lubm-small", _LUBM_NAMES), ("dblp", _DBLP_NAMES)):
        print(f"\nTable 4 — {dataset} ({len(H.database(dataset))} triples)")
        print(f"{'query':8}{'|q_ref|':>10}{'answers (gcov)':>16}")
        for name in names:
            terms, answers = _row(dataset, name)
            print(f"{name:8}{terms:>10}{answers!s:>16}")
            ok = isinstance(answers, int)
            report.add_cell(
                {"dataset": dataset, "query": name},
                status="ok" if ok else str(answers),
                info={
                    "q_ref_terms": terms,
                    "answers": answers if ok else "",
                },
            )
    report.write_text(H.results_dir() / "table4_workload_stats.txt")
    return report


if __name__ == "__main__":
    main()
