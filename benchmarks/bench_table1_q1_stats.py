"""Table 1 — characteristics of the motivating query q1.

Paper row format (per triple of q1): #answers, #reformulations,
#answers after reformulation.  On the paper's 100M-triple LUBM, t1
(``?x rdf:type ?y``) has 19M answers and 188 reformulations while t2/t3
are highly selective — the asymmetry JUCQ covers exploit.  The same
asymmetry must hold on our store.

Run directly (``python benchmarks/bench_table1_q1_stats.py``) for the
paper-style table; under pytest-benchmark, the per-triple statistics
pipeline is the measured unit.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.datasets import motivating_q1
from repro.query import BGPQuery

DATASET = "lubm-small"


def _triple_stats(index: int):
    """(answers, reformulations, answers after reformulation) of one triple."""
    query = motivating_q1().query
    atom = query.body[index]
    head = sorted(atom.variables())
    single = BGPQuery(head, [atom], name=f"q1_t{index + 1}")
    engine = H.engine(DATASET, "native-hash")
    reformulator = H.reformulator(DATASET)
    answers = len(engine.evaluate(single))
    ucq = reformulator.reformulate(single)
    return answers, len(ucq), len(engine.evaluate(ucq))


@pytest.mark.parametrize("index", [0, 1, 2])
def test_table1_triple_stats(benchmark, index):
    answers, reforms, after = benchmark.pedantic(
        _triple_stats, args=(index,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {"answers": answers, "reformulations": reforms, "after_reformulation": after}
    )
    # Reformulation can only add answers (it is a superset of evaluation).
    assert after >= answers


def test_table1_shape(benchmark):
    """t1 is enormous and fans out; t2/t3 are selective — the asymmetry
    that motivates covers (paper Table 1)."""

    def shape():
        return [_triple_stats(i) for i in range(3)]

    rows = benchmark.pedantic(shape, rounds=1, iterations=1)
    (a1, r1, f1), (a2, r2, f2), (a3, r3, f3) = rows
    assert a1 > 50 * max(a2, a3)
    assert r1 > 10 * max(r2, r3)
    assert f1 >= a1


def main():
    report = H.bench_report("table1_q1_stats", "Table 1 — characteristics of q1")
    print("Table 1 — characteristics of q1 (dataset: %s, %d triples)" % (
        DATASET, len(H.database(DATASET))))
    print(f"{'triple':8}{'#answers':>12}{'#reformulations':>18}{'#after reform.':>16}")
    for index in range(3):
        answers, reforms, after = _triple_stats(index)
        print(f"t{index + 1:<7}{answers:>12}{reforms:>18}{after:>16}")
        report.add_cell(
            {"dataset": DATASET, "query": "q1", "triple": f"t{index + 1}"},
            info={
                "answers": answers,
                "reformulations": reforms,
                "after_reformulation": after,
            },
        )
    report.write_text(H.results_dir() / "table1_q1_stats.txt")
    return report


if __name__ == "__main__":
    main()
