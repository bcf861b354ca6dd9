"""Table 3 — characteristics of the six-triple motivating query q2.

Per triple: #answers, #reformulations, #answers after reformulation.
In the paper, t1/t2 (the two ``rdf:type`` atoms) dominate everything
(19M answers, 188 reformulations each) while the degree atoms are
selective — grouping each type atom with its degree atom is what makes
q2 answerable.
"""

from __future__ import annotations

import pytest

import _harness as H
from repro.datasets import motivating_q2
from repro.query import BGPQuery

DATASET = "lubm-small"


def _triple_stats(index: int):
    query = motivating_q2().query
    atom = query.body[index]
    single = BGPQuery(sorted(atom.variables()), [atom], name=f"q2_t{index + 1}")
    engine = H.engine(DATASET, "native-hash")
    reformulator = H.reformulator(DATASET)
    answers = len(engine.evaluate(single))
    ucq = reformulator.reformulate(single)
    return answers, len(ucq), len(engine.evaluate(ucq))


@pytest.mark.parametrize("index", list(range(6)))
def test_table3_triple_stats(benchmark, index):
    answers, reforms, after = benchmark.pedantic(
        _triple_stats, args=(index,), rounds=1, iterations=1
    )
    benchmark.extra_info.update(
        {"answers": answers, "reformulations": reforms, "after_reformulation": after}
    )
    assert after >= answers


def test_table3_shape(benchmark):
    """The two type atoms dwarf the degree atoms; the memberOf atoms sit
    in between (paper Table 3)."""
    rows = benchmark.pedantic(
        lambda: [_triple_stats(i) for i in range(6)], rounds=1, iterations=1
    )
    type_after = rows[0][2]
    degree_after = max(rows[2][2], rows[3][2])
    assert type_after > 5 * degree_after
    assert rows[0][1] > 20 * rows[2][1]  # reformulation fan-out asymmetry


def main():
    report = H.bench_report("table3_q2_stats", "Table 3 — characteristics of q2")
    print("Table 3 — characteristics of q2 (dataset: %s)" % DATASET)
    print(f"{'triple':8}{'#answers':>12}{'#reformulations':>18}{'#after reform.':>16}")
    for index in range(6):
        answers, reforms, after = _triple_stats(index)
        print(f"t{index + 1:<7}{answers:>12}{reforms:>18}{after:>16}")
        report.add_cell(
            {"dataset": DATASET, "query": "q2", "triple": f"t{index + 1}"},
            info={
                "answers": answers,
                "reformulations": reforms,
                "after_reformulation": after,
            },
        )
    report.write_text(H.results_dir() / "table3_q2_stats.txt")
    return report


if __name__ == "__main__":
    main()
