"""Cost-model tour — inside the optimizer's head.

Walks the paper's Motivating Example 1 end to end:

1. enumerates every cover of the three-triple query q1;
2. prints, per cover, the itemized Section 4.1 cost estimate next to
   the *measured* evaluation time, so the model's ranking is visible;
3. runs GCov and shows the moves it actually explored vs the whole
   space;
4. calibrates the constants on the live engine and shows how the fitted
   values differ from the defaults.

Run: ``python examples/cost_model_tour.py``
"""

import time

from repro import NativeEngine, QueryAnswerer
from repro.cost import CostModel, calibrate
from repro.datasets import build_lubm_database, motivating_q1
from repro.optimizer import ecov, gcov
from repro.reformulation import Reformulator, enumerate_covers, format_cover, jucq_for_cover


def main() -> None:
    database = build_lubm_database(universities=6, seed=1)
    engine = NativeEngine(database)
    query = motivating_q1().query
    reformulator = Reformulator(database.schema)
    model = CostModel(database)
    print(f"store: {len(database)} triples; query q1: {len(query.body)} triples")

    print("\ncover                          est.cost    measured(ms)  terms")
    for cover in sorted(
        enumerate_covers(query), key=lambda c: model.cost(
            jucq_for_cover(query, c, reformulator))
    ):
        jucq = jucq_for_cover(query, cover, reformulator)
        breakdown = model.jucq_cost(jucq)
        start = time.perf_counter()
        engine.evaluate(jucq)
        measured = (time.perf_counter() - start) * 1000
        print(
            f"{format_cover(query, cover):28}{breakdown.total:12.5f}"
            f"{measured:14.1f}{jucq.total_union_terms():8d}"
        )

    greedy = gcov(query, reformulator, model.cost)
    exhaustive = ecov(query, reformulator, model.cost)
    print(
        f"\nGCov explored {greedy.covers_explored} covers "
        f"(ECov: {exhaustive.covers_explored}); "
        f"chose {format_cover(query, greedy.cover)} "
        f"vs ECov's {format_cover(query, exhaustive.cover)}"
    )

    print("\ncalibrating constants on the live engine ...")
    constants = calibrate(engine, database, repeats=2)
    defaults = CostModel(database).constants
    for field in ("c_db", "c_t", "c_j", "c_m", "c_l"):
        print(
            f"  {field}: default={getattr(defaults, field):.3g}  "
            f"fitted={getattr(constants, field):.3g}"
        )
    chosen = gcov(query, reformulator, CostModel(database, constants=constants).cost)
    print(f"calibrated GCov choice: {format_cover(query, chosen.cover)}")


if __name__ == "__main__":
    main()
