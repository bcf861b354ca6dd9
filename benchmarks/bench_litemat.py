"""LiteMat interval encoding vs the reformulation strategies (DESIGN.md §16).

The ``litemat`` strategy sidesteps the union fan-out the paper's whole
optimization story fights: instead of one union term per subclass of
every ``?x rdf:type C`` atom, hierarchy-aware interval codes let the
atom run as a *single range scan* over a derived encoded store.  This
bench measures it against the reformulation strategies (ucq, scq, the
gcov-chosen JUCQ) and the saturation upper bound on the *type-heavy*
subset of the LUBM workload — the Fig-4-class queries dominated by
``rdf:type`` atoms over classes with deep subclass trees, where the
fan-out is worst.

Headline cells (committed ``results/litemat.txt``):

* union terms collapse to a *single range-scan term* on every
  type-heavy query — ≥11x fewer than the plain UCQ (Q05 65→1,
  Q15 56→1, Q21/Q25 36→1; term counts depend only on the schema, so
  they hold at every data scale);
* litemat evaluation beats the gcov-chosen JUCQ wall-clock on every
  cell.

The class-*variable* monsters (Q09/Q18/Q28) are deliberately outside
the grid: a ``?x rdf:type ?c`` atom has no constant class to turn into
a range, so litemat falls back to instantiation there (Q09 528→42,
Q28 185856→1764 terms — Q28 thereby drops *under* native-merge's
2000-term statement limit, but the evaluated union still dwarfs the
gcov-chosen JUCQ).  The differential sweeps in
``tests/test_differential.py`` cover them for correctness.

``python benchmarks/bench_litemat.py`` runs the grid, prints one table
per engine plus the union-term comparison, and writes
``results/litemat.txt``; the CI ``litemat-smoke`` job fails on any cell
of it that is not ``status=ok``.
"""

from __future__ import annotations

from typing import Sequence

import _harness as H

DATASET = "lubm-small"
STRATEGIES = ("ucq", "scq", "gcov", "saturation", "litemat")

#: The type-heavy LUBM queries: constant-class ``rdf:type`` atoms over
#: deep subclass trees, the Fig-4-class fan-out litemat collapses to
#: single range scans.
TYPE_HEAVY = (
    "Q02", "Q03", "Q04", "Q05", "Q08", "Q13",
    "Q15", "Q16", "Q17", "Q21", "Q24", "Q25",
)


def _entries():
    by_name = {entry.name: entry for entry in H.workload(DATASET)}
    return [by_name[name] for name in TYPE_HEAVY]


def _warm_derived_stores() -> None:
    """Build each engine's interval-encoded derived store outside the
    timed cells: the re-encode is a one-time, snapshot-keyed cost amortized
    over the whole query stream (and cached by the assigner), so timing
    it inside the first cell would misattribute it to that query."""
    entry = _entries()[0]
    for engine_name in H.ENGINE_NAMES:
        H.measure(DATASET, entry, "litemat", engine_name, repeats=1)
        H.measure(DATASET, entry, "saturation", engine_name, repeats=1)


def _print_union_terms(results: Sequence[H.Measurement]) -> None:
    """The before/after table: union terms per strategy, one engine's
    worth (term counts are engine-independent)."""
    engine_name = H.ENGINE_NAMES[0]
    print("\n-- reformulation union terms (litemat = range-scan terms)")
    header = "query".ljust(6) + "".join(s.rjust(12) for s in ("ucq", "gcov", "litemat"))
    print(header + "ucq/litemat".rjust(14))
    for name in TYPE_HEAVY:
        cells = {
            m.strategy: m
            for m in results
            if m.engine == engine_name and m.query == name
        }
        row = name.ljust(6)
        for strategy in ("ucq", "gcov", "litemat"):
            m = cells.get(strategy)
            if m is None or (m.status != "ok" and not m.reformulation_terms):
                row += "-".rjust(12)
            else:
                row += str(m.reformulation_terms).rjust(12)
        ucq, lite = cells.get("ucq"), cells.get("litemat")
        if ucq and lite and ucq.reformulation_terms and lite.reformulation_terms:
            row += f"{ucq.reformulation_terms / lite.reformulation_terms:.1f}x".rjust(14)
        else:
            row += "-".rjust(14)
        print(row)


def main():
    _warm_derived_stores()
    results = H.run_grid(DATASET, _entries(), STRATEGIES, H.ENGINE_NAMES)
    report = H.finish_grid(
        "litemat",
        f"LiteMat interval encoding — {DATASET} "
        f"({len(H.database(DATASET))} triples), type-heavy queries",
        results,
        STRATEGIES,
    )
    _print_union_terms(results)
    return report


if __name__ == "__main__":
    main()
