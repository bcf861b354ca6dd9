#!/usr/bin/env python3
"""Regenerate ``tests/data/gcov_covers.json``, the cover-search golden.

For every LUBM query + q1/q2 on a 2-university store and every DBLP
query but Q10 on an 800-publication store: the cover ``gcov`` picks,
``repr(estimated_cost)`` and ``covers_explored``; the same for ``ecov``
on the queries of at most five atoms (under a union-term limit, so the
one-fragment cover of Q28 costs +inf instead of minutes).
``tests/test_gcov_golden.py`` fails on any byte of difference, which is
how the bit-identity rule of DESIGN.md §19 is enforced: a cost-layer
change that is meant to leave plans alone must reproduce this file
exactly.

Run it at the commit whose plans are the reference (the *parent* of a
change that must not move plans), never to make a failing test pass::

    PYTHONHASHSEED=0 PYTHONPATH=src python tools/gen_gcov_golden.py

``--stdout`` prints the document instead of writing it (the test's
mode).  The hash seed is pinned because the estimator divides per join
variable in set-iteration order, so the last bit of a cost may depend
on it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.cost import CostModel
from repro.datasets import (
    build_dblp_database,
    build_lubm_database,
    dblp_workload,
    lubm_workload,
    motivating_q1,
    motivating_q2,
)
from repro.optimizer import ecov, gcov
from repro.reformulation.reformulate import Reformulator

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "data" / "gcov_covers.json"
LUBM_UNIVERSITIES = 2
DBLP_PUBLICATIONS = 800
#: ECov enumerates every minimal cover; beyond five atoms that is minutes.
ECOV_MAX_ATOMS = 5
#: ECov also costs the covers GCov never reaches, whose fragments can
#: reformulate into millions of terms; past this many a cover is +inf.
ECOV_TERM_LIMIT = 1_000


def stores() -> Iterator[Tuple[str, object, list]]:
    """(dataset name, database, workload entries), built with seed 0."""
    lubm = [motivating_q1(), motivating_q2()] + list(lubm_workload())
    yield "lubm", build_lubm_database(universities=LUBM_UNIVERSITIES, seed=0), lubm
    dblp = [entry for entry in dblp_workload() if entry.name != "Q10"]
    yield "dblp", build_dblp_database(publications=DBLP_PUBLICATIONS, seed=0), dblp


def searches(query) -> List[Tuple[str, object, Optional[int]]]:
    """(name, search, union-term limit) of every search pinned for ``query``."""
    found = [("gcov", gcov, None)]
    if len(query.body) <= ECOV_MAX_ATOMS:
        found.append(("ecov", ecov, ECOV_TERM_LIMIT))
    return found


def search_record(search, limit, query, database) -> Dict[str, object]:
    """One search from cold state: fresh reformulator, model and estimator."""
    reformulator = Reformulator(database.schema, limit=limit)
    result = search(query, reformulator, CostModel(database).cost)
    return {
        "cover": sorted(sorted(fragment) for fragment in result.cover),
        "estimated_cost": repr(result.estimated_cost),
        "covers_explored": result.covers_explored,
    }


def generate() -> Dict[str, Dict[str, object]]:
    golden: Dict[str, Dict[str, object]] = {}
    for dataset, database, entries in stores():
        for entry in entries:
            for algorithm, search, limit in searches(entry.query):
                golden[f"{dataset}/{entry.name}/{algorithm}"] = search_record(
                    search, limit, entry.query, database
                )
    return golden


if __name__ == "__main__":
    document = json.dumps(generate(), indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--stdout"]:
        sys.stdout.write(document)
    else:
        GOLDEN.parent.mkdir(exist_ok=True)
        GOLDEN.write_text(document)
        print(f"wrote {GOLDEN}")
