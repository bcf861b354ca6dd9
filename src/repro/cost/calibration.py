"""Per-engine calibration of the cost-model constants.

The paper instantiates its cost formulas "with the proper coefficients,
learned by running our calibration queries on that system"
(Section 5.1).  We do the same: a small probe workload — single-atom
scans of varied sizes, unions, and two-operand joins of unions, all
drawn from the actual database — is timed on the target engine, the
model's feature values are computed for each probe, and a non-negative
least squares fit recovers the constants.

Fitted groups (the probes cannot separate constants that only ever
appear summed):

* ``c_db``           — the intercept;
* ``c_t + c_j``      — per scanned/joined input tuple within a UCQ;
* ``c_j + c_m``      — per tuple of the operand results that are joined
  and materialized;
* ``c_l``            — per deduplicated result tuple.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, List, Tuple

import numpy as np
from scipy.optimize import nnls

from ..engine.budget import ExecutionBudget
from ..query.algebra import JUCQ, UCQ, as_jucq
from ..query.bgp import BGPQuery
from ..rdf.terms import URI, Variable
from ..storage.database import RDFDatabase
from .cardinality import CardinalityEstimator
from .model import CostConstants


def _probe_queries(database: RDFDatabase, max_properties: int = 8):
    """Build the probe workload from the database's own properties."""
    from ..rdf.vocabulary import RDF_TYPE

    view = database.snapshot().table
    dictionary = database.dictionary
    # Collect per-property counts; keep a spread of sizes.
    property_counts: List[Tuple[URI, int]] = []
    seen: set = set()
    for _, p, _ in view.iter_matches((None, None, None)):
        if p in seen:
            continue
        seen.add(p)
        count = view.pattern_count((None, p, None))
        term = dictionary.decode(p)
        if term != RDF_TYPE:
            property_counts.append((term, count))
    property_counts.sort(key=lambda pair: pair[1])
    if len(property_counts) > max_properties:
        step = len(property_counts) / max_properties
        property_counts = [
            property_counts[int(i * step)] for i in range(max_properties)
        ]
    x, y, z = Variable("x"), Variable("y"), Variable("z")
    probes: List[object] = []
    from ..rdf.terms import Triple

    atoms = [Triple(x, prop, y) for prop, _ in property_counts]
    # Single-atom scans.
    for atom in atoms:
        probes.append(BGPQuery([x, y], [atom], name="probe_scan"))
    # Unions of increasing width.
    for width in (2, max(3, len(atoms) // 2), len(atoms)):
        if 0 < width <= len(atoms):
            probes.append(
                UCQ(
                    [BGPQuery([x], [atom], name="probe_u") for atom in atoms[:width]],
                    name="probe_union",
                )
            )
    # Two-operand joins of unions (share variable x).
    half = max(1, len(atoms) // 2)
    if len(atoms) >= 2:
        left = UCQ([BGPQuery([x], [atom], name="l") for atom in atoms[:half]])
        right = UCQ([BGPQuery([x], [atom], name="r") for atom in atoms[half:]])
        probes.append(JUCQ([x], [left, right], name="probe_join"))
        # A join with a selective side: first (smallest) property only.
        small = UCQ([BGPQuery([x], [atoms[0]], name="s")])
        big = UCQ([BGPQuery([x], [atom], name="b") for atom in atoms])
        probes.append(JUCQ([x], [small, big], name="probe_join_selective"))
    # Two-atom conjunctive joins.
    for first, second in zip(atoms, atoms[1:]):
        body = [first, Triple(x, second.p, z)]
        probes.append(BGPQuery([x], body, name="probe_cq_join"))
    return probes


def _features(query, estimator: CardinalityEstimator) -> np.ndarray:
    """The model's feature vector (c_db, c_t+c_j, c_j+c_m, c_l) for a
    probe, as its JUCQ: the join columns only with two or more operands,
    as in :meth:`~repro.cost.model.CostModel.jucq_cost`."""
    jucq = as_jucq(query)
    scan = sum(estimator.ucq_scan_size(u) for u in jucq)
    sizes = [estimator.ucq_cardinality(u) for u in jucq]
    if len(sizes) == 1:
        return np.array([1.0, scan, 0.0, sizes[0]])
    dedup = sum(sizes) + estimator.jucq_cardinality(jucq)
    return np.array([1.0, scan, float(sum(sizes)), dedup])


#: Each probe's allowance: a probe slower than this is skipped.
PROBE_BUDGET = ExecutionBudget(timeout_s=30.0)


def _time_call(call: Callable[[], object], repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


def calibrate(
    engine,
    database: RDFDatabase,
    repeats: int = 3,
) -> CostConstants:
    """Fit :class:`CostConstants` for ``engine`` over ``database``.

    ``engine`` is any :class:`~repro.engine.Engine` (native or SQLite).
    Each probe evaluation gets :data:`PROBE_BUDGET`; probes that fail
    or time out are skipped.
    """
    estimator = CardinalityEstimator(database)
    rows: List[np.ndarray] = []
    times: List[float] = []
    from ..engine.evaluator import EngineFailure

    for probe in _probe_queries(database):
        try:
            elapsed = _time_call(
                lambda: engine.evaluate(probe, budget=PROBE_BUDGET), repeats
            )
        except EngineFailure:
            continue
        rows.append(_features(probe, estimator))
        times.append(elapsed)
    if len(rows) < 4:
        raise RuntimeError(
            f"only {len(rows)} probes succeeded; not enough to calibrate"
        )
    matrix = np.vstack(rows)
    target = np.array(times)
    coefficients, _ = nnls(matrix, target)
    c_db, c_scan_join, c_join_mat, c_l = (max(c, 0.0) for c in coefficients)
    # Split the fitted groups back into the model's named constants.
    c_t = c_j = max(c_scan_join / 2.0, 1e-10)
    c_m = max(c_join_mat - c_j, 1e-10)
    c_l = max(c_l, 1e-10)
    return CostConstants(
        c_db=max(c_db, 1e-6),
        c_t=c_t,
        c_j=c_j,
        c_m=c_m,
        c_l=c_l,
        c_k=c_l / 10.0,
    )


def save_constants(constants: CostConstants, path: Path) -> None:
    """Persist calibrated constants as JSON."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(constants.to_dict(), indent=2))


def load_constants(path: Path) -> CostConstants:
    """Load constants saved by :func:`save_constants`."""
    return CostConstants.from_dict(json.loads(Path(path).read_text()))
