"""The native engines' *internal* cost estimation (the Figure 9 rival).

The paper compares its Section 4.1 cost model against the RDBMS's own
cost estimation (obtained via ``EXPLAIN`` on Postgres).  Our native
engines expose an analogous internal estimate: an operator-level
costing of the plan the engine would actually run — greedy join order,
per-join input *and output* charges, union concatenation and
duplicate-elimination charges.

It deliberately differs from the paper's model: it tracks intermediate
result sizes through the join order instead of charging a flat
linear-in-inputs join cost, and it has its own constants.  Feeding it
to ECov/GCov (instead of the paper model) reproduces the Figure 9
comparison.

Its one caller is ``benchmarks/bench_fig9_cost_models.py``:
:class:`EngineCostEstimator` is that figure's "engine-internal estimate".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..cost.cardinality import CardinalityEstimator
from ..query.algebra import JUCQ, UCQ, as_jucq
from ..query.bgp import BGPQuery
from ..storage.database import RDFDatabase
from .evaluator import EngineProfile, NATIVE_HASH


@dataclass(frozen=True)
class InternalCostConstants:
    """Per-operator charges of the engine's own cost accounting."""

    startup: float = 5e-4
    scan_per_tuple: float = 2.5e-7
    hash_build_per_tuple: float = 3e-7
    hash_probe_per_tuple: float = 2e-7
    sort_per_tuple_log: float = 6e-8
    output_per_tuple: float = 1.2e-7
    dedup_per_tuple: float = 1.6e-7


class EngineCostEstimator:
    """Operator-level cost estimates, mimicking the native execution plan."""

    def __init__(
        self,
        database: RDFDatabase,
        profile: EngineProfile = NATIVE_HASH,
        constants: Optional[InternalCostConstants] = None,
        estimator: Optional[CardinalityEstimator] = None,
    ):
        self.database = database
        self.profile = profile
        self.constants = constants or InternalCostConstants()
        self.estimator = estimator or CardinalityEstimator(database)

    # ------------------------------------------------------------------
    def _join_charge(self, left_rows: float, right_rows: float, out_rows: float) -> float:
        k = self.constants
        if self.profile.join_algorithm == "merge":
            import math

            sort = sum(
                n * math.log2(max(n, 2.0)) for n in (left_rows, right_rows)
            )
            return k.sort_per_tuple_log * sort + k.output_per_tuple * out_rows
        build, probe = min(left_rows, right_rows), max(left_rows, right_rows)
        return (
            k.hash_build_per_tuple * build
            + k.hash_probe_per_tuple * probe
            + k.output_per_tuple * out_rows
        )

    def cq_cost(self, cq: BGPQuery) -> float:
        """Cost of one conjunct under the greedy join order."""
        k = self.constants
        if not cq.body:
            return k.output_per_tuple
        counts = [float(self.estimator.atom_count(atom)) for atom in cq.body]
        cost = k.scan_per_tuple * sum(counts)
        # Track intermediate sizes along a greedy smallest-first order,
        # estimating each partial result with the cardinality model.
        order = sorted(range(len(cq.body)), key=lambda i: counts[i])
        joined: List[int] = []
        current_rows = 0.0
        for position, index in enumerate(order):
            if position == 0:
                current_rows = counts[index]
                joined.append(index)
                continue
            joined.append(index)
            partial = BGPQuery(
                sorted(
                    set().union(*(cq.body[i].variables() for i in joined)),
                ),
                [cq.body[i] for i in joined],
                name="partial",
            )
            out_rows = self.estimator.cq_cardinality(partial)
            cost += self._join_charge(current_rows, counts[index], out_rows)
            current_rows = out_rows
        return cost

    def ucq_cost(self, ucq: UCQ) -> float:
        """Cost of one union operand: conjuncts + concatenation + dedup."""
        k = self.constants
        cost = sum(self.cq_cost(cq) for cq in ucq)
        result = self.estimator.ucq_cardinality(ucq)
        return cost + k.dedup_per_tuple * result

    def jucq_cost(self, jucq: JUCQ) -> float:
        """Cost of the full JUCQ plan the engine would run."""
        k = self.constants
        cost = k.startup
        sizes: List[float] = []
        for ucq in jucq:
            cost += self.ucq_cost(ucq)
            sizes.append(self.estimator.ucq_cardinality(ucq))
        if len(sizes) > 1:
            # Greedy smallest-first join order over operand results.
            order = sorted(range(len(sizes)), key=lambda i: sizes[i])
            current = sizes[order[0]]
            remaining_selectivity = self.estimator.jucq_cardinality(jucq)
            for index in order[1:]:
                # Interpolate intermediate sizes between the running
                # product and the final estimate.
                out_rows = max(
                    min(current * sizes[index], max(remaining_selectivity, 1.0)),
                    remaining_selectivity,
                )
                cost += self._join_charge(current, sizes[index], out_rows)
                current = out_rows
            cost += k.dedup_per_tuple * remaining_selectivity
        return cost

    def cost(self, query) -> float:
        """Estimate any query form, as its JUCQ."""
        return self.jucq_cost(as_jucq(query))
