"""The paper's JUCQ evaluation cost model (Section 4.1).

For a JUCQ ``q(x̄) :- u1 ⋈ ... ⋈ um`` evaluated through an RDBMS::

    c(q) = c_db                                   (i)  connection overhead
         + Σ_i  c_eval(u_i)                       (ii) evaluate each UCQ
                = c_unique(u_i)                   (iii) dedup its result
                + (c_t + c_j) · Σ_cq Σ_t |cq_t|        scan + join, linear
                                                       in the input sizes
         + c_join(u_1..m) = c_j · Σ_i |u_i|       (iv) join the sub-results
         + c_mat = c_m · Σ_{i≠k} |u_i|            (v)  materialize all but
                                                       the largest (k),
                                                       which is pipelined
         + c_unique(q)                            (vi) dedup the final rows

``c_unique(n)`` is ``c_l · n`` while ``n`` fits the sort memory and
``c_k · n·log n`` beyond it (disk merge sort).  ``|cq_t|`` — the match
count of a single atom — is exact from the indexes; result sizes
``|u_i|`` come from :class:`repro.cost.cardinality.CardinalityEstimator`.

Every query is priced as its JUCQ (:func:`repro.query.algebra.as_jucq`).
A single-operand JUCQ (the classic UCQ reformulation, or a bare CQ as a
one-term union) is charged (i)+(ii) only, (ii) including its (iii)
dedup: nothing is joined or materialized and no final dedup is charged.
That is what the engine runs for it — the operand's union and its one
dedup (:meth:`~repro.query.algebra.JUCQ.lone_union`).

The constants are per-engine, produced by
:mod:`repro.cost.calibration`; sensible defaults let the model run
uncalibrated (the *ordering* of candidate covers, which is what the
optimizers need, is already meaningful with the defaults).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import Dict, Optional, Tuple

from ..query.algebra import JUCQ, UCQ, as_jucq
from ..storage.database import RDFDatabase
from ..storage.triple_table import TableView
from .cardinality import CardinalityEstimator


@dataclass(frozen=True)
class CostConstants:
    """Calibrated per-engine constants of the Section 4.1 formulas."""

    #: Fixed per-statement overhead (connection, parse, plan) — seconds.
    c_db: float = 1e-3
    #: Cost of retrieving one tuple from a scan — seconds/tuple.
    c_t: float = 2e-7
    #: Join effort per input tuple — seconds/tuple.
    c_j: float = 2e-7
    #: Materialization cost per tuple — seconds/tuple.
    c_m: float = 1e-7
    #: In-memory duplicate-elimination cost per tuple — seconds/tuple.
    c_l: float = 1.5e-7
    #: Disk-sort duplicate-elimination factor — seconds/(tuple·log2 tuple).
    c_k: float = 5e-8
    #: Result size beyond which dedup is charged as a disk merge sort.
    sort_memory_rows: int = 1_000_000

    def to_dict(self) -> Dict[str, float]:
        """Plain-dict form (JSON-friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, float]) -> "CostConstants":
        """Inverse of :meth:`to_dict`."""
        return cls(**data)


@dataclass
class CostBreakdown:
    """Itemized cost of one JUCQ, for reports and tests."""

    connection: float = 0.0
    scan_join: float = 0.0
    operand_dedup: float = 0.0
    operand_join: float = 0.0
    materialization: float = 0.0
    final_dedup: float = 0.0

    @property
    def total(self) -> float:
        """Sum of every component (the scalar the optimizers compare)."""
        return (
            self.connection
            + self.scan_join
            + self.operand_dedup
            + self.operand_join
            + self.materialization
            + self.final_dedup
        )


class CostModel:
    """The paper's cost function ``c`` bound to one database and engine profile.

    Set ``charge_materialization`` / ``charge_dedup`` to False for the
    ablation benchmarks that measure each term's contribution to GCov's
    choices.
    """

    def __init__(
        self,
        database: RDFDatabase,
        constants: Optional[CostConstants] = None,
        estimator: Optional[CardinalityEstimator] = None,
        charge_materialization: bool = True,
        charge_dedup: bool = True,
        max_operand_terms: Optional[int] = None,
    ):
        self.database = database
        self.constants = constants if constants is not None else CostConstants()
        self.estimator = (
            estimator if estimator is not None else CardinalityEstimator(database)
        )
        self.charge_materialization = charge_materialization
        self.charge_dedup = charge_dedup
        #: Statement-size limit of the target engine, if any: a UCQ
        #: operand with more union terms is simply not evaluable there
        #: (SQLite's compound SELECT cap, DB2-style stack limits), so
        #: its cost is infinite.  Calibration knows the engine; so may
        #: the model.
        self.max_operand_terms = max_operand_terms

    # ------------------------------------------------------------------
    # c_unique
    # ------------------------------------------------------------------
    def unique_cost(self, rows: float) -> float:
        """Duplicate-elimination cost for a result of ``rows`` tuples."""
        if not self.charge_dedup or rows <= 0:
            return 0.0
        k = self.constants
        if rows <= k.sort_memory_rows:
            return k.c_l * rows
        return k.c_k * rows * math.log2(max(rows, 2.0))

    # ------------------------------------------------------------------
    # Components
    # ------------------------------------------------------------------
    def _operand_cost(self, scan_volume: int, result_size: float) -> Tuple[float, float]:
        """(ii) scan + join and (iii) dedup of one operand, kept apart."""
        k = self.constants
        return (k.c_t + k.c_j) * scan_volume, self.unique_cost(result_size)

    def ucq_eval_cost(self, ucq: UCQ, view: Optional[TableView] = None) -> float:
        """(ii)+(iii): evaluate one UCQ operand and dedup its result."""
        operand = self.estimator.operand_summary(ucq, view)
        scan_join, dedup = self._operand_cost(operand.scan_size, operand.cardinality)
        return scan_join + dedup

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------
    def jucq_cost(self, jucq: JUCQ, view: Optional[TableView] = None) -> CostBreakdown:
        """The full Section 4.1 cost of a JUCQ, itemized."""
        k = self.constants
        if self.max_operand_terms is not None and any(
            len(ucq) > self.max_operand_terms for ucq in jucq
        ):
            return CostBreakdown(connection=float("inf"))
        breakdown = CostBreakdown(connection=k.c_db)
        operands = [self.estimator.operand_summary(ucq, view) for ucq in jucq]
        for operand in operands:
            scan_join, dedup = self._operand_cost(operand.scan_size, operand.cardinality)
            breakdown.scan_join += scan_join
            breakdown.operand_dedup += dedup
        if len(operands) > 1:
            sizes = [operand.cardinality for operand in operands]
            breakdown.operand_join = k.c_j * sum(sizes)
            if self.charge_materialization:
                # The largest sub-result is pipelined; the rest are
                # materialized (Section 4.1 (v)).
                pipelined = max(range(len(sizes)), key=lambda i: sizes[i])
                breakdown.materialization = k.c_m * sum(
                    size for i, size in enumerate(sizes) if i != pipelined
                )
            final_size = self.estimator.join_cardinality(operands)
            breakdown.final_dedup = self.unique_cost(final_size)
        return breakdown

    def cost(self, query, view: Optional[TableView] = None) -> float:
        """Scalar estimated cost of any query form, as its JUCQ, at
        ``view`` (None: the database's current one)."""
        return self.jucq_cost(as_jucq(query), view).total
