"""Empty-answer subquery pruning (the technique of the paper's ref. [11]).

The paper's related work discusses a mixed approach: with (only) the
schema's consequences precomputed, union terms that can be *statically*
shown to return no answers are dropped from the reformulation.  "This
may reduce its syntactic size, but ... the resulting reformulated query
may still be hard to evaluate" — which is exactly what the ablation
benchmark measures.

Our store answers single-pattern counts exactly (sorted indexes), so
the static test here is: a conjunct is prunable when one of its atoms
matches zero stored triples.  Pruning never changes answers — an empty
atom makes its whole conjunct empty — it only shrinks the union.
"""

from __future__ import annotations

from typing import List, Optional

from ..cost.cardinality import CardinalityEstimator
from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..storage.triple_table import TableView


def prune_empty_conjuncts(
    ucq: UCQ, estimator: CardinalityEstimator, view: Optional[TableView] = None
) -> UCQ:
    """Drop union terms with a provably empty atom at ``view`` (None: the
    database's current one).

    When *every* term is prunable, one empty-by-construction conjunct is
    kept so the result remains a well-formed UCQ with the same head
    (it evaluates to the empty set, as it must).
    """
    if view is None:
        view = estimator.database.snapshot().table
    kept: List[BGPQuery] = []
    for cq in ucq:
        if not cq.body:
            kept.append(cq)  # constant conjuncts always contribute
            continue
        if all(estimator.atom_count(atom, view) > 0 for atom in cq.body):
            kept.append(cq)
    if not kept:
        kept = [ucq.cqs[0]]
    return UCQ._raw(kept, f"{ucq.name}_pruned", ucq.head)


def prune_jucq(
    jucq: JUCQ, estimator: CardinalityEstimator, view: Optional[TableView] = None
) -> JUCQ:
    """Prune every UCQ operand of a JUCQ."""
    if view is None:
        view = estimator.database.snapshot().table
    operands = [prune_empty_conjuncts(ucq, estimator, view) for ucq in jucq]
    return JUCQ(jucq.head, operands, name=f"{jucq.name}_pruned")
