"""Cover-based JUCQ reformulations (paper Theorem 3.1).

Given a BGP query ``q`` and one of its covers ``C = {f1, ..., fm}``,
the JUCQ reformulation is ``q_JUCQ(x̄) :- q_f1^UCQ ⋈ ... ⋈ q_fm^UCQ``
where each ``q_fi^UCQ`` is the CQ → UCQ reformulation of the cover
query of fragment ``fi``.  Theorem 3.1: evaluating this JUCQ over the
non-saturated database yields ``q``'s answer set.

The two classic strategies fall out as special covers:

* **UCQ**  — the single-fragment cover (all unions pushed below one
  big union; prior work [4, 6, 10, ...]);
* **SCQ**  — the all-singletons cover (all unions pushed below the
  joins; [13]).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..rdf.terms import Variable
from .covers import (
    Cover,
    Fragment,
    exported_heads,
    fragment_query,
    scq_cover,
    validate_cover,
)
from .reformulate import Reformulator

#: (fragment, exported head) → the fragment's cover query.
CoverQueryMemo = Dict[Tuple[Fragment, Tuple[Variable, ...]], BGPQuery]


def jucq_for_cover(
    query: BGPQuery,
    cover: Cover,
    reformulator: Reformulator,
    validate: bool = True,
    cover_queries: Optional[CoverQueryMemo] = None,
) -> JUCQ:
    """Build the cover-based JUCQ reformulation of ``query`` for ``cover``.

    A cover search passes its own ``cover_queries`` memo: covers share
    most of their fragments, and a fragment met again under the same
    exported head reuses its cover query — already built and
    canonicalized — so asking the reformulator about it is one memo
    lookup.  The memo is only valid for one ``query``.
    """
    if validate:
        validate_cover(query, cover)
    if cover_queries is None:
        cover_queries = {}
    operands = []
    for key in exported_heads(query, cover):
        cover_query = cover_queries.get(key)
        if cover_query is None:
            cover_query = cover_queries[key] = fragment_query(query, *key)
        operands.append(reformulator.reformulate(cover_query))
    return JUCQ(query.head, operands, name=f"{query.name}_jucq")


def ucq_reformulation(query: BGPQuery, reformulator: Reformulator) -> UCQ:
    """The classic single-union reformulation ``q_ref`` of ``query``."""
    return reformulator.reformulate(query)


def scq_reformulation(query: BGPQuery, reformulator: Reformulator) -> JUCQ:
    """The SCQ reformulation of [13]: per-atom unions joined together."""
    return jucq_for_cover(query, scq_cover(query), reformulator)
