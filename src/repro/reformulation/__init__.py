"""Query reformulation: CQ→UCQ rules, query covers, JUCQ construction."""

from .covers import (
    Cover,
    Fragment,
    connected_fragments,
    count_covers,
    cover_queries,
    cover_query,
    enumerate_covers,
    format_cover,
    scq_cover,
    ucq_cover,
    validate_cover,
)
from .minimize import is_minimal, minimize_query, redundant_atoms
from .prune import prune_empty_conjuncts, prune_jucq
from .jucq import (
    jucq_for_cover,
    scq_reformulation,
    ucq_reformulation,
)
from .litemat import interval_reformulate
from .reformulate import (
    ReformulationLimitExceeded,
    Reformulator,
    reformulate,
    reformulation_count,
)

__all__ = [
    "Cover",
    "Fragment",
    "ReformulationLimitExceeded",
    "Reformulator",
    "interval_reformulate",
    "connected_fragments",
    "count_covers",
    "cover_queries",
    "cover_query",
    "enumerate_covers",
    "format_cover",
    "is_minimal",
    "jucq_for_cover",
    "minimize_query",
    "prune_empty_conjuncts",
    "prune_jucq",
    "reformulate",
    "reformulation_count",
    "redundant_atoms",
    "scq_cover",
    "scq_reformulation",
    "ucq_cover",
    "ucq_reformulation",
    "validate_cover",
]
