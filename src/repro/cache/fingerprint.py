"""Canonical query fingerprints for cache keys (DESIGN.md §9).

:func:`query_fingerprint` is a digest of a BGP query that is invariant
under renaming of *all* variables (head variables are canonicalized
positionally, non-distinguished ones by the canonical-form machinery of
:meth:`repro.query.bgp.BGPQuery.canonical`) and under reordering of
body atoms, while distinguishing genuinely non-isomorphic queries
(different constants, different head arity/order, different join
shapes).  The rest of every key is the database's
:class:`~repro.storage.database.Snapshot`, or one of its parts.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from ..query.bgp import BGPQuery
from ..rdf.terms import Variable


def _digest(payload: str) -> str:
    return hashlib.blake2b(payload.encode("utf-8"), digest_size=16).hexdigest()


def query_fingerprint(query: BGPQuery) -> str:
    """A variable-renaming- and atom-order-invariant digest of ``query``.

    Cached on the query object: the answerer fingerprints the same
    query on every call, and repeated workloads re-ask the same parsed
    queries.
    """
    cached = query._fingerprint
    if cached is not None:
        return cached
    renamed = _canonical_head(query)
    head_key, atom_keys = renamed.canonical()
    payload = repr((head_key, sorted(atom_keys, key=repr)))
    fingerprint = _digest(payload)
    query._fingerprint = fingerprint
    return fingerprint


def _canonical_head(query: BGPQuery) -> BGPQuery:
    """Rename head variables positionally so ``q(x):-x p y`` ≡ ``q(z):-z p w``.

    :meth:`BGPQuery.canonical` deliberately keeps head-variable names
    (two queries with different heads answer different columns), so the
    fingerprint renames them to position-derived names first.  Names
    are chosen outside the query's own variable namespace so the
    renaming can never merge distinct variables.
    """
    head_vars: List[Variable] = []
    seen = set()
    for term in query.head:
        if isinstance(term, Variable) and term not in seen:
            seen.add(term)
            head_vars.append(term)
    if not head_vars:
        return query
    taken = {v.value for v in query.variables()}
    substitution: Dict[Variable, Variable] = {}
    for index, variable in enumerate(head_vars):
        name = f"_qfp{index}"
        while name in taken:
            name = "_" + name
        taken.add(name)
        substitution[variable] = Variable(name)
    return query.substitute(substitution)
