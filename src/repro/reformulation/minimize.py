"""Redundant-triple detection and query minimization.

The paper's footnote 3: "A query triple is redundant when it can be
inferred from the others based on the RDFS constraints.  For instance,
when looking for x such that x is a person and x has a social security
number, if we know that only people have such numbers, the triple 'x is
a person' is redundant."  The benchmark queries were designed
redundancy-free; this module provides the check and the minimization a
library user needs to do the same.

An atom is redundant when some *other* atom of the query equals it or
entails it under the schema closure — the four instance rules of
:mod:`repro.reasoning.rules`, read over atoms:

* ``(s rdf:type C)``  is entailed by ``(s rdf:type C')`` with
  ``C' ⊑sc C``, by ``(s P y)`` with ``C ∈ domains(P)``, and by
  ``(y P s)`` with ``C ∈ ranges(P)``;
* ``(s P o)``         is entailed by ``(s P' o)`` with ``P' ⊑sp P``.

Removing a redundant atom preserves the certain answers provided its
variables remain covered — non-head variables occurring nowhere else
are existential anyway, and the rules above never require them.

Library API with no caller inside the package (README quick tour).
"""

from __future__ import annotations

from typing import List, Set

from ..query.bgp import BGPQuery
from ..rdf.schema import RDFSchema
from ..rdf.terms import Triple, Variable
from ..reasoning.rules import entail_from_triple


def _entails_atom(candidate: Triple, target: Triple, schema: RDFSchema) -> bool:
    """True when ``candidate`` equals ``target`` or alone entails it
    under ``schema`` (:func:`~repro.reasoning.rules.entail_from_triple`).

    Both atoms come from the same query, so identical variables denote
    the same binding.
    """
    return candidate == target or target in entail_from_triple(candidate, schema)


def redundant_atoms(query: BGPQuery, schema: RDFSchema) -> List[int]:
    """Indices of atoms entailed by another atom of the query.

    Indices are reported w.r.t. the original body.  When two atoms
    entail each other (duplicates up to the schema), only the later one
    is reported, so removing all reported atoms is always safe.
    """
    redundant: List[int] = []
    for index, atom in enumerate(query.body):
        for other_index, other in enumerate(query.body):
            if other_index == index or other_index in redundant:
                continue
            if _entails_atom(other, atom, schema):
                # Avoid dropping both sides of a mutual entailment.
                if _entails_atom(atom, other, schema) and other_index > index:
                    continue
                redundant.append(index)
                break
    return redundant


def minimize_query(query: BGPQuery, schema: RDFSchema) -> BGPQuery:
    """Drop every redundant atom (repeatedly, until none remains).

    The result has the same certain answers over any database with this
    schema, and strictly fewer reformulation union terms whenever
    anything was dropped.
    """
    current = query
    while True:
        to_drop = set(redundant_atoms(current, schema))
        if not to_drop:
            return current
        # Keep head variables safe: an atom whose removal would orphan a
        # head variable stays.
        kept_atoms = [a for i, a in enumerate(current.body) if i not in to_drop]
        covered: Set[Variable] = set()
        for atom in kept_atoms:
            covered |= atom.variables()
        for index in sorted(to_drop):
            atom = current.body[index]
            head_needs = {
                t for t in current.head if isinstance(t, Variable)
            } & atom.variables()
            if not head_needs <= covered:
                kept_atoms.append(atom)
                covered |= atom.variables()
        if len(kept_atoms) == len(current.body):
            return current
        current = BGPQuery(current.head, kept_atoms, name=current.name)


def is_minimal(query: BGPQuery, schema: RDFSchema) -> bool:
    """True when the query has no redundant atom (the paper's workload
    design criterion (iv))."""
    return not redundant_atoms(query, schema)
