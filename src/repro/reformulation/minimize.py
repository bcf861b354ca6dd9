"""Redundant-triple detection and query minimization.

The paper's footnote 3: "A query triple is redundant when it can be
inferred from the others based on the RDFS constraints.  For instance,
when looking for x such that x is a person and x has a social security
number, if we know that only people have such numbers, the triple 'x is
a person' is redundant."  The benchmark queries were designed
redundancy-free; this module provides the check and the minimization a
library user needs to do the same.

An atom is redundant when some *other* atom of the query entails it
under the schema closure:

* ``(s rdf:type C)``  is entailed by ``(s rdf:type C')`` with
  ``C' ⊑sc C``, by ``(s P y)`` with ``C ∈ domains(P)``, and by
  ``(y P s)`` with ``C ∈ ranges(P)``;
* ``(s P o)``         is entailed by ``(s P' o)`` with ``P' ⊑sp P``.

Removing a redundant atom preserves the certain answers provided its
variables remain covered — non-head variables occurring nowhere else
are existential anyway, and the rules above never require them.

Library API with no caller inside the package (README quick tour); it
is the schema-aware special case of ``analysis.containment.core()``,
where the ROADMAP item "Delete what does not run" means to fold it.
"""

from __future__ import annotations

from typing import List, Set

from ..rdf.schema import RDFSchema
from ..rdf.terms import Triple, Variable
from ..rdf.vocabulary import RDF_TYPE
from ..query.bgp import BGPQuery


def _entails_atom(candidate: Triple, target: Triple, schema: RDFSchema) -> bool:
    """True when ``candidate`` alone entails ``target`` under ``schema``.

    Both atoms come from the same query, so identical variables denote
    the same binding.
    """
    if candidate == target:
        return False  # an atom does not make *itself* redundant
    if target.p == RDF_TYPE and not isinstance(target.o, Variable):
        cls = target.o
        if (
            candidate.p == RDF_TYPE
            and candidate.s == target.s
            and not isinstance(candidate.o, Variable)
            and (candidate.o == cls or schema.is_subclass(candidate.o, cls))
        ):
            # Same class is covered by the candidate == target guard;
            # equality here means duplicate atoms, which entail too.
            return True
        if isinstance(candidate.p, Variable) or candidate.p == RDF_TYPE:
            return False
        if candidate.s == target.s and cls in schema.domains(candidate.p):
            return True
        return candidate.o == target.s and cls in schema.ranges(candidate.p)
    if (
        not isinstance(target.p, Variable)
        and target.p != RDF_TYPE
        and not isinstance(candidate.p, Variable)
        and candidate.s == target.s
        and candidate.o == target.o
    ):
        return candidate.p == target.p or schema.is_subproperty(candidate.p, target.p)
    return False


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
