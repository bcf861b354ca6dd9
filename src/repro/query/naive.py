"""Reference evaluator for CQs/UCQs/JUCQs over an :class:`RDFGraph`.

This is the executable form of the paper's query *evaluation*
definition (Section 2.2): the set of head-term images under every total
assignment of the query's variables that embeds all atoms into the
graph.  It is deliberately simple (index-guided backtracking), serving
as the ground truth the optimized engines are tested against.

It lives in ``src/`` because it is :func:`repro.query.evaluate`, which
``tests/oracle.py`` and the e2e benchmark's checker compare against.
"""

from __future__ import annotations

from typing import FrozenSet, Iterator, List, Set, Tuple

from ..rdf.graph import RDFGraph
from ..rdf.terms import Term, Triple, Variable
from .algebra import JUCQ, UCQ
from .bgp import BGPQuery, Substitution, apply_substitution

#: An answer is a tuple of ground terms, one per head position.
Answer = Tuple[Term, ...]


def _match_atom(
    atom: Triple, graph: RDFGraph, binding: Substitution
) -> Iterator[Substitution]:
    """Extend ``binding`` in every way that embeds ``atom`` into ``graph``."""
    s = apply_substitution(atom.s, binding)
    p = apply_substitution(atom.p, binding)
    o = apply_substitution(atom.o, binding)
    pattern = tuple(None if t.is_variable else t for t in (s, p, o))
    for triple in graph.triples(*pattern):
        extended = dict(binding)
        consistent = True
        for query_term, data_term in zip((s, p, o), triple):
            if isinstance(query_term, Variable):
                bound = extended.get(query_term)
                if bound is None:
                    extended[query_term] = data_term
                elif bound != data_term:
                    consistent = False
                    break
        if consistent:
            yield extended


def _evaluate_body(
    body: Tuple[Triple, ...], graph: RDFGraph, binding: Substitution
) -> Iterator[Substitution]:
    if not body:
        yield binding
        return
    # Most-bound-first atom ordering keeps backtracking shallow.
    def boundness(atom: Triple) -> int:
        return sum(
            1
            for t in atom
            if not t.is_variable or t in binding
        )

    ordered = sorted(range(len(body)), key=lambda i: -boundness(body[i]))
    first, rest = ordered[0], [body[i] for i in ordered[1:]]
    for extended in _match_atom(body[first], graph, binding):
        yield from _evaluate_body(tuple(rest), graph, extended)


def evaluate_cq(query: BGPQuery, graph: RDFGraph) -> FrozenSet[Answer]:
    """``q(G)``: the set semantics answer set of a CQ over a graph."""
    answers: Set[Answer] = set()
    for binding in _evaluate_body(query.body, graph, {}):
        row = tuple(apply_substitution(t, binding) for t in query.head)
        answers.add(row)
    return frozenset(answers)


def evaluate_ucq(ucq: UCQ, graph: RDFGraph) -> FrozenSet[Answer]:
    """Union of the conjuncts' answer sets."""
    answers: Set[Answer] = set()
    for cq in ucq:
        answers.update(evaluate_cq(cq, graph))
    return frozenset(answers)


def evaluate_jucq(jucq: JUCQ, graph: RDFGraph) -> FrozenSet[Answer]:
    """Natural join of operand answer sets, projected onto the JUCQ head."""
    relations: List[Tuple[Tuple[Term, ...], FrozenSet[Answer]]] = [
        (operand.head, evaluate_ucq(operand, graph)) for operand in jucq
    ]
    # Fold with hash joins on shared head variables.
    bindings: List[Substitution] = [{}]
    for head, rows in relations:
        head_vars = [t for t in head if isinstance(t, Variable)]
        positions = {i: t for i, t in enumerate(head) if isinstance(t, Variable)}
        next_bindings: List[Substitution] = []
        for binding in bindings:
            for row in rows:
                extended = dict(binding)
                consistent = True
                for i, var in positions.items():
                    bound = extended.get(var)
                    if bound is None:
                        extended[var] = row[i]
                    elif bound != row[i]:
                        consistent = False
                        break
                if consistent:
                    next_bindings.append(extended)
        bindings = next_bindings
        if not bindings:
            break
    answers: Set[Answer] = set()
    for binding in bindings:
        answers.add(tuple(apply_substitution(t, binding) for t in jucq.head))
    return frozenset(answers)


def evaluate(query, graph: RDFGraph) -> FrozenSet[Answer]:
    """Evaluate a CQ, UCQ or JUCQ against a graph (dispatch by type)."""
    if isinstance(query, BGPQuery):
        return evaluate_cq(query, graph)
    if isinstance(query, UCQ):
        return evaluate_ucq(query, graph)
    if isinstance(query, JUCQ):
        return evaluate_jucq(query, graph)
    raise TypeError(f"cannot evaluate {type(query).__name__}")
