"""SQL generation for JUCQs over ``Triples(s, p, o)``.

Reformulated queries are "handled for evaluation to a query evaluation
engine, which can be an RDBMS" (paper Section 1); this module produces
the SQL text the RDBMS-backed engine executes.  :func:`to_sql` takes any
query form through :func:`~repro.query.algebra.as_jucq`, then:

* a conjunct becomes a ``SELECT DISTINCT`` over one ``triples`` alias
  per atom, with constant selections and join equalities in ``WHERE``;
* a UCQ operand becomes the ``UNION`` (set semantics) of its conjuncts;
* a JUCQ becomes a ``SELECT DISTINCT`` over its UCQ operands as derived
  tables, joined on shared head variables — unless it is its lone union
  (:meth:`~repro.query.algebra.JUCQ.lone_union`), which is emitted
  directly under the head's positional aliases.  A one-operand JUCQ
  whose head repeats a variable or holds a constant is not one, and
  takes the derived-table form like any other.

Constants are emitted as integer dictionary codes.  A constant missing
from the dictionary makes the conjunct unsatisfiable; it is compiled to
a ``WHERE 0`` conjunct so the SQL stays valid.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..query.algebra import JUCQ, UCQ, as_jucq
from ..query.bgp import BGPQuery
from ..rdf.terms import IdRange, Term, Variable
from ..storage.dictionary import Dictionary

_POSITION_COLUMNS = ("s", "p", "o")


def _encode(dictionary: Dictionary, term: Term) -> Optional[int]:
    code = dictionary.lookup(term)
    return code


def cq_to_sql(
    cq: BGPQuery,
    dictionary: Dictionary,
    output_names: Sequence[str],
    distinct: bool = True,
) -> str:
    """SQL for one conjunct; output columns aliased to ``output_names``."""
    if len(output_names) != len(cq.head):
        raise ValueError("output_names must match the head arity")
    select_kw = "SELECT DISTINCT" if distinct else "SELECT"
    if not cq.body:
        # Constant conjunct from schema-atom resolution.  Head constants
        # are *encoded* (allocating a fresh code when absent — harmless,
        # the stored rows are untouched) so answers decode correctly.
        parts = []
        for name, term in zip(output_names, cq.head):
            parts.append(f"{dictionary.encode(term)} AS {name}")
        return f"{select_kw} {', '.join(parts)}"
    var_ref: Dict[str, str] = {}
    conditions: List[str] = []
    unsatisfiable = False
    for index, atom in enumerate(cq.body):
        alias = f"t{index}"
        for position, term in zip(_POSITION_COLUMNS, atom):
            reference = f"{alias}.{position}"
            if isinstance(term, Variable):
                first = var_ref.get(term.value)
                if first is None:
                    var_ref[term.value] = reference
                else:
                    conditions.append(f"{reference} = {first}")
            elif isinstance(term, IdRange):
                # LiteMat interval atom (DESIGN.md §16): one range
                # predicate instead of a union over the closure.
                conditions.append(
                    f"{reference} BETWEEN {term.lo} AND {term.hi - 1}"
                )
            else:
                code = _encode(dictionary, term)
                if code is None:
                    unsatisfiable = True
                else:
                    conditions.append(f"{reference} = {code}")
    if unsatisfiable:
        conditions = ["0"]
    select_parts: List[str] = []
    for name, term in zip(output_names, cq.head):
        if isinstance(term, Variable):
            select_parts.append(f"{var_ref[term.value]} AS {name}")
        else:
            select_parts.append(f"{dictionary.encode(term)} AS {name}")
    if not select_parts:
        # Boolean query: any constant column marks non-emptiness.
        select_parts.append("1 AS nonempty")
    from_clause = ", ".join(f"triples t{i}" for i in range(len(cq.body)))
    sql = f"{select_kw} {', '.join(select_parts)} FROM {from_clause}"
    if conditions:
        sql += f" WHERE {' AND '.join(conditions)}"
    return sql


def ucq_to_sql(
    ucq: UCQ, dictionary: Dictionary, output_names: Sequence[str]
) -> str:
    """SQL for a UCQ: ``UNION`` of the conjunct selects (set semantics)."""
    # UNION already eliminates duplicates across branches, but each
    # branch keeps DISTINCT so single-conjunct UCQs dedup too.
    selects = [cq_to_sql(cq, dictionary, output_names) for cq in ucq]
    return "\nUNION\n".join(selects)


def jucq_to_sql(jucq: JUCQ, dictionary: Dictionary) -> str:
    """SQL for a JUCQ: derived-table join of its UCQ operands."""
    lone = jucq.lone_union()
    if lone is not None:
        return ucq_to_sql(lone, dictionary, [f"c{i}" for i in range(jucq.arity)])
    operand_sqls: List[str] = []
    operand_names: List[List[str]] = []
    for ucq in jucq:
        names = [
            term.value if isinstance(term, Variable) else f"c{i}"
            for i, term in enumerate(ucq.head)
        ]
        operand_names.append(names)
        operand_sqls.append(ucq_to_sql(ucq, dictionary, names))
    var_source: Dict[str, str] = {}
    conditions: List[str] = []
    for index, names in enumerate(operand_names):
        alias = f"u{index}"
        for name in names:
            reference = f"{alias}.{name}"
            first = var_source.get(name)
            if first is None:
                var_source[name] = reference
            else:
                conditions.append(f"{reference} = {first}")
    select_parts: List[str] = []
    for i, term in enumerate(jucq.head):
        if isinstance(term, Variable):
            select_parts.append(f"{var_source[term.value]} AS c{i}")
        else:
            select_parts.append(f"{dictionary.encode(term)} AS c{i}")
    if not select_parts:
        select_parts.append("1 AS nonempty")
    from_parts = [
        f"(\n{sql}\n) u{index}" for index, sql in enumerate(operand_sqls)
    ]
    query = (
        f"SELECT DISTINCT {', '.join(select_parts)}\n"
        f"FROM {', '.join(from_parts)}"
    )
    if conditions:
        query += f"\nWHERE {' AND '.join(conditions)}"
    return query


def to_sql(query, dictionary: Dictionary) -> str:
    """Compile any query form to SQL (as its JUCQ)."""
    return jucq_to_sql(as_jucq(query), dictionary)
