"""SQL generation for JUCQs over ``Triples(s, p, o)``.

Reformulated queries are "handled for evaluation to a query evaluation
engine, which can be an RDBMS" (paper Section 1); this module produces
the SQL text the RDBMS-backed engine executes.  Every query form goes
through :func:`~repro.query.algebra.as_jucq`, then:

* a conjunct becomes a ``SELECT DISTINCT`` over one ``triples`` alias
  per atom, with constant selections and join equalities in ``WHERE``;
* a UCQ operand becomes the ``UNION`` (set semantics) of its conjuncts;
* a JUCQ that is its lone union
  (:meth:`~repro.query.algebra.JUCQ.lone_union`) is that ``UNION``
  under the head's positional aliases: one statement;
* any other JUCQ is a short program (:class:`SQLProgram`), the paper's
  §4.1 plan: ``CREATE TEMP TABLE m<i> AS <union>`` for every operand
  but the largest, indexed key tables ``k<j>`` filled from them, and
  one final ``SELECT DISTINCT`` joining the ``m<i>`` tables with the
  largest operand's union on shared head variables.  Each arm of a
  later operand may be filtered on a key table (``+ref IN k<j>``, or
  ``ref IN k<j>`` to drive it from the keys); the engine decides
  which from the counts it reads as the program runs (DESIGN.md §18).
  A one-operand JUCQ whose head repeats a variable or holds a constant
  is not a lone union: its final select reads its union as a derived
  table.

An operand's columns and key tables are named by position, never by
variable: the ``j``-th distinct head variable of the JUCQ is column
``v<j>`` of every operand that holds it and key table ``k<j>``.  SQL
identifiers are case-insensitive and may be keywords, SPARQL variables
are neither, so ``?x`` beside ``?X``, or ``?order``, would otherwise
clash or fail to parse.

:func:`to_sql` writes a query's program as ``;``-separated text, with
no key filter and the last operand in the largest's place, which
:meth:`~repro.engine.SQLiteEngine.execute_sql` runs.  It is not the
program :meth:`~repro.engine.SQLiteEngine.evaluate` runs, which
orders, materializes and filters operands from the store's counts.

Constants are emitted as integer dictionary codes.  A constant missing
from the dictionary makes the conjunct unsatisfiable; it is compiled to
a ``WHERE 0`` conjunct so the SQL stays valid.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from ..query.algebra import JUCQ, UCQ, as_jucq
from ..query.bgp import BGPQuery
from ..rdf.terms import IdRange, Variable
from ..storage.dictionary import Dictionary

_POSITION_COLUMNS = ("s", "p", "o")

#: A key filter per ``v<j>`` column: True drives the arm from the key
#: table (``ref IN k<j>``), False only probes it (``+ref IN k<j>``).
KeyFilters = Mapping[str, bool]


class _Select(NamedTuple):
    """One conjunct's SELECT, kept in parts so a key filter can join its
    ``WHERE``: ``refs`` maps each output name bound by a body variable
    to the column it is read from."""

    head: str
    body: str
    conditions: List[str]
    refs: Dict[str, str]

    def sql(self, keys: Optional[KeyFilters] = None) -> str:
        conditions = self.conditions
        if keys and conditions != ["0"]:
            conditions = conditions + [
                f"{'' if drive else '+'}{self.refs[name]} IN {_key_table(name)}"
                for name, drive in keys.items()
                if name in self.refs
            ]
        sql = self.head + self.body
        if conditions:
            sql += f" WHERE {' AND '.join(conditions)}"
        return sql


def _cq_select(
    cq: BGPQuery,
    dictionary: Dictionary,
    output_names: Sequence[str],
    distinct: bool = True,
) -> _Select:
    if len(output_names) != len(cq.head):
        raise ValueError("output_names must match the head arity")
    select_kw = "SELECT DISTINCT" if distinct else "SELECT"
    if not cq.body:
        # Constant conjunct from schema-atom resolution.  Head constants
        # are *encoded* (allocating a fresh code when absent — harmless,
        # the stored rows are untouched) so answers decode correctly.
        parts = [
            f"{dictionary.encode(term)} AS {name}"
            for name, term in zip(output_names, cq.head)
        ]
        return _Select(f"{select_kw} {', '.join(parts)}", "", [], {})
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
                code = dictionary.lookup(term)
                if code is None:
                    unsatisfiable = True
                else:
                    conditions.append(f"{reference} = {code}")
    if unsatisfiable:
        conditions = ["0"]
    select_parts: List[str] = []
    refs: Dict[str, str] = {}
    for name, term in zip(output_names, cq.head):
        if isinstance(term, Variable):
            refs[name] = var_ref[term.value]
            select_parts.append(f"{refs[name]} AS {name}")
        else:
            select_parts.append(f"{dictionary.encode(term)} AS {name}")
    if not select_parts:
        # Boolean query: any constant column marks non-emptiness.
        select_parts.append("1 AS nonempty")
    from_clause = ", ".join(f"triples t{i}" for i in range(len(cq.body)))
    return _Select(
        f"{select_kw} {', '.join(select_parts)}", f" FROM {from_clause}", conditions, refs
    )


def cq_to_sql(
    cq: BGPQuery,
    dictionary: Dictionary,
    output_names: Sequence[str],
    distinct: bool = True,
) -> str:
    """SQL for one conjunct; output columns aliased to ``output_names``."""
    return _cq_select(cq, dictionary, output_names, distinct).sql()


def ucq_to_sql(
    ucq: UCQ, dictionary: Dictionary, output_names: Sequence[str]
) -> str:
    """SQL for a UCQ: ``UNION`` of the conjunct selects (set semantics)."""
    # UNION already eliminates duplicates across branches, but each
    # branch keeps DISTINCT so single-conjunct UCQs dedup too.
    return "\nUNION\n".join(
        _cq_select(cq, dictionary, output_names).sql() for cq in ucq
    )


class SQLProgram:
    """The statements SQLite runs for one query, built on demand.

    A lone union (:meth:`~repro.query.algebra.JUCQ.lone_union`) is one
    statement, its ``UNION`` under the head's positional names.  Any
    other JUCQ runs as the paper's §4.1 prices it: every operand but the
    largest is materialized (:meth:`materialize`, ``m<i>``), the keys a
    later operand may be filtered on go into indexed key tables
    (:meth:`key_table` / :meth:`fill_keys`, ``k<j>``), and one final
    ``SELECT DISTINCT`` (:meth:`final`) joins the ``m<i>`` tables with
    the largest operand's union on their shared head variables.  Which
    operand is largest and which keys filter which arms are decided by
    the runner (:class:`~repro.engine.SQLiteEngine`); every operand's
    arms are compiled once, here.
    """

    def __init__(self, query, dictionary: Dictionary) -> None:
        jucq = as_jucq(query)
        lone = jucq.lone_union()
        self.lone = lone is not None
        operands: Tuple[UCQ, ...] = (lone,) if lone is not None else tuple(jucq)
        self.operands = operands
        #: Each distinct head variable of a JUCQ's operands → its column,
        #: ``v<j>`` in order of first appearance.
        self.columns: Dict[str, str] = {}
        if lone is None:
            for ucq in operands:
                for term in ucq.head:
                    if isinstance(term, Variable):
                        self.columns.setdefault(term.value, f"v{len(self.columns)}")
        #: Per operand, its output names: the head's positional names for
        #: a lone union, else each head variable's column.
        self.names: List[List[str]] = [
            _positional(len(lone.head)) if lone is not None
            else [
                self.columns[term.value] if isinstance(term, Variable) else f"c{i}"
                for i, term in enumerate(ucq.head)
            ]
            for ucq in operands
        ]
        #: Per operand, the columns of its head variables (what keys bind).
        self.variables: List[List[str]] = [
            [self.columns[term.value] for term in ucq.head if isinstance(term, Variable)]
            if lone is None else []
            for ucq in operands
        ]
        self._arms = [
            [_cq_select(cq, dictionary, names) for cq in ucq]
            for ucq, names in zip(operands, self.names)
        ]
        self._select, self._conditions = "", []
        if lone is None:
            self._select, self._conditions = _join_parts(
                jucq, self.names, self.columns, dictionary
            )

    def __len__(self) -> int:
        return len(self._arms)

    def union(self, index: int, keys: Optional[KeyFilters] = None) -> str:
        """Operand ``index``'s ``UNION``, each arm filtered on ``keys``."""
        return "\nUNION\n".join(arm.sql(keys) for arm in self._arms[index])

    def materialize(self, index: int, keys: Optional[KeyFilters] = None) -> str:
        return f"CREATE TEMP TABLE m{index} AS\n{self.union(index, keys)}"

    @staticmethod
    def key_table(column: str) -> str:
        return f"CREATE TEMP TABLE {_key_table(column)}(v INTEGER PRIMARY KEY)"

    @staticmethod
    def fill_keys(column: str, index: int, limit: int) -> str:
        """Up to ``limit`` distinct values of ``column`` from ``m<index>``."""
        return (
            f"INSERT INTO {_key_table(column)} "
            f"SELECT DISTINCT {column} FROM m{index} LIMIT {limit}"
        )

    def legend(self) -> str:
        """A SQL comment naming the variable behind each ``v<j>`` column."""
        pairs = (f"{column} = ?{name}" for name, column in self.columns.items())
        return f"-- {', '.join(pairs)}"

    def final(self, largest: int, keys: Optional[KeyFilters] = None) -> str:
        """The answer rows: the lone union, or the join of every ``m<i>``
        with operand ``largest``'s union, projected onto the head."""
        if self.lone:
            return self.union(0, keys)
        tables = ", ".join(
            f"(\n{self.union(index, keys)}\n) u{index}" if index == largest
            else f"m{index} u{index}"
            for index in range(len(self))
        )
        query = f"SELECT DISTINCT {self._select}\nFROM {tables}"
        if self._conditions:
            query += f"\nWHERE {' AND '.join(self._conditions)}"
        return query


def _positional(arity: int) -> List[str]:
    return [f"c{i}" for i in range(arity)]


def _key_table(column: str) -> str:
    """Column ``v<j>``'s key table, ``k<j>``."""
    return f"k{column[1:]}"


def _join_parts(
    jucq: JUCQ,
    operand_names: Sequence[Sequence[str]],
    columns: Mapping[str, str],
    dictionary: Dictionary,
) -> Tuple[str, List[str]]:
    """The final select list and the join equalities over ``u<i>``."""
    var_source: Dict[str, str] = {}
    conditions: List[str] = []
    for index, names in enumerate(operand_names):
        for name in names:
            reference = f"u{index}.{name}"
            first = var_source.get(name)
            if first is None:
                var_source[name] = reference
            else:
                conditions.append(f"{reference} = {first}")
    select_parts: List[str] = []
    for i, term in enumerate(jucq.head):
        if isinstance(term, Variable):
            select_parts.append(f"{var_source[columns[term.value]]} AS c{i}")
        else:
            select_parts.append(f"{dictionary.encode(term)} AS c{i}")
    if not select_parts:
        select_parts.append("1 AS nonempty")
    return ", ".join(select_parts), conditions


def jucq_to_sql(jucq: JUCQ, dictionary: Dictionary) -> str:
    """SQL for a JUCQ: its :class:`SQLProgram` with no key filter and
    the last operand in the largest's place, ``;``-separated (one
    statement for a lone union)."""
    program = SQLProgram(jucq, dictionary)
    last = len(program) - 1
    statements = [program.materialize(index) for index in range(last)]
    return ";\n".join(statements + [program.final(last)])


def to_sql(query, dictionary: Dictionary) -> str:
    """Compile any query form to SQL (as its JUCQ)."""
    return jucq_to_sql(as_jucq(query), dictionary)
