"""Generated-SQL sanity checks (verifier stage ``S``).

:mod:`repro.engine.sql` emits a small, regular SQL dialect: flat
``SELECT [DISTINCT] ... FROM ... [WHERE ...]`` statements over
``triples`` aliases, combined with top-level ``UNION``, and (for
JUCQs) one outer select over parenthesized derived tables.  This module
re-parses that dialect *independently of the generator* — a generator
bug should not be replicated into its own checker — and verifies:

* ``IR-S01`` — a column reference uses an alias that is not in scope;
* ``IR-S02`` — a select over 2+ tables whose equality conditions do
  not connect them (an accidental cross join);
* ``IR-S03`` — a projected or compared column does not exist in the
  referenced table (``s``/``p``/``o`` for ``triples``, the exported
  ``AS`` names for a derived table).

Statically-unsatisfiable conjuncts (``WHERE 0``) skip the cross-join
check: they evaluate to the empty relation, so connectivity is moot.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from .diagnostics import Diagnostic, Severity, sort_diagnostics

#: Columns of the base ``Triples(s, p, o)`` table.
_TRIPLES_COLUMNS = ("s", "p", "o")

_REFERENCE = re.compile(r"\b(\w+)\.(\w+)\b")
_AS_ALIAS = re.compile(r"\bAS\s+(\w+)\s*$", re.IGNORECASE)
_BASE_TABLE = re.compile(r"^(\w+)\s+(\w+)$")


@dataclass
class _Scope:
    """One select's FROM items: alias → available columns."""

    columns: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


def _split_top_level(text: str, separator: str) -> List[str]:
    """Split on a separator token, ignoring parenthesized regions.

    ``separator`` is matched case-sensitively as a standalone token on
    its own nesting level; the generated dialect never embeds it in
    strings (dictionary codes are integers, never quoted text).
    """
    parts: List[str] = []
    depth = 0
    start = 0
    index = 0
    n = len(text)
    sep_len = len(separator)
    word = separator[0].isalpha()  # UNION/FROM/... need word boundaries; "," does not
    while index < n:
        char = text[index]
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif depth == 0 and text.startswith(separator, index):
            before = text[index - 1] if index > 0 else " "
            after = text[index + sep_len] if index + sep_len < n else " "
            if not word or (
                not (before.isalnum() or before == "_")
                and not (after.isalnum() or after == "_")
            ):
                parts.append(text[start:index])
                start = index + sep_len
                index = start
                continue
        index += 1
    parts.append(text[start:])
    return [part.strip() for part in parts if part.strip()]


def _select_output_columns(select: str) -> Tuple[str, ...]:
    """The output column names of one SELECT (its ``AS`` aliases)."""
    body = re.sub(r"^\s*SELECT\s+(DISTINCT\s+)?", "", select, flags=re.IGNORECASE)
    from_split = _split_top_level(body, "FROM")
    names: List[str] = []
    for item in _split_top_level(from_split[0], ","):
        match = _AS_ALIAS.search(item)
        names.append(match.group(1) if match else item.strip())
    return tuple(names)


def _union_output_columns(query: str) -> Tuple[str, ...]:
    """Output columns of a (possibly UNION-combined) query text."""
    selects = _split_top_level(query, "UNION")
    return _select_output_columns(selects[0]) if selects else ()


def _parse_from(
    from_clause: str, findings: List[Diagnostic], subject: str
) -> _Scope:
    scope = _Scope()
    for item in _split_top_level(from_clause, ","):
        if item.startswith("("):
            close = item.rfind(")")
            subquery = item[1:close]
            alias = item[close + 1 :].strip()
            findings.extend(check_sql(subquery, subject=f"{subject}/{alias}"))
            scope.columns[alias] = _union_output_columns(subquery)
        else:
            match = _BASE_TABLE.match(item)
            if match:
                table, alias = match.groups()
                scope.columns[alias] = (
                    _TRIPLES_COLUMNS if table.lower() == "triples" else ()
                )
    return scope


def _check_references(
    text: str, scope: _Scope, findings: List[Diagnostic], subject: str
) -> None:
    for alias, column in _REFERENCE.findall(text):
        if alias not in scope.columns:
            findings.append(
                Diagnostic(
                    code="IR-S01",
                    severity=Severity.ERROR,
                    message=f"reference {alias}.{column} uses an alias not in FROM",
                    stage="sql",
                    subject=subject,
                )
            )
        elif scope.columns[alias] and column not in scope.columns[alias]:
            findings.append(
                Diagnostic(
                    code="IR-S03",
                    severity=Severity.ERROR,
                    message=(
                        f"column {column} does not exist in {alias} "
                        f"(has {list(scope.columns[alias])})"
                    ),
                    stage="sql",
                    subject=subject,
                )
            )


def _check_connectivity(
    scope: _Scope,
    conditions: Sequence[str],
    findings: List[Diagnostic],
    subject: str,
) -> None:
    aliases = sorted(scope.columns)
    if len(aliases) < 2:
        return
    adjacency: Dict[str, set] = {alias: set() for alias in aliases}
    for condition in conditions:
        sides = condition.split("=")
        if len(sides) != 2:
            continue
        left = _REFERENCE.findall(sides[0])
        right = _REFERENCE.findall(sides[1])
        if left and right and left[0][0] != right[0][0]:
            a, b = left[0][0], right[0][0]
            if a in adjacency and b in adjacency:
                adjacency[a].add(b)
                adjacency[b].add(a)
    reached = {aliases[0]}
    stack = [aliases[0]]
    while stack:
        for neighbour in adjacency[stack.pop()] - reached:
            reached.add(neighbour)
            stack.append(neighbour)
    stranded = [alias for alias in aliases if alias not in reached]
    if stranded:
        findings.append(
            Diagnostic(
                code="IR-S02",
                severity=Severity.ERROR,
                message=(
                    f"tables {stranded} are not connected to {sorted(reached)} "
                    "by any join condition (accidental cross join)"
                ),
                stage="sql",
                subject=subject,
            )
        )


def _check_select(
    select: str, findings: List[Diagnostic], subject: str, allow_cross: bool
) -> None:
    body = re.sub(r"^\s*SELECT\s+(DISTINCT\s+)?", "", select, flags=re.IGNORECASE)
    from_split = _split_top_level(body, "FROM")
    select_list = from_split[0]
    if len(from_split) == 1:
        return  # constant-row select: nothing to scope-check
    where_split = _split_top_level(from_split[1], "WHERE")
    scope = _parse_from(where_split[0], findings, subject)
    conditions: List[str] = []
    if len(where_split) > 1:
        conditions = _split_top_level(where_split[1], "AND")
    _check_references(select_list, scope, findings, subject)
    for condition in conditions:
        _check_references(condition, scope, findings, subject)
    unsatisfiable = any(condition.strip() == "0" for condition in conditions)
    if not allow_cross and not unsatisfiable:
        _check_connectivity(scope, conditions, findings, subject)


def check_sql(
    sql: str, subject: str = "sql", allow_cross: bool = False
) -> List[Diagnostic]:
    """Sanity-check one generated SQL statement (stage ``S``).

    ``allow_cross`` suppresses ``IR-S02`` for queries whose *source*
    BGP is genuinely disconnected (a deliberate cartesian product);
    cover-based reformulations are always connected, so the pipeline
    verifier passes ``allow_cross=False`` for them.
    """
    findings: List[Diagnostic] = []
    for index, select in enumerate(_split_top_level(sql, "UNION")):
        label = subject if index == 0 else f"{subject}/union[{index}]"
        _check_select(select, findings, label, allow_cross)
    return sort_diagnostics(findings)
