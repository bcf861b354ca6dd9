"""Query lint: static diagnostics for BGP queries (``repro lint``).

Where the IR verifier (:mod:`repro.analysis.verifier`) checks that the
*pipeline* did not corrupt an IR, the lint checks that the *user's
query* makes sense against the schema and data before any reformulation
runs.  Every rule reports a :class:`~repro.analysis.diagnostics.Diagnostic`
with a stable ``L1xx`` code (catalogue in DESIGN.md §8):

======  ========  =====================================================
code    severity  finding
======  ========  =====================================================
L100    ERROR     the query text does not parse
L101    WARNING   the body is a cartesian product (disconnected join
                  graph)
L102    ERROR     a property is absent from both the RDFS schema and
                  the data dictionary — the answer is statically empty
L103    ERROR     an ``rdf:type`` class is absent from both the schema
                  and the dictionary — statically empty
L104    WARNING   duplicate body atom
L105    WARNING   an atom is entailed by another one under the schema
                  closure (redundant; see paper footnote 3)
L106    ERROR     a projection variable is not bound in the body
L107    INFO      a non-projected variable occurs exactly once
                  (possibly a typo'd join variable)
L108    WARNING   the body is large enough that the exhaustive cover
                  search (ECov) degenerates; prefer GCov
L109    WARNING   the single-fragment reformulation exceeds the
                  engine's statement limit, making the cost model's
                  clamped estimates degenerate
L110    ERROR     a literal appears in subject or predicate position
L111    INFO      the UCQ reformulation contains union terms subsumed
                  by a sibling term (removed by the containment-based
                  minimization pass, which is on by default)
L112    INFO      the UCQ reformulation contains duplicate union terms
                  up to variable renaming (same cache fingerprint)
L113    ERROR     an RDFS constraint atom matches nothing in the schema
                  closure — constraint triples are never stored in the
                  data, so the answer is statically empty
======  ========  =====================================================

Rules L102/L103 need a database (dictionary) and/or schema; L105 and
L113 need a schema; L109 needs a reformulator; L111/L112 need both a
schema and a reformulator (they inspect the raw reformulation through
:mod:`repro.analysis.containment`).  Absent context simply disables the
rules that need it — the lint never guesses.
"""

from __future__ import annotations

from collections import Counter
from typing import List, Optional

from ..query.bgp import BGPQuery
from ..rdf.terms import Literal, URI, Variable
from ..rdf.vocabulary import RDF_TYPE, SCHEMA_PROPERTIES
from .diagnostics import Diagnostic, LintReport, Severity, sort_diagnostics

#: Body size beyond which the ECov search space explodes (the paper's
#: 10-atom DBLP Q10 already exceeds a 100k-cover budget).
ECOV_DEGENERATE_ATOMS = 8


def _atom_text(query: BGPQuery, index: int) -> str:
    atom = query.body[index]
    return f"{atom.s} {atom.p} {atom.o}"


def _finding(
    code: str,
    severity: Severity,
    message: str,
    query: BGPQuery,
    atom_index: Optional[int] = None,
) -> Diagnostic:
    return Diagnostic(
        code=code,
        severity=severity,
        message=message,
        stage="lint",
        subject=query.name,
        atom_index=atom_index,
    )


def _lint_shape(query: BGPQuery) -> List[Diagnostic]:
    """Schema-independent rules: L101, L104, L107, L110."""
    findings: List[Diagnostic] = []
    n = len(query.body)
    if n >= 2 and not query.is_connected(range(n)):
        findings.append(
            _finding(
                "L101",
                Severity.WARNING,
                "the body's join graph is disconnected: the query is a "
                "cartesian product of its components",
                query,
            )
        )
    seen: dict = {}
    for index, atom in enumerate(query.body):
        first = seen.setdefault(atom, index)
        if first != index:
            findings.append(
                _finding(
                    "L104",
                    Severity.WARNING,
                    f"atom ({_atom_text(query, index)}) duplicates atom t{first + 1}",
                    query,
                    atom_index=index,
                )
            )
    occurrences: Counter = Counter()
    for atom in query.body:
        for term in atom:
            if isinstance(term, Variable):
                occurrences[term] += 1
    projected = set(query.head_variables())
    for variable, count in sorted(occurrences.items()):
        if count == 1 and variable not in projected:
            findings.append(
                _finding(
                    "L107",
                    Severity.INFO,
                    f"variable {variable} occurs exactly once and is not "
                    "projected (typo'd join variable?)",
                    query,
                )
            )
    for index, atom in enumerate(query.body):
        if isinstance(atom.s, Literal):
            findings.append(
                _finding(
                    "L110",
                    Severity.ERROR,
                    f"literal {atom.s} in subject position of "
                    f"({_atom_text(query, index)}); RDF forbids literal subjects",
                    query,
                    atom_index=index,
                )
            )
        if isinstance(atom.p, Literal):
            findings.append(
                _finding(
                    "L110",
                    Severity.ERROR,
                    f"literal {atom.p} in predicate position of "
                    f"({_atom_text(query, index)})",
                    query,
                    atom_index=index,
                )
            )
    return findings


def _lint_vocabulary(query: BGPQuery, schema, dictionary) -> List[Diagnostic]:
    """Statically-empty-answer rules: L102 (properties), L103 (classes)."""
    findings: List[Diagnostic] = []
    known_properties = schema.properties if schema is not None else frozenset()
    known_classes = schema.classes if schema is not None else frozenset()

    def in_data(term) -> bool:
        return dictionary is not None and dictionary.lookup(term) is not None

    for index, atom in enumerate(query.body):
        predicate = atom.p
        if isinstance(predicate, URI) and predicate != RDF_TYPE:
            if predicate in SCHEMA_PROPERTIES:
                continue  # schema-level atom: resolved by rules 8-11
            if predicate not in known_properties and not in_data(predicate):
                findings.append(
                    _finding(
                        "L102",
                        Severity.ERROR,
                        f"property {predicate} appears in neither the RDFS "
                        "schema nor the data: the answer is statically empty",
                        query,
                        atom_index=index,
                    )
                )
        if predicate == RDF_TYPE and isinstance(atom.o, URI):
            cls = atom.o
            if cls not in known_classes and not in_data(cls):
                findings.append(
                    _finding(
                        "L103",
                        Severity.ERROR,
                        f"class {cls} appears in neither the RDFS schema nor "
                        "the data: the answer is statically empty",
                        query,
                        atom_index=index,
                    )
                )
    return findings


def _lint_redundancy(query: BGPQuery, schema) -> List[Diagnostic]:
    """L105: atoms entailed by other atoms under the schema closure."""
    from ..reformulation.minimize import redundant_atoms

    findings: List[Diagnostic] = []
    for index in redundant_atoms(query, schema):
        findings.append(
            _finding(
                "L105",
                Severity.WARNING,
                f"atom ({_atom_text(query, index)}) is entailed by another "
                "atom under the schema closure (redundant; the paper's "
                "benchmark queries are designed redundancy-free)",
                query,
                atom_index=index,
            )
        )
    return findings


def _lint_schema_atoms(query: BGPQuery, schema) -> List[Diagnostic]:
    """L113: constraint atoms with no consistent schema-closure match.

    Reformulation rules 8-11 resolve ``rdfs:subClassOf``-style atoms by
    binding them against the closure; constraint triples are never
    stored in the triples table.  An atom no closure triple can bind is
    therefore unsatisfiable: every union term retains it, and the whole
    answer is statically empty.
    """
    from ..reformulation.reformulate import _closure_matches

    findings: List[Diagnostic] = []
    for index, atom in enumerate(query.body):
        if not isinstance(atom.p, URI) or atom.p not in SCHEMA_PROPERTIES:
            continue
        satisfiable = False
        for closure_triple in _closure_matches(atom, schema):
            binding: dict = {}
            consistent = True
            for query_term, schema_term in zip(atom, closure_triple):
                if isinstance(query_term, Variable):
                    bound = binding.setdefault(query_term, schema_term)
                    if bound != schema_term:
                        consistent = False
                        break
                elif query_term != schema_term:
                    consistent = False
                    break
            if consistent:
                satisfiable = True
                break
        if not satisfiable:
            findings.append(
                _finding(
                    "L113",
                    Severity.ERROR,
                    f"constraint atom ({_atom_text(query, index)}) matches "
                    "nothing in the schema closure: the answer is "
                    "statically empty",
                    query,
                    atom_index=index,
                )
            )
    return findings


def _lint_union_redundancy(
    query: BGPQuery, schema, reformulator
) -> List[Diagnostic]:
    """L111/L112: statically redundant terms in the raw reformulation.

    Materializes the *unminimized* reformulation (bounded by the
    containment pass's own term cap, so the lint stays cheap) and runs
    the subsumption pass over it; subsumed terms report L111, duplicate
    terms up to renaming L112.  Both are informational: the default
    pipeline removes them automatically (DESIGN.md §13).
    """
    from ..reformulation.reformulate import (
        ReformulationLimitExceeded,
        reformulate,
    )
    from .containment import DEFAULT_MAX_TERMS, minimize_ucq

    limit = getattr(reformulator, "limit", None) or DEFAULT_MAX_TERMS
    try:
        raw = reformulate(query, schema, limit=min(limit, DEFAULT_MAX_TERMS))
    except ReformulationLimitExceeded:
        return []  # too large to materialize cheaply; the lint never guesses
    result = minimize_ucq(raw, schema)
    findings: List[Diagnostic] = []
    if result.subsumed:
        example = next(
            text for kind, text in result.eliminations() if kind == "subsumed"
        )
        findings.append(
            _finding(
                "L111",
                Severity.INFO,
                f"{result.subsumed} of {len(raw)} union terms are subsumed "
                f"by a sibling term (e.g. {example}); the "
                "containment-based minimization pass removes them",
                query,
            )
        )
    if result.duplicates:
        findings.append(
            _finding(
                "L112",
                Severity.INFO,
                f"{result.duplicates} union terms duplicate a sibling up "
                "to variable renaming (identical cache fingerprints)",
                query,
            )
        )
    return findings


def _lint_cost_model(
    query: BGPQuery, reformulator, max_operand_terms: Optional[int]
) -> List[Diagnostic]:
    """Degenerate-cost-model rules: L108 (cover space), L109 (|q_ref|)."""
    findings: List[Diagnostic] = []
    if len(query.body) > ECOV_DEGENERATE_ATOMS:
        findings.append(
            _finding(
                "L108",
                Severity.WARNING,
                f"{len(query.body)} atoms: the exhaustive cover space is "
                "likely beyond any ECov budget; use the gcov strategy",
                query,
            )
        )
    if reformulator is not None and max_operand_terms is not None:
        from ..reformulation.reformulate import reformulation_count

        try:
            terms = reformulation_count(query, reformulator.schema)
        except Exception:  # noqa: BLE001 - count is advisory only
            return findings
        if terms > max_operand_terms:
            findings.append(
                _finding(
                    "L109",
                    Severity.WARNING,
                    f"|q_ref| = {terms} union terms exceeds the engine "
                    f"statement limit ({max_operand_terms}): the "
                    "single-fragment cover is infeasible and clamped cost "
                    "estimates degenerate; a multi-fragment cover is required",
                    query,
                )
            )
    return findings


def lint_query(
    query: BGPQuery,
    database=None,
    schema=None,
    reformulator=None,
    max_operand_terms: Optional[int] = None,
) -> LintReport:
    """Run every applicable lint rule over ``query``.

    ``schema`` defaults to ``database.schema`` when a database is
    given.  Diagnostics come back deterministically ordered inside a
    :class:`~repro.analysis.diagnostics.LintReport`.
    """
    if schema is None and database is not None:
        schema = database.schema
    dictionary = database.dictionary if database is not None else None
    report = LintReport(query_name=query.name)
    report.extend(_lint_shape(query))
    if schema is not None or dictionary is not None:
        report.extend(_lint_vocabulary(query, schema, dictionary))
    if schema is not None:
        report.extend(_lint_redundancy(query, schema))
        report.extend(_lint_schema_atoms(query, schema))
    if schema is not None and reformulator is not None:
        report.extend(_lint_union_redundancy(query, schema, reformulator))
    report.extend(_lint_cost_model(query, reformulator, max_operand_terms))
    return report


def lint_text(
    text: str,
    database=None,
    schema=None,
    reformulator=None,
    max_operand_terms: Optional[int] = None,
    name: str = "q",
) -> LintReport:
    """Parse then lint; parse and safety failures become diagnostics.

    An unparseable query yields a single ``L100`` error; an unsafe one
    (projection variable unbound in the body — rejected by the
    ``BGPQuery`` constructor) yields ``L106``.  This is what the CLI
    uses, so a typo'd query produces a rule-coded report instead of a
    stack trace.
    """
    from ..query.parser import parse_query

    try:
        query = parse_query(text, name)  # the diagnostics' subject
    except ValueError as error:
        code = "L106" if "unsafe query" in str(error) else "L100"
        report = LintReport(query_name=name)
        report.extend(
            [
                Diagnostic(
                    code=code,
                    severity=Severity.ERROR,
                    message=str(error),
                    stage="lint",
                    subject=name,
                )
            ]
        )
        return report
    report = lint_query(
        query,
        database=database,
        schema=schema,
        reformulator=reformulator,
        max_operand_terms=max_operand_terms,
    )
    report.query_name = name
    return report


def format_report(report: LintReport, verbose: bool = True) -> str:
    """Text rendering of a lint report, one diagnostic per line."""
    minimum = Severity.INFO if verbose else Severity.WARNING
    lines = [
        d.format()
        for d in sort_diagnostics(report.diagnostics)
        if d.severity >= minimum
    ]
    status = "ok" if report.ok else "FAIL"
    lines.append(
        f"{report.query_name}: {status} "
        f"({report.error_count} errors, {report.warning_count} warnings)"
    )
    return "\n".join(lines)
