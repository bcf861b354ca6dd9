"""The IR verifier: per-stage invariant checks over the pipeline's IRs.

The reformulation pipeline compiles a query through four intermediate
representations — ``BGPQuery`` → cover → ``JUCQ`` → ``PlanNode`` tree
(or SQL text) — and the paper's equivalence guarantee (Theorem 3.1)
holds only for *structurally well-formed* instances of each.  The
checks here make those well-formedness conditions executable: every
``check_*`` function returns :class:`~repro.analysis.diagnostics.Diagnostic`
values with stable ``IR-*`` rule codes, and every ``verify_*`` wrapper
raises :class:`~repro.analysis.diagnostics.IRVerificationError` when an
error-severity finding fires.

Stage letters (full catalogue in DESIGN.md §8):

* ``IR-Qxx`` — BGPQuery well-formedness;
* ``IR-Cxx`` — cover validity (Definition 3.3; implemented in
  :mod:`repro.reformulation.covers` and re-exported here);
* ``IR-Jxx`` — JUCQ structure (Definition 3.4 heads, operand shape);
* ``IR-Pxx`` — plan-tree schema/type propagation;
* ``IR-Sxx`` — generated-SQL sanity (see :mod:`repro.analysis.sqlcheck`);
* ``IR-Mxx`` — UCQ-minimization equivalence certificates (witness
  homomorphisms recorded by :mod:`repro.analysis.containment`).

``verify_pipeline`` strings the stages together; it is what
``QueryAnswerer(verify_ir=True)`` and the ``--verify-ir`` CLI flag run
after each compilation stage.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..engine.plans import (
    ConstantRowNode,
    DistinctNode,
    JoinNode,
    PlanNode,
    ProjectNode,
    RenameNode,
    ScanNode,
    UnionNode,
)
from ..query.algebra import JUCQ, UCQ
from ..query.bgp import BGPQuery
from ..rdf.terms import BlankNode, Variable
from ..rdf.vocabulary import RDF_TYPE
from ..reformulation.covers import Cover, check_cover, cover_queries
from .subsumption import TYPE
from .diagnostics import (
    Diagnostic,
    IRVerificationError,
    Severity,
    errors,
    sort_diagnostics,
)

__all__ = [
    "check_bgp",
    "check_subsumption",
    "check_cover",
    "check_jucq",
    "check_minimization",
    "check_plan",
    "plan_schema",
    "verify_bgp",
    "verify_subsumption",
    "verify_cover",
    "verify_jucq",
    "verify_minimization",
    "verify_plan",
    "verify_pipeline",
]


def _atom_text(query: BGPQuery, index: int) -> str:
    atom = query.body[index]
    return f"{atom.s} {atom.p} {atom.o}"


# ----------------------------------------------------------------------
# Stage Q: BGPQuery well-formedness
# ----------------------------------------------------------------------
def check_bgp(query: BGPQuery) -> List[Diagnostic]:
    """Well-formedness of a BGP query (stage ``Q``).

    * ``IR-Q01`` — a head variable does not occur in the body (unsafe
      query; the public constructor enforces this, but the ``_raw``
      hot-path constructor used by reformulation does not).
    * ``IR-Q02`` — a blank node survives in the head or body (the
      constructor renames blank nodes to fresh variables up front, so a
      surviving one marks a corrupted IR).
    """
    findings: List[Diagnostic] = []
    body_variables = query.variables()
    for term in query.head:
        if isinstance(term, Variable) and term not in body_variables:
            findings.append(
                Diagnostic(
                    code="IR-Q01",
                    severity=Severity.ERROR,
                    message=f"head variable {term} does not occur in the body",
                    stage="query",
                    subject=query.name,
                )
            )
        if isinstance(term, BlankNode):
            findings.append(
                Diagnostic(
                    code="IR-Q02",
                    severity=Severity.ERROR,
                    message=f"blank node {term} in the head was not renamed",
                    stage="query",
                    subject=query.name,
                )
            )
    for index, atom in enumerate(query.body):
        for term in atom:
            if isinstance(term, BlankNode):
                findings.append(
                    Diagnostic(
                        code="IR-Q02",
                        severity=Severity.ERROR,
                        message=(
                            f"blank node {term} in atom ({_atom_text(query, index)}) "
                            "was not renamed"
                        ),
                        stage="query",
                        subject=query.name,
                        atom_index=index,
                    )
                )
    return sort_diagnostics(findings)


# ----------------------------------------------------------------------
# Stage J: JUCQ structure (Definition 3.4)
# ----------------------------------------------------------------------
def check_jucq(
    jucq: JUCQ,
    query: Optional[BGPQuery] = None,
    cover: Optional[Cover] = None,
) -> List[Diagnostic]:
    """Structural checks on a JUCQ (stage ``J``).

    * ``IR-J01`` — a JUCQ head variable is exported by no operand;
    * ``IR-J02`` — an operand carries no conjuncts (empty after
      pruning);
    * ``IR-J03`` — an operand conjunct disagrees with its operand's
      arity (a union of incompatible arities);
    * ``IR-J04`` — with ``query``/``cover`` given: an operand head is
      not the Definition 3.4 head (the fragment's distinguished
      variables plus the variables shared with other fragments);
    * ``IR-J05`` — with ``query``/``cover`` given: the operand count
      differs from the cover's fragment count;
    * ``IR-J06`` — a multi-operand JUCQ has an operand sharing no head
      variable with the rest (the join degenerates to a cartesian
      product, which covers rule out by construction).
    """
    findings: List[Diagnostic] = []
    exported = set()
    for operand in jucq.operands:
        exported.update(operand.head_variables())
    for term in jucq.head:
        if isinstance(term, Variable) and term not in exported:
            findings.append(
                Diagnostic(
                    code="IR-J01",
                    severity=Severity.ERROR,
                    message=f"JUCQ head variable {term} is exported by no operand",
                    stage="jucq",
                    subject=jucq.name,
                )
            )
    for position, operand in enumerate(jucq.operands):
        label = f"{jucq.name}.operand[{position}]"
        if len(operand.cqs) == 0:
            findings.append(
                Diagnostic(
                    code="IR-J02",
                    severity=Severity.ERROR,
                    message="operand has no conjuncts (empty after pruning?)",
                    stage="jucq",
                    subject=label,
                )
            )
        for cq in operand.cqs:
            if cq.arity != operand.arity:
                findings.append(
                    Diagnostic(
                        code="IR-J03",
                        severity=Severity.ERROR,
                        message=(
                            f"conjunct {cq.name} has arity {cq.arity}, "
                            f"operand head has arity {operand.arity}"
                        ),
                        stage="jucq",
                        subject=label,
                    )
                )
    if query is not None and cover is not None:
        findings.extend(_check_def34_heads(jucq, query, cover))
    if len(jucq.operands) > 1:
        findings.extend(_check_operand_connectivity(jucq))
    return sort_diagnostics(findings)


def _check_def34_heads(
    jucq: JUCQ, query: BGPQuery, cover: Cover
) -> List[Diagnostic]:
    """Operand heads must match the Definition 3.4 cover-query heads."""
    findings: List[Diagnostic] = []
    expected = cover_queries(query, cover)
    if len(expected) != len(jucq.operands):
        findings.append(
            Diagnostic(
                code="IR-J05",
                severity=Severity.ERROR,
                message=(
                    f"cover has {len(expected)} fragments but the JUCQ "
                    f"has {len(jucq.operands)} operands"
                ),
                stage="jucq",
                subject=jucq.name,
            )
        )
        return findings
    for position, (cover_cq, operand) in enumerate(zip(expected, jucq.operands)):
        if tuple(operand.head) != tuple(cover_cq.head):
            findings.append(
                Diagnostic(
                    code="IR-J04",
                    severity=Severity.ERROR,
                    message=(
                        "operand head "
                        f"({', '.join(map(str, operand.head))}) differs from the "
                        "Definition 3.4 head "
                        f"({', '.join(map(str, cover_cq.head))})"
                    ),
                    stage="jucq",
                    subject=f"{jucq.name}.operand[{position}]",
                )
            )
    return findings


def _check_operand_connectivity(jucq: JUCQ) -> List[Diagnostic]:
    """Each operand must share a head variable with some other operand."""
    findings: List[Diagnostic] = []
    head_vars = [set(operand.head_variables()) for operand in jucq.operands]
    for position, own in enumerate(head_vars):
        other = set()
        for j, vars_ in enumerate(head_vars):
            if j != position:
                other |= vars_
        if not own & other:
            findings.append(
                Diagnostic(
                    code="IR-J06",
                    severity=Severity.ERROR,
                    message=(
                        "operand shares no head variable with any other "
                        "operand (the operand join is a cartesian product)"
                    ),
                    stage="jucq",
                    subject=f"{jucq.name}.operand[{position}]",
                )
            )
    return findings


# ----------------------------------------------------------------------
# Stage P: plan-tree schema propagation
# ----------------------------------------------------------------------
def _scan_schema(node: ScanNode) -> Tuple[str, ...]:
    """Output columns of a scan: the atom's distinct variables, in
    position order (mirrors ``operators.scan_atom``)."""
    names: List[str] = []
    for term in node.atom:
        if isinstance(term, Variable) and term.value not in names:
            names.append(term.value)
    return tuple(names)


def _infer_schema(
    node: PlanNode, findings: List[Diagnostic], path: str
) -> Tuple[str, ...]:
    """Bottom-up variable-schema inference with invariant checks."""
    if isinstance(node, ScanNode):
        return _scan_schema(node)
    if isinstance(node, JoinNode):
        left = _infer_schema(node.left, findings, path + "/join.left")
        right = _infer_schema(node.right, findings, path + "/join.right")
        shared = [column for column in left if column in right]
        if node.algorithm == "cross" and shared:
            findings.append(
                Diagnostic(
                    code="IR-P02",
                    severity=Severity.ERROR,
                    message=(
                        f"cross join over shared columns {shared} would "
                        "silently drop the join condition"
                    ),
                    stage="plan",
                    subject=path,
                )
            )
        if node.algorithm != "cross" and not shared:
            findings.append(
                Diagnostic(
                    code="IR-P01",
                    severity=Severity.ERROR,
                    message=(
                        f"{node.algorithm} join has no join key: no column is "
                        f"shared between {list(left)} and {list(right)}"
                    ),
                    stage="plan",
                    subject=path,
                )
            )
        return left + tuple(column for column in right if column not in shared)
    if isinstance(node, ProjectNode):
        child = _infer_schema(node.child, findings, path + "/project")
        if len(node.head) != len(node.output_names):
            findings.append(
                Diagnostic(
                    code="IR-P04",
                    severity=Severity.ERROR,
                    message=(
                        f"project has {len(node.head)} head terms but "
                        f"{len(node.output_names)} output names"
                    ),
                    stage="plan",
                    subject=path,
                )
            )
        for term in node.head:
            if isinstance(term, Variable) and term.value not in child:
                findings.append(
                    Diagnostic(
                        code="IR-P03",
                        severity=Severity.ERROR,
                        message=(
                            f"projected variable {term} is absent from the "
                            f"child schema {list(child)}"
                        ),
                        stage="plan",
                        subject=path,
                    )
                )
        return tuple(node.output_names)
    if isinstance(node, ConstantRowNode):
        for term in node.head:
            if isinstance(term, Variable):
                findings.append(
                    Diagnostic(
                        code="IR-P05",
                        severity=Severity.ERROR,
                        message=(
                            f"constant row carries variable {term}; only "
                            "ground terms are dictionary-encodable"
                        ),
                        stage="plan",
                        subject=path,
                    )
                )
        if len(node.head) != len(node.output_names):
            findings.append(
                Diagnostic(
                    code="IR-P04",
                    severity=Severity.ERROR,
                    message=(
                        f"constant row has {len(node.head)} head terms but "
                        f"{len(node.output_names)} output names"
                    ),
                    stage="plan",
                    subject=path,
                )
            )
        return tuple(node.output_names)
    if isinstance(node, UnionNode):
        width = len(node.output_names)
        for position, child in enumerate(node.inputs):
            schema = _infer_schema(
                child, findings, f"{path}/union.input[{position}]"
            )
            if len(schema) != width:
                findings.append(
                    Diagnostic(
                        code="IR-P06",
                        severity=Severity.ERROR,
                        message=(
                            f"union input {position} has arity {len(schema)}, "
                            f"union output has arity {width}"
                        ),
                        stage="plan",
                        subject=path,
                    )
                )
            elif tuple(schema) != tuple(node.output_names):
                findings.append(
                    Diagnostic(
                        code="IR-P07",
                        severity=Severity.WARNING,
                        message=(
                            f"union input {position} columns {list(schema)} "
                            f"differ from output columns "
                            f"{list(node.output_names)} (positional union)"
                        ),
                        stage="plan",
                        subject=path,
                    )
                )
        return tuple(node.output_names)
    if isinstance(node, DistinctNode):
        # Distinct preserves its child's schema by construction.
        return _infer_schema(node.child, findings, path + "/distinct")
    if isinstance(node, RenameNode):
        child = _infer_schema(node.child, findings, path + "/rename")
        if len(node.output_names) != len(child):
            findings.append(
                Diagnostic(
                    code="IR-P08",
                    severity=Severity.ERROR,
                    message=(
                        f"rename to {len(node.output_names)} columns over a "
                        f"child of arity {len(child)}"
                    ),
                    stage="plan",
                    subject=path,
                )
            )
        return tuple(node.output_names)
    findings.append(
        Diagnostic(
            code="IR-P00",
            severity=Severity.WARNING,
            message=f"unknown plan operator {type(node).__name__}; schema unknown",
            stage="plan",
            subject=path,
        )
    )
    return ()


def check_plan(
    plan: PlanNode, expected_arity: Optional[int] = None
) -> List[Diagnostic]:
    """Schema/type propagation over a plan tree (stage ``P``).

    Infers every operator's output schema bottom-up and reports:

    * ``IR-P01`` — a hash/merge join whose children share no column;
    * ``IR-P02`` — a cross join whose children *do* share columns;
    * ``IR-P03`` — a projection referencing a column absent from its
      child schema;
    * ``IR-P04`` — head/output-name arity mismatch in project or
      constant row;
    * ``IR-P05`` — a constant row carrying a variable;
    * ``IR-P06`` — union operands of incompatible arity;
    * ``IR-P07`` — union operands whose column *names* differ
      (warning: the union is positional, so this is legal but smells);
    * ``IR-P08`` — rename arity mismatch;
    * ``IR-P09`` — the root schema's arity differs from
      ``expected_arity`` (the query's answer width).

    Distinct (and any other materializing passthrough) must preserve its
    child schema, which the inference encodes directly.
    """
    findings: List[Diagnostic] = []
    schema = _infer_schema(plan, findings, "root")
    if expected_arity is not None and len(schema) != expected_arity:
        findings.append(
            Diagnostic(
                code="IR-P09",
                severity=Severity.ERROR,
                message=(
                    f"plan produces {len(schema)} columns {list(schema)} but "
                    f"the query's answer width is {expected_arity}"
                ),
                stage="plan",
                subject="root",
            )
        )
    return sort_diagnostics(findings)


def plan_schema(plan: PlanNode) -> Tuple[str, ...]:
    """The inferred output columns of a plan (ignoring diagnostics)."""
    return _infer_schema(plan, [], "root")


# ----------------------------------------------------------------------
# Stage M: minimization equivalence certificates
# ----------------------------------------------------------------------
def check_minimization(original: UCQ, result) -> List[Diagnostic]:
    """Re-check a UCQ minimization's equivalence certificates (stage ``M``).

    ``result`` is a :class:`repro.analysis.containment.MinimizationResult`.
    The checks are independent of the homomorphism *search* that
    produced the witnesses — they only re-apply the recorded mappings —
    so a search bug cannot vouch for its own eliminations.

    * ``IR-M01`` — a witness fails its independent re-check (the
      recorded mapping is not a head-preserving homomorphism into the
      removed term, or an empty-term witness points at a non-constraint
      atom);
    * ``IR-M02`` — the minimized UCQ contains a term that is not a term
      of the original (minimization may only delete);
    * ``IR-M03`` — term accounting is inconsistent: survivors plus
      eliminations do not add up to the original union;
    * ``IR-M04`` — a witness's keeper chain does not reach a surviving
      term (every elimination must be anchored, transitively, in a term
      that is still present).
    """
    from .containment import verify_witness

    findings: List[Diagnostic] = []

    def finding(code: str, message: str) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            stage="minimize",
            subject=result.ucq.name,
        )

    original_keys = {cq.canonical() for cq in original}
    survivor_keys = {cq.canonical() for cq in result.ucq}
    for term in result.ucq:
        if term.canonical() not in original_keys:
            findings.append(
                finding(
                    "IR-M02",
                    f"minimized term {term} does not occur in the original UCQ",
                )
            )
    if len(result.ucq) + len(result.witnesses) != len(original):
        findings.append(
            finding(
                "IR-M03",
                f"{len(original)} original terms != {len(result.ucq)} "
                f"survivors + {len(result.witnesses)} eliminations",
            )
        )
    removed_to_keeper = {}
    for witness in result.witnesses:
        defect = verify_witness(witness)
        if defect is not None:
            findings.append(finding("IR-M01", defect))
        if witness.removed.canonical() not in original_keys:
            findings.append(
                finding(
                    "IR-M02",
                    f"eliminated term {witness.removed} does not occur in "
                    "the original UCQ",
                )
            )
        if witness.keeper is not None:
            removed_to_keeper[witness.removed.canonical()] = (
                witness.keeper.canonical()
            )
    for witness in result.witnesses:
        if witness.keeper is None:
            continue
        key = witness.keeper.canonical()
        seen = {witness.removed.canonical()}
        while key not in survivor_keys:
            if key in seen or key not in removed_to_keeper:
                findings.append(
                    finding(
                        "IR-M04",
                        f"keeper chain of eliminated term {witness.removed} "
                        "does not reach a surviving term",
                    )
                )
                break
            seen.add(key)
            key = removed_to_keeper[key]
    return sort_diagnostics(findings)


def _replay(source, target, hom):
    """What a mapping between two layouts demands, or a defect text.

    Every keeper cell must land on the cell ``hom`` says.  Returns the
    removed head constant each keeper head constant must equal, the
    removed slots each keeper pattern is made of, and the pairs of
    removed constants the mapping forces to be equal.
    """
    pi, theta = hom.pi, hom.theta
    if len(pi) != len(source.atoms) or len(source.head) != len(target.head):
        return "mapping does not fit the keeper's layout"
    equal = []

    def lands(cell, onto) -> bool:
        image = theta.get(cell)
        if image is None or image == onto:
            return image is not None
        if type(image) is tuple and type(onto) is tuple:
            equal.append((image, onto))
            return True
        return False

    numbers = iter(range(len(target.head)))
    heads = []
    for cell, onto in zip(source.head, target.head):
        if onto is None:
            onto = (-1, next(numbers))
        if cell is None:
            if type(onto) is not tuple:
                return "a keeper head constant lands on a variable"
            heads.append(onto[1])
        elif not lands(cell, onto):
            return f"head variable {cell} is not mapped onto the removed head"
    made_of = []
    for i, j in enumerate(pi):
        if not 0 <= j < len(target.atoms):
            return f"keeper atom {i} is mapped onto no atom"
        slots = []
        for cell, onto, slot in zip(source.atoms[i], target.atoms[j], target.slots[j]):
            if cell is None or cell is TYPE:
                if onto is not cell:
                    return f"a constant of keeper atom {i} lands on a variable"
                if cell is None:
                    slots.append(slot)
                continue
            if onto is None:
                onto = (j, slot)
            elif onto is TYPE:
                onto = (-2, RDF_TYPE)
            if not lands(cell, onto):
                return (
                    f"variable {cell} of keeper atom {i} does not land on "
                    f"removed atom {j}"
                )
        made_of.append(slots)
    return heads, made_of, equal


def _certified_pairs(certificate, replays):
    """``{removed row: keeper row}`` a certificate proves, or a defect text.

    Nothing here is shared with the search that produced the
    certificate: the mapping is *replayed* (:func:`_replay`, once per
    mapping), and then the head constants, the pattern table and the
    rows are held to what the replay demands.
    """
    keeper, removed, hom = certificate.keeper, certificate.removed, certificate.hom
    replay = replays.get(id(hom))
    if replay is None:
        replay = replays[id(hom)] = _replay(keeper.layout, removed.layout, hom)
    if isinstance(replay, str):
        return replay
    heads, made_of, equal = replay
    pi = hom.pi
    if len(heads) != len(keeper.head_constants) or any(
        mine != removed.head_constants[number]
        for mine, number in zip(keeper.head_constants, heads)
    ):
        return "keeper and removed rows disagree on a head constant"

    tables = []
    for j, found in enumerate(certificate.entries):
        landing = [i for i, onto in enumerate(pi) if onto == j]
        patterns = removed.domains[j].patterns
        if found is None:
            if landing or any(j in (left[0], right[0]) for left, right in equal):
                return f"removed atom {j} is constrained but its table is open"
            tables.append({at: () for at in range(len(patterns))})
            continue
        for at, picked in found:
            if len(picked) != len(landing) or not 0 <= at < len(patterns):
                return f"malformed table entry for removed atom {j}"
            for i, there in zip(landing, picked):
                options = keeper.domains[i].patterns
                if not 0 <= there < len(options) or options[there] != tuple(
                    patterns[at][slot] for slot in made_of[i]
                ):
                    return (
                        f"keeper pattern {there} of atom {i} is not what the "
                        f"mapping makes of pattern {at} of removed atom {j}"
                    )
        tables.append({at: tuple(zip(landing, picked)) for at, picked in found})

    def constant(ref, positions):
        if ref[0] == -1:
            return removed.head_constants[ref[1]]
        if ref[0] == -2:
            return ref[1]
        return removed.domains[ref[0]].patterns[positions[ref[0]]][ref[1]]

    pairs = {}
    there = [0] * len(keeper.domains)
    for positions in removed.within(tables):
        if any(constant(l, positions) != constant(r, positions) for l, r in equal):
            continue
        for table, at in zip(tables, positions):
            for i, mine in table[at]:
                there[i] = mine
        a = keeper.number(there)
        if a is not None:
            pairs[removed.number(positions)] = a
    return pairs


def check_subsumption(result) -> List[Diagnostic]:
    """Re-check a shape-level subsumption (stage ``M``, DESIGN.md §13).

    ``result`` is a :class:`repro.analysis.subsumption.Subsumption`.

    * ``IR-M01`` — a certificate's mapping is not a homomorphism from
      its keeper layout into its removed layout, its pattern table pairs
      patterns the mapping does not relate, or an eliminated row is not
      among the rows its certificate covers (or names another keeper);
    * ``IR-M04`` — an eliminated row's keeper chain does not reach a
      surviving row.
    """

    def finding(code: str, message: str) -> Diagnostic:
        return Diagnostic(
            code=code,
            severity=Severity.ERROR,
            message=message,
            stage="minimize",
            subject="union",
        )

    findings: List[Diagnostic] = []
    proven = []
    replays: dict = {}
    for number, certificate in enumerate(result.certificates):
        pairs = _certified_pairs(certificate, replays)
        if isinstance(pairs, str):
            findings.append(finding("IR-M01", f"certificate {number}: {pairs}"))
            pairs = {}
        proven.append(pairs)
    eliminated = result.eliminated
    for removed, (keeper, number) in eliminated.items():
        if not 0 <= number < len(proven) or removed == keeper or (
            proven[number].get(removed) != keeper
        ):
            findings.append(
                finding(
                    "IR-M01",
                    f"certificate {number} does not prove row {removed} "
                    f"contained in row {keeper}",
                )
            )
    #: Every dropped row -> the row said to contain it.
    follows = dict(result.merged)
    follows.update((removed, keeper) for removed, (keeper, _) in eliminated.items())
    anchored: set = set()
    for removed in eliminated:
        chain = []
        row = removed
        while row in follows and row not in anchored:
            if len(chain) > len(follows):
                findings.append(
                    finding(
                        "IR-M04",
                        f"keeper chain of eliminated row {removed} does not "
                        "reach a surviving row",
                    )
                )
                break
            chain.append(row)
            row = follows[row]
        else:
            anchored.update(chain)
    return sort_diagnostics(findings)


# ----------------------------------------------------------------------
# Raising wrappers and the pipeline driver
# ----------------------------------------------------------------------
def _raise_on_error(findings: Sequence[Diagnostic]) -> None:
    failed = errors(findings)
    if failed:
        raise IRVerificationError(failed)


def verify_bgp(query: BGPQuery) -> None:
    """Raise :class:`IRVerificationError` unless ``query`` is well-formed."""
    _raise_on_error(check_bgp(query))


def verify_cover(query: BGPQuery, cover: Cover) -> None:
    """Raise :class:`IRVerificationError` unless ``cover`` satisfies Def 3.3."""
    _raise_on_error(check_cover(query, cover))


def verify_jucq(
    jucq: JUCQ,
    query: Optional[BGPQuery] = None,
    cover: Optional[Cover] = None,
) -> None:
    """Raise :class:`IRVerificationError` unless ``jucq`` is well-structured."""
    _raise_on_error(check_jucq(jucq, query=query, cover=cover))


def verify_plan(plan: PlanNode, expected_arity: Optional[int] = None) -> None:
    """Raise :class:`IRVerificationError` unless the plan tree type-checks."""
    _raise_on_error(check_plan(plan, expected_arity=expected_arity))


def verify_minimization(original: UCQ, result) -> None:
    """Raise :class:`IRVerificationError` unless every certificate holds."""
    _raise_on_error(check_minimization(original, result))


def verify_subsumption(result) -> None:
    """Raise :class:`IRVerificationError` unless every certificate holds."""
    _raise_on_error(check_subsumption(result))


def verify_pipeline(
    query: BGPQuery,
    planned,
    cover: Optional[Cover] = None,
    database=None,
) -> None:
    """Assert every stage of one compiled query, end to end.

    ``planned`` is the reformulated query the answerer will evaluate
    (a JUCQ, or the original BGPQuery under the saturation strategy).
    With a ``database``, the planned query is additionally compiled to
    a plan tree (checked by :func:`check_plan`) and to SQL (checked by
    :mod:`repro.analysis.sqlcheck`); compilation is cheap — nothing is
    executed.

    Raises :class:`IRVerificationError` carrying *all* error-severity
    findings, deterministically ordered.
    """
    verify_bgp(query)
    if isinstance(planned, BGPQuery):
        if planned is not query:
            verify_bgp(planned)
        return
    if cover is not None:
        verify_cover(query, cover)
        verify_jucq(planned, query=query, cover=cover)
    elif isinstance(planned, (JUCQ,)):
        verify_jucq(planned)
    if database is not None and isinstance(planned, (JUCQ, UCQ)):
        from ..engine.plans import compile_query
        from ..engine.sql import to_sql
        from .sqlcheck import check_sql

        plan = compile_query(planned, database)
        verify_plan(plan, expected_arity=planned.arity)
        body_connected = len(query.body) <= 1 or query.is_connected(
            range(len(query.body))
        )
        _raise_on_error(
            check_sql(
                to_sql(planned, database.dictionary),
                allow_cross=not body_connected,
            )
        )
