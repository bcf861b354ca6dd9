"""Basic Graph Pattern queries (SPARQL conjunctive queries).

A :class:`BGPQuery` is the paper's CQ notation ``q(x̄) :- t1, ..., tα``:
a head of distinguished terms and a body of triple atoms (paper
Section 2.2).  Heads start out as variables but may contain constants
after reformulation instantiates a head variable (Example 4 produces
``q(x, Book) :- x rdf:type Book``).

Blank nodes in queries behave exactly like non-distinguished variables,
so the constructor renames them to fresh variables up front.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import BlankNode, Term, Triple, Variable
from .templates import Template, partition_terms

#: A substitution maps variables to arbitrary terms.
Substitution = Dict[Variable, Term]


def apply_substitution(term: Term, substitution: Substitution) -> Term:
    """The image of ``term`` under ``substitution`` (identity off-domain)."""
    if isinstance(term, Variable):
        return substitution.get(term, term)
    return term


def substitute_triple(triple: Triple, substitution: Substitution) -> Triple:
    """Apply a substitution to all three positions of a triple."""
    return Triple(
        apply_substitution(triple.s, substitution),
        apply_substitution(triple.p, substitution),
        apply_substitution(triple.o, substitution),
    )


#: The sort-time stand-in of a renameable variable: above every term kind.
_RENAMEABLE = (4, "")


def renaming_invariant_key(
    head: Sequence[Term],
    body: Sequence[Triple],
    fixed: Dict[Variable, Tuple[int, str]],
) -> Tuple:
    """``(head key, frozenset of atom keys)`` up to renaming of variables.

    Every term maps to a ``(kind, value)`` pair.  The variables in
    ``fixed`` map to the pair given there; every other variable is
    renameable: kind 4 — above every real term kind — with the empty
    string while the atoms are sorted by shape, and its first-occurrence
    index over the sorted atoms afterwards (atoms of one shape keep the
    order of the atoms themselves).
    """

    def mask(term: Term) -> Tuple[int, object]:
        if type(term) is Variable:
            return fixed.get(term, _RENAMEABLE)
        return (term.kind, term.value)

    shaped = sorted(((mask(a.s), mask(a.p), mask(a.o)), a) for a in body)
    numbering: Dict[Term, int] = {}
    atom_keys = []
    for shape, atom in shaped:
        if _RENAMEABLE in shape:
            shape = tuple(
                (4, numbering.setdefault(t, len(numbering))) if m is _RENAMEABLE else m
                for m, t in zip(shape, (atom.s, atom.p, atom.o))
            )
        atom_keys.append(shape)
    return tuple(mask(t) for t in head), frozenset(atom_keys)


class BGPQuery:
    """A conjunctive query over triples: head terms + body atoms.

    Immutable.  ``name`` is cosmetic (used in printouts and benchmark
    reports).  Equality and hashing use the head and the *set* of body
    atoms, so atom order is irrelevant.
    """

    __slots__ = ("name", "head", "body", "_body_set", "_canonical", "_fingerprint",
                 "_templates")

    def __init__(
        self,
        head: Sequence[Term],
        body: Sequence[Triple],
        name: str = "q",
    ) -> None:
        body = tuple(body)
        rename = _blank_node_renaming(head, body)
        if rename:
            head = [apply_substitution(_blank_as_var(t, rename), {}) for t in head]
            body = tuple(
                Triple(
                    _blank_as_var(t.s, rename),
                    _blank_as_var(t.p, rename),
                    _blank_as_var(t.o, rename),
                )
                for t in body
            )
        self.name = name
        self.head: Tuple[Term, ...] = tuple(head)
        self.body: Tuple[Triple, ...] = body
        self._body_set = frozenset(body)
        self._canonical = None
        #: Lazily filled by :func:`repro.cache.fingerprint.query_fingerprint`.
        self._fingerprint = None
        self._templates: Optional[Tuple[Template, ...]] = None
        self._check_safety()

    @classmethod
    def _raw(
        cls, head: Tuple[Term, ...], body: Tuple[Triple, ...], name: str
    ) -> "BGPQuery":
        """Checked-elsewhere constructor for hot paths (reformulation).

        Skips blank-node renaming and the safety check; callers must
        guarantee both (terms derived from an existing valid query by
        substitution/recombination qualify).
        """
        query = object.__new__(cls)
        query.name = name
        query.head = head
        query.body = body
        query._body_set = frozenset(body)
        query._canonical = None
        query._fingerprint = None
        query._templates = None
        return query

    def _check_safety(self) -> None:
        body_variables = self.variables()
        for term in self.head:
            if isinstance(term, Variable) and term not in body_variables:
                raise ValueError(
                    f"unsafe query: head variable {term} does not occur in the body"
                )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def variables(self) -> Set[Variable]:
        """All variables occurring in the body."""
        seen: Set[Variable] = set()
        for atom in self.body:
            seen.update(atom.variables())
        return seen

    def head_variables(self) -> Tuple[Variable, ...]:
        """The variables (only) among the head terms, in head order."""
        return tuple(t for t in self.head if isinstance(t, Variable))

    @property
    def arity(self) -> int:
        """Number of head terms (answer width)."""
        return len(self.head)

    def atom_variables(self, index: int) -> Set[Variable]:
        """Variables of the ``index``-th body atom."""
        return self.body[index].variables()

    # ------------------------------------------------------------------
    # Join graph
    # ------------------------------------------------------------------
    def join_graph(self) -> Dict[int, Set[int]]:
        """Adjacency between atom indices that share at least one variable."""
        adjacency: Dict[int, Set[int]] = {i: set() for i in range(len(self.body))}
        atom_vars = [self.atom_variables(i) for i in range(len(self.body))]
        for i, j in combinations(range(len(self.body)), 2):
            if atom_vars[i] & atom_vars[j]:
                adjacency[i].add(j)
                adjacency[j].add(i)
        return adjacency

    def is_connected(self, indices: Iterable[int]) -> bool:
        """True when the given atom indices form a connected join subgraph."""
        indices = set(indices)
        if not indices:
            return False
        if len(indices) == 1:
            return True
        adjacency = self.join_graph()
        stack = [next(iter(indices))]
        reached: Set[int] = set()
        while stack:
            node = stack.pop()
            if node in reached:
                continue
            reached.add(node)
            stack.extend(adjacency[node] & indices)
        return reached == indices

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def substitute(self, substitution: Substitution) -> "BGPQuery":
        """Apply a substitution to head and body, returning a new query."""
        return BGPQuery(
            [apply_substitution(t, substitution) for t in self.head],
            [substitute_triple(a, substitution) for a in self.body],
            name=self.name,
        )

    def with_body(self, body: Sequence[Triple]) -> "BGPQuery":
        """A query with the same head but a different body."""
        return BGPQuery(self.head, body, name=self.name)

    def replace_atom(self, index: int, replacements: Sequence[Triple]) -> "BGPQuery":
        """Replace the ``index``-th atom by zero or more atoms."""
        body = list(self.body)
        body[index : index + 1] = list(replacements)
        return BGPQuery(self.head, body, name=self.name)

    def canonical(self) -> Tuple:
        """A renaming-invariant key for duplicate elimination (cached).

        Non-distinguished variables are renamed by first occurrence over
        a deterministic atom ordering (atoms are pre-sorted by their
        variable-masked shape).  Reformulation introduces fresh
        variables liberally; canonicalization lets the UCQ builder
        recognize ``q(x) :- x p y0`` and ``q(x) :- x p y7`` as the same
        conjunct.

        Head variables keep their names (two queries with different
        heads answer different columns); see
        :func:`renaming_invariant_key` for the encoding.
        """
        cached = self._canonical
        if cached is None:
            fixed = {t: (3, t.value) for t in self.head if type(t) is Variable}
            cached = self._canonical = renaming_invariant_key(
                self.head, self.body, fixed
            )
        return cached

    def templates(self) -> Tuple[Template, ...]:
        """This CQ as the one-member template group (cached; DESIGN.md §18)."""
        cached = self._templates
        if cached is None:
            cached = self._templates = partition_terms((self,))
        return cached

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BGPQuery)
            and self.head == other.head
            and self._body_set == other._body_set
        )

    def __hash__(self) -> int:
        return hash((self.head, self._body_set))

    def __len__(self) -> int:
        return len(self.body)

    def __repr__(self) -> str:
        return f"BGPQuery({self})"

    def __str__(self) -> str:
        head = ", ".join(str(t) for t in self.head)
        body = ", ".join(f"{a.s} {a.p} {a.o}" for a in self.body)
        return f"{self.name}({head}) :- {body}"


def _blank_node_renaming(
    head: Sequence[Term], body: Sequence[Triple]
) -> Dict[BlankNode, Variable]:
    """Fresh variables for every blank node used in the query."""
    blanks: List[BlankNode] = []
    seen: Set[BlankNode] = set()
    for atom in body:
        for term in atom:
            if isinstance(term, BlankNode) and term not in seen:
                seen.add(term)
                blanks.append(term)
    for term in head:
        if isinstance(term, BlankNode) and term not in seen:
            seen.add(term)
            blanks.append(term)
    return {b: Variable(f"_bnode_{i}_{b.value}") for i, b in enumerate(blanks)}


def _blank_as_var(term: Term, rename: Dict[BlankNode, Variable]) -> Term:
    if isinstance(term, BlankNode):
        return rename[term]
    return term
