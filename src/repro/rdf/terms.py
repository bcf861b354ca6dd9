"""RDF terms: URIs, literals, blank nodes, variables, and triples.

The RDF data model (paper Section 2.1) builds graphs out of triples
``s p o`` whose components are drawn from three disjoint sets of values:
URIs (``U``), blank nodes (``B``) and literals (``L``).  Queries
additionally use variables.  This module defines lightweight, hashable,
interned-friendly term classes and the :class:`Triple` container.

Terms compare by *value*, so two ``URI("http://x")`` objects are equal
and hash identically; this makes sets and dictionary-encoding natural.
"""

from __future__ import annotations

from typing import Union


class Term:
    """Base class of all RDF term kinds.

    Concrete subclasses are :class:`URI`, :class:`Literal`,
    :class:`BlankNode` and :class:`Variable`.  Each carries a single
    string ``value`` and compares by ``(kind, value)``.

    Terms are immutable, so the hash is computed once and cached —
    reformulation puts terms through sets and dictionaries millions of
    times.
    """

    __slots__ = ("value", "_hash")

    #: Integer discriminator used for cheap cross-kind ordering.
    kind: int = -1

    def __init__(self, value: str):
        if not isinstance(value, str):
            raise TypeError(f"term value must be a string, got {type(value).__name__}")
        if not value:
            raise ValueError("term value must be non-empty")
        self.value = value
        self._hash = hash((self.kind, value))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Term)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return (self.kind, self.value) < (other.kind, other.value)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.value!r})"

    @property
    def is_variable(self) -> bool:
        """True for query variables (and for nothing else)."""
        return isinstance(self, Variable)

    @property
    def is_blank(self) -> bool:
        """True for blank nodes."""
        return isinstance(self, BlankNode)

    @property
    def is_constant(self) -> bool:
        """True for URIs and literals (the ground, named values)."""
        return isinstance(self, (URI, Literal))


class URI(Term):
    """A uniform resource identifier, e.g. ``URI("http://example.org/a")``."""

    __slots__ = ()
    kind = 0

    def n3(self) -> str:
        """N-Triples serialization: ``<uri>``."""
        return f"<{self.value}>"

    def __str__(self) -> str:
        return self.value


class Literal(Term):
    """A literal constant (we model plain string literals).

    Typed/language-tagged literals of full RDF are collapsed onto their
    lexical form: the DB fragment of the paper never branches on literal
    datatypes, so the simplification is behaviour-preserving.
    """

    __slots__ = ()
    kind = 1

    def n3(self) -> str:
        """N-Triples serialization: a quoted, escaped string."""
        escaped = (
            self.value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n")
            .replace("\r", "\\r")
            .replace("\t", "\\t")
        )
        return f'"{escaped}"'

    def __str__(self) -> str:
        return f'"{self.value}"'


class BlankNode(Term):
    """A blank node ``_:b``: an unknown URI or literal.

    In queries, blank nodes behave exactly like non-distinguished
    variables (paper Section 2.2), and callers are expected to replace
    them with fresh variables before evaluation; :mod:`repro.query.bgp`
    does so automatically.
    """

    __slots__ = ()
    kind = 2

    def n3(self) -> str:
        """N-Triples serialization: ``_:label``."""
        return f"_:{self.value}"

    def __str__(self) -> str:
        return f"_:{self.value}"


class Variable(Term):
    """A query variable, e.g. ``Variable("x")`` printed as ``?x``."""

    __slots__ = ()
    kind = 3

    def __str__(self) -> str:
        return f"?{self.value}"


class IdRange(Term):
    """A dictionary-code interval ``[lo, hi)`` used as a triple-pattern term.

    The LiteMat interval encoding (DESIGN.md §16) lays out class and
    property codes so that every class's subclass closure (and every
    property's subproperty closure) occupies a contiguous code block.
    An ``IdRange`` in the object position of an ``rdf:type`` atom, or in
    the predicate position of a property atom, asks the engine for a
    single range scan ``lo <= code < hi`` over the encoded column
    instead of a union with one term per sub-class/-property.

    IdRanges appear only in *query* atoms evaluated against an
    interval-encoded derived store; they are never dictionary-encoded
    and never stored.  They participate in canonicalization and
    ordering like any other term via ``(kind, value)``.
    """

    __slots__ = ("lo", "hi")
    kind = 5

    def __init__(self, lo: int, hi: int):
        if not isinstance(lo, int) or not isinstance(hi, int):
            raise TypeError("IdRange bounds must be integers")
        if lo < 0 or hi <= lo:
            raise ValueError(f"empty or negative id range [{lo}, {hi})")
        super().__init__(f"{lo}:{hi}")
        self.lo = lo
        self.hi = hi

    def __contains__(self, code: int) -> bool:
        return self.lo <= code < self.hi

    def __str__(self) -> str:
        return f"[{self.lo}..{self.hi})"

    def __repr__(self) -> str:
        return f"IdRange({self.lo}, {self.hi})"


#: Terms allowed in data triples (no variables).
GroundTerm = Union[URI, Literal, BlankNode]


class Triple:
    """An RDF triple ``s p o`` (or a triple pattern when terms include variables).

    Immutable and hashable; used both for data (ground) and as the atom
    type inside BGP queries.
    """

    __slots__ = ("s", "p", "o", "_hash")

    def __init__(self, s: Term, p: Term, o: Term):
        for position, term in (("subject", s), ("property", p), ("object", o)):
            if not isinstance(term, Term):
                raise TypeError(f"{position} must be a Term, got {type(term).__name__}")
        self.s = s
        self.p = p
        self.o = o
        self._hash = hash((s, p, o))

    def __iter__(self):
        yield self.s
        yield self.p
        yield self.o

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Triple)
            and self.s == other.s
            and self.p == other.p
            and self.o == other.o
        )

    def __hash__(self) -> int:
        return self._hash

    def __lt__(self, other: "Triple") -> bool:
        if not isinstance(other, Triple):
            return NotImplemented
        return (self.s, self.p, self.o) < (other.s, other.p, other.o)

    def __repr__(self) -> str:
        return f"Triple({self.s!r}, {self.p!r}, {self.o!r})"

    def __str__(self) -> str:
        return f"{self.s} {self.p} {self.o} ."

    @property
    def is_ground(self) -> bool:
        """True when no component is a variable (data triples are ground)."""
        return not (self.s.is_variable or self.p.is_variable or self.o.is_variable)

    def variables(self) -> set:
        """The set of :class:`Variable` occurring in the triple."""
        return {t for t in self if t.is_variable}

    def terms(self) -> tuple:
        """The ``(s, p, o)`` tuple."""
        return (self.s, self.p, self.o)
