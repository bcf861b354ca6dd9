"""RDF Schema constraints and their closure.

An :class:`RDFSchema` holds the four constraint kinds of the paper's
Figure 2 (bottom): subclass, subproperty, domain and range.  Following
the paper's experimental setup (Section 5.1: "RDFS constraints are kept
in memory, while RDF facts are stored in a Triples(s,p,o) table"), the
schema is a standalone in-memory object shared by the saturation engine
and the reformulation algorithm.

The *closure* of the schema is its saturation under the schema-level
entailment rules of the DB fragment:

* subclass and subproperty transitivity (rdfs11, rdfs5);
* domain/range inheritance along subproperties
  (``p ⊑sp p', domain(p') = c  ⟹  domain(p) = c``);
* domain/range widening along subclasses
  (``domain(p) = c, c ⊑sc c'  ⟹  domain(p) = c'``).

Both saturation and reformulation consult the closure, which guarantees
they agree (the golden equivalence tested in
``tests/test_reformulation_equivalence.py``).

The schema is edited in place (:class:`RDFSchema`) but read as a value,
the :class:`FrozenSchema` ``snapshot()`` returns: a reader that takes
one value sees one schema however many edits land meanwhile.
"""

from __future__ import annotations

import hashlib
import threading
from contextlib import contextmanager
from typing import Dict, FrozenSet, Iterable, Iterator, Optional, Set

from .terms import Term, Triple, URI
from .vocabulary import (
    RDF_TYPE,
    RDFS_DOMAIN,
    RDFS_RANGE,
    RDFS_SUBCLASS,
    RDFS_SUBPROPERTY,
    SCHEMA_PROPERTIES,
)


def _strongly_connected_components(direct: Dict[Term, Set[Term]]) -> list:
    """Strongly connected components of the relation graph (iterative Tarjan).

    Components are emitted in reverse topological order of the
    condensation: every component is emitted after all components it can
    reach.  Deterministic: nodes and successors are visited in sorted
    order, and members within a component are sorted.
    """
    nodes: Set[Term] = set(direct)
    for targets in direct.values():
        nodes.update(targets)
    index_of: Dict[Term, int] = {}
    lowlink: Dict[Term, int] = {}
    on_stack: Set[Term] = set()
    stack: list = []
    components: list = []
    counter = 0
    for root in sorted(nodes):
        if root in index_of:
            continue
        work = [(root, iter(sorted(direct.get(root, ()))))]
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for succ in successors:
                if succ not in index_of:
                    index_of[succ] = lowlink[succ] = counter
                    counter += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(sorted(direct.get(succ, ())))))
                    advanced = True
                    break
                if succ in on_stack:
                    lowlink[node] = min(lowlink[node], index_of[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                components.append(sorted(component))
    return components


def _closure_and_cycles(
    direct: Dict[Term, Set[Term]],
) -> "tuple[Dict[Term, Set[Term]], Dict[Term, FrozenSet[Term]]]":
    """Transitive closure plus the cycle-equivalence groups of a relation.

    Built on SCC condensation, so cyclic declarations (``A ⊑ B ⊑ A``)
    neither hang nor mis-order the walk: all members of a cycle are
    treated as *equivalent* — each member's closure contains every
    member of its component (itself included: ``A ⊑ A`` is entailed by
    going around the cycle) plus everything any member reaches.  The
    second result maps each member of a non-trivial cycle (length ≥ 2,
    or a self-loop) to the frozenset of its equivalents.
    """
    components = _strongly_connected_components(direct)
    component_of: Dict[Term, int] = {}
    for i, component in enumerate(components):
        for node in component:
            component_of[node] = i
    cycles: Dict[Term, FrozenSet[Term]] = {}
    reach: list = []
    for i, component in enumerate(components):
        out: Set[Term] = set()
        cyclic = len(component) > 1 or any(
            node in direct.get(node, ()) for node in component
        )
        if cyclic:
            members = frozenset(component)
            out.update(members)
            for node in component:
                cycles[node] = members
        for node in component:
            for succ in direct.get(node, ()):
                j = component_of[succ]
                if j != i:
                    # Successor components were emitted earlier, so
                    # their reach sets are already complete.
                    out.update(components[j])
                    out.update(reach[j])
        reach.append(out)
    closure: Dict[Term, Set[Term]] = {}
    for start in direct:
        reached = reach[component_of[start]]
        if reached:
            closure[start] = set(reached)
        else:
            closure[start] = set()
    return closure, cycles


def _invert(relation: Dict[Term, Set[Term]]) -> Dict[Term, Set[Term]]:
    """Invert a binary relation given as adjacency sets."""
    inverse: Dict[Term, Set[Term]] = {}
    for source, targets in relation.items():
        for target in targets:
            inverse.setdefault(target, set()).add(source)
    return inverse


class _SchemaReads:
    """What a schema answers: every read asks the one
    :class:`FrozenSchema` that ``snapshot()`` returns."""

    # ------------------------------------------------------------------
    # Vocabulary
    # ------------------------------------------------------------------
    @property
    def classes(self) -> FrozenSet[Term]:
        """All classes known to the schema."""
        return self.snapshot()._classes

    @property
    def properties(self) -> FrozenSet[Term]:
        """All (non-built-in) properties known to the schema."""
        return self.snapshot()._properties

    # ------------------------------------------------------------------
    # Closure queries (all answers are w.r.t. the schema closure)
    # ------------------------------------------------------------------
    def subclasses(self, cls: Term) -> FrozenSet[Term]:
        """Strict subclasses of ``cls`` in the closure.

        Strict on acyclic hierarchies; members of a declaration cycle
        are mutually sub- and super-classes of each other (and of
        themselves — see :meth:`equivalent_classes`).
        """
        return frozenset(self.snapshot()._sub_of_class.get(cls, frozenset()))

    def superclasses(self, cls: Term) -> FrozenSet[Term]:
        """Strict superclasses of ``cls`` in the closure (see :meth:`subclasses`)."""
        return frozenset(self.snapshot()._super_of_class.get(cls, frozenset()))

    def subproperties(self, prop: Term) -> FrozenSet[Term]:
        """Strict subproperties of ``prop`` in the closure."""
        return frozenset(self.snapshot()._sub_of_property.get(prop, frozenset()))

    def superproperties(self, prop: Term) -> FrozenSet[Term]:
        """Strict superproperties of ``prop`` in the closure."""
        return frozenset(self.snapshot()._super_of_property.get(prop, frozenset()))

    def domains(self, prop: Term) -> FrozenSet[Term]:
        """All classes ``c`` with ``domain(prop) = c`` in the closure."""
        return frozenset(self.snapshot()._domains.get(prop, frozenset()))

    def ranges(self, prop: Term) -> FrozenSet[Term]:
        """All classes ``c`` with ``range(prop) = c`` in the closure."""
        return frozenset(self.snapshot()._ranges.get(prop, frozenset()))

    def properties_with_domain(self, cls: Term) -> FrozenSet[Term]:
        """Properties whose closed domain includes ``cls``."""
        return frozenset(self.snapshot()._domain_of.get(cls, frozenset()))

    def properties_with_range(self, cls: Term) -> FrozenSet[Term]:
        """Properties whose closed range includes ``cls``."""
        return frozenset(self.snapshot()._range_of.get(cls, frozenset()))

    def equivalent_classes(self, cls: Term) -> FrozenSet[Term]:
        """The declaration-cycle equivalents of ``cls`` (itself included).

        Cyclic ``rdfs:subClassOf`` assertions (``A ⊑ B ⊑ A``) make their
        members mutually equivalent; for a class on no cycle this is the
        singleton ``{cls}``.
        """
        return self.snapshot()._class_cycles.get(cls, frozenset((cls,)))

    def equivalent_properties(self, prop: Term) -> FrozenSet[Term]:
        """The declaration-cycle equivalents of ``prop`` (itself included)."""
        return self.snapshot()._property_cycles.get(prop, frozenset((prop,)))

    def class_cycles(self) -> "tuple[FrozenSet[Term], ...]":
        """All non-trivial subclass declaration cycles, sorted."""
        groups = set(self.snapshot()._class_cycles.values())
        return tuple(sorted(groups, key=sorted))

    def property_cycles(self) -> "tuple[FrozenSet[Term], ...]":
        """All non-trivial subproperty declaration cycles, sorted."""
        groups = set(self.snapshot()._property_cycles.values())
        return tuple(sorted(groups, key=sorted))

    def is_subclass(self, sub: Term, sup: Term) -> bool:
        """True when ``sub ⊑sc sup`` holds in the closure (strictly)."""
        return sup in self.snapshot()._super_of_class.get(sub, frozenset())

    def is_subproperty(self, sub: Term, sup: Term) -> bool:
        """True when ``sub ⊑sp sup`` holds in the closure (strictly)."""
        return sup in self.snapshot()._super_of_property.get(sub, frozenset())

    def closure_triples(self) -> Iterator[Triple]:
        """Yield every constraint triple in the schema closure.

        Used to answer query atoms over the schema itself (reformulation
        rules 8-11 of DESIGN.md) and by the saturation engine when the
        caller wants schema triples materialized alongside facts.
        """
        closed = self.snapshot()
        for source, targets in closed._super_of_class.items():
            for target in targets:
                yield Triple(source, RDFS_SUBCLASS, target)
        for source, targets in closed._super_of_property.items():
            for target in targets:
                yield Triple(source, RDFS_SUBPROPERTY, target)
        for prop, classes in closed._domains.items():
            for cls in classes:
                yield Triple(prop, RDFS_DOMAIN, cls)
        for prop, classes in closed._ranges.items():
            for cls in classes:
                yield Triple(prop, RDFS_RANGE, cls)

    def fingerprint(self) -> str:
        """A digest identifying this schema's asserted content.

        Covers the asserted constraints *and* the declared vocabulary
        (reformulation rules 5-7 instantiate class/property variables
        over the declared classes and properties, so two schemas with
        the same constraints but different vocabularies reformulate
        differently).  This is the schema component of every
        reformulation-cache key (DESIGN.md §9).
        """
        return self.snapshot().digest

    def to_triples(self) -> Iterator[Triple]:
        """Yield the asserted (non-closed) constraint triples."""
        return iter(self.snapshot().triples)

    def __len__(self) -> int:
        """Number of asserted constraint triples."""
        return len(self.snapshot().triples)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(classes={len(self.classes)}, "
            f"properties={len(self.properties)}, constraints={len(self)})"
        )


class FrozenSchema(_SchemaReads):
    """One immutable state of an :class:`RDFSchema`: its asserted
    constraints and vocabulary, with their closure and fingerprint
    computed once.  Later edits build another value (DESIGN.md §9)."""

    def __init__(self, schema: "RDFSchema") -> None:
        super_of_class, class_cycles = _closure_and_cycles(schema._subclass)
        super_of_property, property_cycles = _closure_and_cycles(schema._subproperty)

        # Close domains/ranges: inherit down the subproperty hierarchy,
        # widen up the subclass hierarchy.
        domains: Dict[Term, Set[Term]] = {}
        ranges: Dict[Term, Set[Term]] = {}
        properties = set(schema._declared_properties)
        for prop in properties:
            ancestors = {prop} | super_of_property.get(prop, set())
            for target, source in ((domains, schema._domain), (ranges, schema._range)):
                closed: Set[Term] = set()
                for ancestor in ancestors:
                    for cls in source.get(ancestor, ()):
                        closed.add(cls)
                        closed.update(super_of_class.get(cls, ()))
                if closed:
                    target[prop] = closed

        self._super_of_class = super_of_class
        self._sub_of_class = _invert(super_of_class)
        self._super_of_property = super_of_property
        self._sub_of_property = _invert(super_of_property)
        self._class_cycles = class_cycles
        self._property_cycles = property_cycles
        self._domains = domains
        self._ranges = ranges
        self._domain_of = _invert(domains)
        self._range_of = _invert(ranges)
        self._classes = frozenset(schema._declared_classes)
        self._properties = frozenset(schema._declared_properties)
        #: The asserted constraints, sorted.
        self.triples = tuple(
            Triple(source, prop, target)
            for relation, prop in (
                (schema._subclass, RDFS_SUBCLASS),
                (schema._subproperty, RDFS_SUBPROPERTY),
                (schema._domain, RDFS_DOMAIN),
                (schema._range, RDFS_RANGE),
            )
            for source in sorted(relation)
            for target in sorted(relation[source])
        )
        digest = hashlib.blake2b(digest_size=16)
        for triple in self.triples:
            digest.update(
                f"{triple.s.kind}:{triple.s.value}|{triple.p.value}"
                f"|{triple.o.kind}:{triple.o.value};".encode("utf-8")
            )
        for tag, members in (("C", self._classes), ("P", self._properties)):
            for term in sorted(members):
                digest.update(f"{tag}:{term.kind}:{term.value};".encode("utf-8"))
        #: What :meth:`fingerprint` returns.
        self.digest = digest.hexdigest()
        #: Every term a reformulation over this schema can put in a
        #: head, sorted: the declared vocabulary, the constraints' terms,
        #: ``rdf:type`` and the four constraint properties.
        self.terms = tuple(
            sorted(
                self._classes
                | self._properties
                | {term for triple in self.triples for term in triple}
                | SCHEMA_PROPERTIES
                | {RDF_TYPE}
            )
        )

    def snapshot(self) -> "FrozenSchema":
        """The value itself: it never changes."""
        return self


class RDFSchema(_SchemaReads):
    """The editable RDFS constraints of an RDF database.

    Mutators (:meth:`add_subclass` etc.) edit in place and
    :meth:`snapshot` serializes with them on one lock.  Every read is
    answered by the value ``snapshot`` returns, so closure-level
    accessors work on the *closed* relations, which is what both the
    saturation rules and the reformulation rules require.
    """

    def __init__(self) -> None:
        # Direct (asserted) relations.
        self._subclass: Dict[Term, Set[Term]] = {}
        self._subproperty: Dict[Term, Set[Term]] = {}
        self._domain: Dict[Term, Set[Term]] = {}
        self._range: Dict[Term, Set[Term]] = {}
        self._declared_classes: Set[Term] = set()
        self._declared_properties: Set[Term] = set()
        self._lock = threading.Lock()
        #: The current state's value; None after an edit.
        self._frozen: Optional[FrozenSchema] = None

    def snapshot(self) -> FrozenSchema:
        """The immutable value of the schema as it is now."""
        frozen = self._frozen  # an edit in flight has not landed yet
        if frozen is not None:
            return frozen
        with self._lock:
            if self._frozen is None:
                self._frozen = FrozenSchema(self)
            return self._frozen

    @contextmanager
    def _editing(self) -> Iterator[None]:
        """Edit the asserted relations under the lock; the next
        :meth:`snapshot` builds a new value."""
        with self._lock:
            yield
            self._frozen = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_subclass(self, sub: Term, sup: Term) -> None:
        """Assert ``sub rdfs:subClassOf sup``."""
        with self._editing():
            self._subclass.setdefault(sub, set()).add(sup)
            self._declared_classes.update((sub, sup))

    def add_subproperty(self, sub: Term, sup: Term) -> None:
        """Assert ``sub rdfs:subPropertyOf sup``."""
        with self._editing():
            self._subproperty.setdefault(sub, set()).add(sup)
            self._declared_properties.update((sub, sup))

    def add_domain(self, prop: Term, cls: Term) -> None:
        """Assert ``prop rdfs:domain cls``."""
        with self._editing():
            self._domain.setdefault(prop, set()).add(cls)
            self._declared_properties.add(prop)
            self._declared_classes.add(cls)

    def add_range(self, prop: Term, cls: Term) -> None:
        """Assert ``prop rdfs:range cls``."""
        with self._editing():
            self._range.setdefault(prop, set()).add(cls)
            self._declared_properties.add(prop)
            self._declared_classes.add(cls)

    def declare_class(self, cls: Term) -> None:
        """Register a class not otherwise mentioned in a constraint."""
        with self._editing():
            self._declared_classes.add(cls)

    def declare_property(self, prop: Term) -> None:
        """Register a property not otherwise mentioned in a constraint."""
        with self._editing():
            self._declared_properties.add(prop)

    def add_triple(self, triple: Triple) -> bool:
        """Add a schema triple; returns False when the triple is not a constraint."""
        if triple.p == RDFS_SUBCLASS:
            self.add_subclass(triple.s, triple.o)
        elif triple.p == RDFS_SUBPROPERTY:
            self.add_subproperty(triple.s, triple.o)
        elif triple.p == RDFS_DOMAIN:
            self.add_domain(triple.s, triple.o)
        elif triple.p == RDFS_RANGE:
            self.add_range(triple.s, triple.o)
        else:
            return False
        return True

    # ------------------------------------------------------------------
    # Retraction
    # ------------------------------------------------------------------
    def _remove(self, relation: Dict[Term, Set[Term]], source: Term, target: Term) -> bool:
        with self._editing():
            targets = relation.get(source)
            if targets is None or target not in targets:
                return False
            targets.discard(target)
            if not targets:
                del relation[source]
            return True

    def remove_subclass(self, sub: Term, sup: Term) -> bool:
        """Retract ``sub rdfs:subClassOf sup``; True when it was asserted.

        Only the *asserted* constraint is removed — consequences that
        remain derivable from other assertions stay in the closure.
        The terms remain declared vocabulary.
        """
        return self._remove(self._subclass, sub, sup)

    def remove_subproperty(self, sub: Term, sup: Term) -> bool:
        """Retract ``sub rdfs:subPropertyOf sup``; True when asserted."""
        return self._remove(self._subproperty, sub, sup)

    def remove_domain(self, prop: Term, cls: Term) -> bool:
        """Retract ``prop rdfs:domain cls``; True when it was asserted."""
        return self._remove(self._domain, prop, cls)

    def remove_range(self, prop: Term, cls: Term) -> bool:
        """Retract ``prop rdfs:range cls``; True when it was asserted."""
        return self._remove(self._range, prop, cls)

    def remove_triple(self, triple: Triple) -> bool:
        """Retract a constraint triple; False when it is not a constraint
        or was never asserted."""
        if triple.p == RDFS_SUBCLASS:
            return self.remove_subclass(triple.s, triple.o)
        if triple.p == RDFS_SUBPROPERTY:
            return self.remove_subproperty(triple.s, triple.o)
        if triple.p == RDFS_DOMAIN:
            return self.remove_domain(triple.s, triple.o)
        if triple.p == RDFS_RANGE:
            return self.remove_range(triple.s, triple.o)
        return False

    @classmethod
    def from_triples(cls, triples: Iterable[Triple]) -> "RDFSchema":
        """Build a schema from the constraint triples in ``triples``.

        Non-constraint triples are ignored, so feeding a whole graph is
        safe; pair with :func:`split_graph` to also recover the facts.
        """
        schema = cls()
        for triple in triples:
            schema.add_triple(triple)
        return schema

def split_graph(triples: Iterable[Triple]):
    """Separate an RDF graph into ``(schema, facts)``.

    Constraint triples (property in :data:`SCHEMA_PROPERTIES`) populate
    an :class:`RDFSchema`; every other triple — including ``rdf:type``
    assertions — is a fact.  Mirrors the paper's storage layout.
    """
    schema = RDFSchema()
    facts = []
    for triple in triples:
        if isinstance(triple.p, URI) and triple.p in SCHEMA_PROPERTIES:
            schema.add_triple(triple)
        else:
            facts.append(triple)
    return schema, facts


__all__ = ["FrozenSchema", "RDFSchema", "split_graph", "RDF_TYPE"]
