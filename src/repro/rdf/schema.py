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
"""

from __future__ import annotations

import hashlib
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


class RDFSchema:
    """The RDFS constraints of an RDF database, with lazily computed closure.

    Mutators (:meth:`add_subclass` etc.) invalidate the cached closure;
    all query methods recompute it on demand.  Closure-level accessors
    always work on the *closed* relations, which is what both the
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
        self._closure: Optional[_SchemaClosure] = None
        self._fingerprint: Optional[str] = None

    def _mutated(self) -> None:
        """Drop derived state (closure, fingerprint) after any assertion."""
        self._closure = None
        self._fingerprint = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_subclass(self, sub: Term, sup: Term) -> None:
        """Assert ``sub rdfs:subClassOf sup``."""
        self._subclass.setdefault(sub, set()).add(sup)
        self._declared_classes.update((sub, sup))
        self._mutated()

    def add_subproperty(self, sub: Term, sup: Term) -> None:
        """Assert ``sub rdfs:subPropertyOf sup``."""
        self._subproperty.setdefault(sub, set()).add(sup)
        self._declared_properties.update((sub, sup))
        self._mutated()

    def add_domain(self, prop: Term, cls: Term) -> None:
        """Assert ``prop rdfs:domain cls``."""
        self._domain.setdefault(prop, set()).add(cls)
        self._declared_properties.add(prop)
        self._declared_classes.add(cls)
        self._mutated()

    def add_range(self, prop: Term, cls: Term) -> None:
        """Assert ``prop rdfs:range cls``."""
        self._range.setdefault(prop, set()).add(cls)
        self._declared_properties.add(prop)
        self._declared_classes.add(cls)
        self._mutated()

    def declare_class(self, cls: Term) -> None:
        """Register a class not otherwise mentioned in a constraint."""
        self._declared_classes.add(cls)
        self._mutated()

    def declare_property(self, prop: Term) -> None:
        """Register a property not otherwise mentioned in a constraint."""
        self._declared_properties.add(prop)
        self._mutated()

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
        targets = relation.get(source)
        if targets is None or target not in targets:
            return False
        targets.discard(target)
        if not targets:
            del relation[source]
        self._mutated()
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

    def to_triples(self) -> Iterator[Triple]:
        """Yield the asserted (non-closed) constraint triples."""
        for relation, prop in (
            (self._subclass, RDFS_SUBCLASS),
            (self._subproperty, RDFS_SUBPROPERTY),
            (self._domain, RDFS_DOMAIN),
            (self._range, RDFS_RANGE),
        ):
            for source in sorted(relation):
                for target in sorted(relation[source]):
                    yield Triple(source, prop, target)

    # ------------------------------------------------------------------
    # Vocabulary
    # ------------------------------------------------------------------
    @property
    def classes(self) -> FrozenSet[Term]:
        """All classes known to the schema."""
        return self._closed().classes

    @property
    def properties(self) -> FrozenSet[Term]:
        """All (non-built-in) properties known to the schema."""
        return self._closed().properties

    # ------------------------------------------------------------------
    # Closure queries (all answers are w.r.t. the schema closure)
    # ------------------------------------------------------------------
    def subclasses(self, cls: Term) -> FrozenSet[Term]:
        """Strict subclasses of ``cls`` in the closure.

        Strict on acyclic hierarchies; members of a declaration cycle
        are mutually sub- and super-classes of each other (and of
        themselves — see :meth:`equivalent_classes`).
        """
        return frozenset(self._closed().sub_of_class.get(cls, frozenset()))

    def superclasses(self, cls: Term) -> FrozenSet[Term]:
        """Strict superclasses of ``cls`` in the closure (see :meth:`subclasses`)."""
        return frozenset(self._closed().super_of_class.get(cls, frozenset()))

    def subproperties(self, prop: Term) -> FrozenSet[Term]:
        """Strict subproperties of ``prop`` in the closure."""
        return frozenset(self._closed().sub_of_property.get(prop, frozenset()))

    def superproperties(self, prop: Term) -> FrozenSet[Term]:
        """Strict superproperties of ``prop`` in the closure."""
        return frozenset(self._closed().super_of_property.get(prop, frozenset()))

    def domains(self, prop: Term) -> FrozenSet[Term]:
        """All classes ``c`` with ``domain(prop) = c`` in the closure."""
        return frozenset(self._closed().domains.get(prop, frozenset()))

    def ranges(self, prop: Term) -> FrozenSet[Term]:
        """All classes ``c`` with ``range(prop) = c`` in the closure."""
        return frozenset(self._closed().ranges.get(prop, frozenset()))

    def properties_with_domain(self, cls: Term) -> FrozenSet[Term]:
        """Properties whose closed domain includes ``cls``."""
        return frozenset(self._closed().domain_of.get(cls, frozenset()))

    def properties_with_range(self, cls: Term) -> FrozenSet[Term]:
        """Properties whose closed range includes ``cls``."""
        return frozenset(self._closed().range_of.get(cls, frozenset()))

    def equivalent_classes(self, cls: Term) -> FrozenSet[Term]:
        """The declaration-cycle equivalents of ``cls`` (itself included).

        Cyclic ``rdfs:subClassOf`` assertions (``A ⊑ B ⊑ A``) make their
        members mutually equivalent; for a class on no cycle this is the
        singleton ``{cls}``.
        """
        return self._closed().class_cycles.get(cls, frozenset((cls,)))

    def equivalent_properties(self, prop: Term) -> FrozenSet[Term]:
        """The declaration-cycle equivalents of ``prop`` (itself included)."""
        return self._closed().property_cycles.get(prop, frozenset((prop,)))

    def class_cycles(self) -> "tuple[FrozenSet[Term], ...]":
        """All non-trivial subclass declaration cycles, sorted."""
        groups = set(self._closed().class_cycles.values())
        return tuple(sorted(groups, key=sorted))

    def property_cycles(self) -> "tuple[FrozenSet[Term], ...]":
        """All non-trivial subproperty declaration cycles, sorted."""
        groups = set(self._closed().property_cycles.values())
        return tuple(sorted(groups, key=sorted))

    def is_subclass(self, sub: Term, sup: Term) -> bool:
        """True when ``sub ⊑sc sup`` holds in the closure (strictly)."""
        return sup in self._closed().super_of_class.get(sub, frozenset())

    def is_subproperty(self, sub: Term, sup: Term) -> bool:
        """True when ``sub ⊑sp sup`` holds in the closure (strictly)."""
        return sup in self._closed().super_of_property.get(sub, frozenset())

    def closure_triples(self) -> Iterator[Triple]:
        """Yield every constraint triple in the schema closure.

        Used to answer query atoms over the schema itself (reformulation
        rules 8-11 of DESIGN.md) and by the saturation engine when the
        caller wants schema triples materialized alongside facts.
        """
        closed = self._closed()
        for source, targets in closed.super_of_class.items():
            for target in targets:
                yield Triple(source, RDFS_SUBCLASS, target)
        for source, targets in closed.super_of_property.items():
            for target in targets:
                yield Triple(source, RDFS_SUBPROPERTY, target)
        for prop, classes in closed.domains.items():
            for cls in classes:
                yield Triple(prop, RDFS_DOMAIN, cls)
        for prop, classes in closed.ranges.items():
            for cls in classes:
                yield Triple(prop, RDFS_RANGE, cls)

    def fingerprint(self) -> str:
        """A digest identifying this schema's asserted content.

        Covers the asserted constraints *and* the declared vocabulary
        (reformulation rules 5-7 instantiate class/property variables
        over the declared classes and properties, so two schemas with
        the same constraints but different vocabularies reformulate
        differently).  Cached; every mutator drops it.  This is the
        schema component of every reformulation-cache key
        (DESIGN.md §9).
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            for triple in self.to_triples():
                digest.update(
                    f"{triple.s.kind}:{triple.s.value}|{triple.p.value}"
                    f"|{triple.o.kind}:{triple.o.value};".encode("utf-8")
                )
            for tag, members in (
                ("C", self._declared_classes),
                ("P", self._declared_properties),
            ):
                for term in sorted(members):
                    digest.update(f"{tag}:{term.kind}:{term.value};".encode("utf-8"))
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __len__(self) -> int:
        """Number of asserted constraint triples."""
        return sum(
            len(targets)
            for relation in (self._subclass, self._subproperty, self._domain, self._range)
            for targets in relation.values()
        )

    def __repr__(self) -> str:
        return (
            f"RDFSchema(classes={len(self.classes)}, properties={len(self.properties)}, "
            f"constraints={len(self)})"
        )

    # ------------------------------------------------------------------
    # Closure computation
    # ------------------------------------------------------------------
    def _closed(self) -> "_SchemaClosure":
        if self._closure is None:
            self._closure = _SchemaClosure(self)
        return self._closure


class _SchemaClosure:
    """Materialized closure relations of one :class:`RDFSchema` snapshot."""

    def __init__(self, schema: RDFSchema) -> None:
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

        self.super_of_class = super_of_class
        self.sub_of_class = _invert(super_of_class)
        self.super_of_property = super_of_property
        self.sub_of_property = _invert(super_of_property)
        self.class_cycles = class_cycles
        self.property_cycles = property_cycles
        self.domains = domains
        self.ranges = ranges
        self.domain_of = _invert(domains)
        self.range_of = _invert(ranges)
        self.classes = frozenset(schema._declared_classes)
        self.properties = frozenset(schema._declared_properties)


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


__all__ = ["RDFSchema", "split_graph", "RDF_TYPE"]
