"""LiteMat-style interval dictionary encoding (DESIGN.md §16).

Per PAPERS.md ("LiteMat: a scalable, cost-efficient inference encoding
scheme"), the reformulation fan-out the whole paper fights — one union
term per subclass of every ``?x rdf:type C`` atom — disappears if class
identifiers are assigned *hierarchy-aware*: lay out the dictionary
codes of the classes by a DFS preorder of the subclass hierarchy, and
every class's RDFS subclass closure occupies a contiguous code interval
``[lo(C), hi(C))``.  The atom then evaluates as a single range scan
over the encoded object column instead of a union.  The same layout
applies to properties and the subproperty hierarchy.

Two departures from the idealized scheme keep it exact on real
schemas:

* **DAGs.**  A class with several superclasses can live in only one
  parent's code block (its *primary* parent — the spanning-forest
  parent that reaches it first in the deterministic DFS).  Every other
  ancestor's closure is then a union of a handful of *merged runs* of
  codes rather than one interval; :meth:`IntervalEncoding.class_ranges`
  returns the full tuple of maximal runs, which the planner turns into
  one range-scan union term each.  On tree-shaped hierarchies (LUBM)
  every tuple has length 1.
* **Cycles.**  Cyclic declarations (``A ⊑ B ⊑ A``) are collapsed: the
  members of a strongly connected component are *equivalent* (matching
  the closure policy of :mod:`repro.rdf.schema`), receive consecutive
  codes, and share one range set covering the whole group plus its
  descendants.  The collapse is recorded as a human-readable diagnostic
  per cycle; ``on_cycle="reject"`` raises :class:`CyclicHierarchyError`
  instead for callers that consider cycles schema corruption.

An encoding is a pure function of the schema — it is stamped with
``RDFSchema.fingerprint()`` and never mutated, so the fingerprint alone
says which codes a plan embeds.  Renumbering on schema change goes
through :class:`IntervalAssigner`, which rebuilds the derived store
copy-on-write (the old dictionary and table are never touched, so
concurrent readers of the previous store stay consistent).  A
data-only write keeps the encoding and extends the derived store.

This module is kept dependency-light and ``mypy --strict``-clean; the
numpy bulk re-encode of the fact table lives in
:mod:`repro.reasoning.litemat`.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Mapping, Optional, Sequence, Set, Tuple

from ..rdf.schema import RDFSchema, _strongly_connected_components
from ..rdf.terms import Term
from ..rdf.vocabulary import RDFS_SUBCLASS, RDFS_SUBPROPERTY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from ..reasoning.litemat import IntervalStore
    from .database import RDFDatabase, Snapshot

#: A half-open code interval ``[lo, hi)``.
Range = Tuple[int, int]


class CyclicHierarchyError(ValueError):
    """Cyclic subclass/subproperty declarations under ``on_cycle="reject"``.

    Carries the offending equivalence groups so callers can report
    exactly which declarations to repair.
    """

    def __init__(self, message: str, cycles: Tuple[FrozenSet[Term], ...]) -> None:
        super().__init__(message)
        self.cycles = cycles


def _merge_runs(codes: Sequence[int]) -> Tuple[Range, ...]:
    """Merge a sorted code sequence into maximal half-open runs."""
    runs: List[Range] = []
    for code in codes:
        if runs and runs[-1][1] == code:
            runs[-1] = (runs[-1][0], code + 1)
        else:
            runs.append((code, code + 1))
    return tuple(runs)


def _hierarchy_layout(
    direct: Mapping[Term, Set[Term]],
    vocabulary: FrozenSet[Term],
    offset: int,
) -> Tuple[
    List[Term],
    Dict[Term, int],
    Dict[Term, Tuple[Range, ...]],
    List[FrozenSet[Term]],
]:
    """Interval layout of one ``sub → super`` hierarchy.

    Returns ``(order, code_of, ranges_of, cycles)``: the terms in code
    order starting at ``offset``, the code of each term, the merged
    closure runs of each term, and the non-trivial cycles found (each a
    frozenset of equivalent terms).
    """
    components_raw: List[List[Term]] = [
        list(component) for component in _strongly_connected_components(dict(direct))
    ]
    covered: Set[Term] = set()
    for component in components_raw:
        covered.update(component)
    # Vocabulary members that no declaration touches become isolated
    # singleton components (leaf intervals of width 1).
    for node in sorted(vocabulary - covered):
        components_raw.append([node])
    count = len(components_raw)
    component_of: Dict[Term, int] = {}
    for i, component in enumerate(components_raw):
        for node in component:
            component_of[node] = i
    children: List[Set[int]] = [set() for _ in range(count)]
    parents: List[Set[int]] = [set() for _ in range(count)]
    for sub, sups in direct.items():
        i = component_of[sub]
        for sup in sups:
            j = component_of[sup]
            if i != j:
                children[j].add(i)
                parents[i].add(j)
    cycles: List[FrozenSet[Term]] = []
    for component in components_raw:
        if len(component) > 1 or any(
            node in direct.get(node, set()) for node in component
        ):
            cycles.append(frozenset(component))
    # Deterministic spanning-forest DFS preorder: code assignment.  A
    # multi-parent component is placed under whichever parent expands it
    # first; the others recover it through merged runs.
    order: List[Term] = []
    code_of: Dict[Term, int] = {}
    visited: Set[int] = set()
    roots = sorted(
        (i for i in range(count) if not parents[i]),
        key=lambda i: min(components_raw[i]),
    )
    for root in roots:
        stack: List[int] = [root]
        while stack:
            i = stack.pop()
            if i in visited:
                continue
            visited.add(i)
            for node in sorted(components_raw[i]):
                code_of[node] = offset + len(order)
                order.append(node)
            for child in sorted(
                children[i],
                key=lambda j: min(components_raw[j]),
                reverse=True,
            ):
                if child not in visited:
                    stack.append(child)
    # Closure code sets, children before parents.  Tarjan emits a
    # component only after everything it reaches (its supers), so
    # children always carry a larger index than their parents and a
    # descending sweep sees every child's set completed; the appended
    # isolated components have no edges at all.
    closure_codes: List[Set[int]] = [set() for _ in range(count)]
    for i in range(count - 1, -1, -1):
        codes = {code_of[node] for node in components_raw[i]}
        for child in children[i]:
            codes.update(closure_codes[child])
        closure_codes[i] = codes
    ranges_of: Dict[Term, Tuple[Range, ...]] = {}
    for i, component in enumerate(components_raw):
        runs = _merge_runs(sorted(closure_codes[i]))
        for node in component:
            ranges_of[node] = runs
    return order, code_of, ranges_of, cycles


class IntervalEncoding:
    """One immutable hierarchy-aware code layout for one schema state.

    Classes occupy codes ``[0, len(class_order))``, properties the next
    block; the derived store's dictionary is seeded with exactly this
    order, so dictionary codes of schema vocabulary *are* the interval
    codes.
    """

    __slots__ = (
        "schema_fingerprint",
        "class_order",
        "property_order",
        "cycle_diagnostics",
        "_class_code",
        "_property_code",
        "_class_ranges",
        "_property_ranges",
    )

    def __init__(
        self,
        schema_fingerprint: str,
        class_order: Tuple[Term, ...],
        property_order: Tuple[Term, ...],
        class_code: Dict[Term, int],
        property_code: Dict[Term, int],
        class_ranges: Dict[Term, Tuple[Range, ...]],
        property_ranges: Dict[Term, Tuple[Range, ...]],
        cycle_diagnostics: Tuple[str, ...],
    ) -> None:
        self.schema_fingerprint = schema_fingerprint
        self.class_order = class_order
        self.property_order = property_order
        self.cycle_diagnostics = cycle_diagnostics
        self._class_code = class_code
        self._property_code = property_code
        self._class_ranges = class_ranges
        self._property_ranges = property_ranges

    @classmethod
    def from_schema(
        cls, schema: RDFSchema, on_cycle: str = "collapse"
    ) -> "IntervalEncoding":
        """Lay out the schema's class and property hierarchies.

        ``on_cycle`` is ``"collapse"`` (cycle members become one
        equivalence group sharing an interval, with a diagnostic) or
        ``"reject"`` (raise :class:`CyclicHierarchyError`).
        """
        if on_cycle not in ("collapse", "reject"):
            raise ValueError(f"on_cycle must be 'collapse' or 'reject', got {on_cycle!r}")
        direct_classes: Dict[Term, Set[Term]] = {}
        direct_properties: Dict[Term, Set[Term]] = {}
        for triple in schema.to_triples():
            if triple.p == RDFS_SUBCLASS:
                direct_classes.setdefault(triple.s, set()).add(triple.o)
            elif triple.p == RDFS_SUBPROPERTY:
                direct_properties.setdefault(triple.s, set()).add(triple.o)
        class_order, class_code, class_ranges, class_cycles = _hierarchy_layout(
            direct_classes, schema.classes, 0
        )
        property_order, property_code, property_ranges, property_cycles = (
            _hierarchy_layout(direct_properties, schema.properties, len(class_order))
        )
        diagnostics: List[str] = []
        for label, cycle_groups in (
            ("subclass", class_cycles),
            ("subproperty", property_cycles),
        ):
            for group in sorted(cycle_groups, key=sorted):
                members = " ≡ ".join(str(term) for term in sorted(group))
                diagnostics.append(
                    f"cyclic rdfs:{label} declarations collapsed to an "
                    f"equivalence group sharing one interval: {members}"
                )
        if diagnostics and on_cycle == "reject":
            raise CyclicHierarchyError(
                "cyclic hierarchy declarations rejected by the interval "
                "assigner: " + "; ".join(diagnostics),
                tuple(class_cycles) + tuple(property_cycles),
            )
        return cls(
            schema_fingerprint=schema.fingerprint(),
            class_order=tuple(class_order),
            property_order=tuple(property_order),
            class_code=class_code,
            property_code=property_code,
            class_ranges=class_ranges,
            property_ranges=property_ranges,
            cycle_diagnostics=tuple(diagnostics),
        )

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    @property
    def leading_terms(self) -> Tuple[Term, ...]:
        """Schema vocabulary in code order: the derived dictionary seed."""
        return self.class_order + self.property_order

    def class_code(self, cls: Term) -> Optional[int]:
        """The interval code of a class, or None for unknown classes."""
        return self._class_code.get(cls)

    def property_code(self, prop: Term) -> Optional[int]:
        """The interval code of a property, or None for unknown properties."""
        return self._property_code.get(prop)

    def class_ranges(self, cls: Term) -> Optional[Tuple[Range, ...]]:
        """Merged code runs covering the subclass closure of ``cls``.

        ``None`` for classes the schema does not know (no entailments
        exist for them, so callers keep the original constant atom).
        """
        return self._class_ranges.get(cls)

    def property_ranges(self, prop: Term) -> Optional[Tuple[Range, ...]]:
        """Merged code runs covering the subproperty closure of ``prop``."""
        return self._property_ranges.get(prop)

    def covered_class_codes(self, cls: Term) -> Set[int]:
        """Every code inside ``class_ranges(cls)`` (test/verification aid)."""
        ranges = self._class_ranges.get(cls, ())
        return {code for lo, hi in ranges for code in range(lo, hi)}

    def covered_property_codes(self, prop: Term) -> Set[int]:
        """Every code inside ``property_ranges(prop)``."""
        ranges = self._property_ranges.get(prop, ())
        return {code for lo, hi in ranges for code in range(lo, hi)}

    def stats(self) -> Dict[str, int]:
        """Layout shape summary (reporting / DESIGN.md §16 numbers)."""
        multi_class = sum(1 for runs in self._class_ranges.values() if len(runs) > 1)
        multi_prop = sum(1 for runs in self._property_ranges.values() if len(runs) > 1)
        max_runs = max(
            [len(runs) for runs in self._class_ranges.values()]
            + [len(runs) for runs in self._property_ranges.values()]
            + [0]
        )
        return {
            "classes": len(self.class_order),
            "properties": len(self.property_order),
            "multi_interval_classes": multi_class,
            "multi_interval_properties": multi_prop,
            "max_ranges": max_runs,
            "cycles": len(self.cycle_diagnostics),
        }

    def __repr__(self) -> str:
        return (
            f"IntervalEncoding({len(self.class_order)} classes, "
            f"{len(self.property_order)} properties, "
            f"{len(self.cycle_diagnostics)} cycles collapsed)"
        )


class IntervalAssigner:
    """Owns the interval-encoded derived store of one base database.

    The published store is keyed on the base database's
    :class:`~repro.storage.database.Snapshot`.  Republishing is
    copy-on-write: when the snapshot moved, the next :meth:`current`
    call derives a *new* store and publishes it by swapping references
    under the lock — the superseded store's table is never mutated, so
    readers still evaluating against it stay consistent.  A schema
    change re-encodes from scratch; a data-only write keeps the encoding
    and extends the held store by the new rows (DESIGN.md §20).

    Thread-safe; covered by ``tools/lint_locks.py``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: ``(snapshot, store)`` as published.
        self._published: Optional[Tuple["Snapshot", "IntervalStore"]] = None

    def current(
        self, database: "RDFDatabase"
    ) -> Tuple[IntervalEncoding, "RDFDatabase", "Snapshot"]:
        """The ``(encoding, derived store, snapshot)`` for ``database``.

        The snapshot is the one the store was built at, so what anything
        built over the store (an engine, a plan embedding its codes) is
        keyed on; it changes whenever the store does.
        """
        snapshot = database.snapshot()
        published = self._published
        if published is not None and published[0] == snapshot:
            store = published[1]
            return store.encoding, store.database, snapshot
        # Derive outside the lock: readers of the published store must
        # not block on it.
        from ..reasoning.litemat import interval_encode_database

        held = None
        if published is not None and published[0].schema == snapshot.schema:
            held = published[1]
        derived = interval_encode_database(database, held=held)
        with self._lock:
            published = self._published
            if published is None or published[0] != snapshot:
                published = self._published = (snapshot, derived)
        snapshot, store = published
        return store.encoding, store.database, snapshot
