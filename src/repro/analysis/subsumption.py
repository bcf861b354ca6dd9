"""Shape-level UCQ subsumption: containment decided on the factors.

A reformulation is a *factorized union*: per skeleton, every atom has a
tuple of alternatives, and the union terms are the rows of the cross
product.  Rows whose atoms put variables in the same cells form a
:class:`Shape`; they differ only in which constants fill the constant
cells.  This module decides ``t ⊑ t'`` between the rows of two shapes
without building either term (DESIGN.md §13):

* a :class:`Layout` is the variable structure all rows of a shape
  share — per atom, a variable symbol, ``None`` (a constant *slot*) or
  :data:`TYPE` (a constant ``rdf:type`` predicate) in each cell;
* the constants a row puts in an atom's slots are that atom's
  *pattern*; a shape lists, per atom, the patterns its rows draw from
  (a :class:`Domain`);
* a symbolic homomorphism (:class:`Hom`) maps the variables of a
  keeper layout onto variables *or slots* of a removed layout, and says
  which removed slots each keeper slot must equal.  It is searched once
  per pair of layouts; between two shapes it then costs one dictionary
  lookup per pattern (:func:`_cover`) to know which removed rows have
  their keeper row, and one addition per row to name it.

:func:`subsume` returns, per eliminated row, the keeper row and the
:class:`Certificate` (keeper shape, removed shape, mapping, pattern
table) that proves the containment; the IR verifier re-derives every
certificate's constraints from its mapping alone
(:func:`repro.analysis.verifier.check_subsumption`).
"""

from __future__ import annotations

from itertools import product
from operator import attrgetter, itemgetter
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..rdf.terms import Term, Triple, Variable
from ..rdf.vocabulary import RDF_TYPE

__all__ = [
    "Certificate",
    "DEFAULT_MAX_TERMS",
    "Domain",
    "Hom",
    "Layout",
    "Shape",
    "Subsumption",
    "TYPE",
    "cells_of",
    "layout_of",
    "subsume",
]

#: Unions larger than this (after the empty and duplicate rows are gone)
#: keep those two passes only.  The shape-level pass would afford more,
#: but lifting the cap changes which union terms the cost model sees,
#: and with them the covers GCov picks.
DEFAULT_MAX_TERMS = 512

#: Layout cell of a constant ``rdf:type`` predicate.  Class atoms and
#: property atoms never map onto one another, so the predicate that
#: tells them apart belongs to the layout, not to the pattern.
TYPE = "a"

#: A reference to a constant of the removed row: ``(atom, component)``
#: of its pattern, ``(-1, number)`` of its head constants, or
#: ``(-2, term)`` for a literal term.
Ref = Tuple[int, object]
_TYPE_REF: Ref = (-2, RDF_TYPE)


def cells_of(triple: Triple, rename: Callable[[Variable], object]) -> Tuple:
    """The layout cells of one atom: ``rename(variable)``, None or TYPE."""
    s, p, o = triple.s, triple.p, triple.o
    return (
        rename(s) if type(s) is Variable else None,
        rename(p) if type(p) is Variable else TYPE if p == RDF_TYPE else None,
        rename(o) if type(o) is Variable else None,
    )


class Layout:
    """The variable structure shared by every row of a shape.

    ``head`` holds a variable symbol or None (a constant) per head
    position; ``atoms`` three cells per body atom.  Variable symbols are
    opaque hashables (never tuples: those are :data:`Ref`), compared
    only within one layout.  Layouts are interned (:func:`layout_of`),
    so the homomorphism memo can hang off the object.
    """

    __slots__ = ("head", "atoms", "variables", "slots", "_incoming")

    def __init__(self, head: Tuple, atoms: Tuple[Tuple, ...]) -> None:
        self.head = head
        self.atoms = atoms
        symbols = {c for c in head if c is not None}
        for atom in atoms:
            symbols.update(c for c in atom if c is not None and c is not TYPE)
        self.variables = len(symbols)
        #: Per atom and cell, the cell's component number in the atom's
        #: pattern (None for a variable or TYPE cell).
        slots = []
        for atom in atoms:
            numbers = iter(range(3))
            slots.append(tuple(next(numbers) if c is None else None for c in atom))
        self.slots = tuple(slots)
        #: Source layout -> (the homomorphisms from it into this layout,
        #: whether finding them took a search).
        self._incoming: Dict["Layout", Tuple[Tuple["Hom", ...], bool]] = {}


#: Interned layouts.  A layout is pure structure — no schema, no data,
#: no constant — so one table serves every union of the process; what it
#: saves is the homomorphism searches each layout remembers.  Emptied
#: when full: a memo, refilled by whatever is asked next.
_LAYOUTS: Dict[Tuple, Layout] = {}
_MAX_LAYOUTS = 4096


def layout_of(head: Tuple, atoms: Tuple[Tuple, ...]) -> Layout:
    """The one :class:`Layout` with this head and these atom cells."""
    key = (head, atoms)
    layout = _LAYOUTS.get(key)
    if layout is None:
        if len(_LAYOUTS) >= _MAX_LAYOUTS:
            _LAYOUTS.clear()
        layout = _LAYOUTS[key] = Layout(head, atoms)
    return layout


class Domain:
    """The patterns one atom of a shape draws from, in row order.

    Built from listed patterns, or from the alternative triples of one
    layout class of an atom (``cells`` says which of their terms are the
    pattern); the latter are only read when a homomorphism asks.
    """

    __slots__ = ("_patterns", "_triples", "_cells", "_index", "repeats")

    def __init__(
        self,
        patterns: Optional[Sequence[Tuple[Term, ...]]] = None,
        triples: Sequence[Triple] = (),
        cells: Tuple = (),
    ) -> None:
        self._patterns = patterns
        self._triples = triples
        self._cells = cells
        self._index: Optional[Dict[Tuple[Term, ...], int]] = None
        #: Some pattern occurs twice (a cyclic schema lists a class among
        #: its own subclasses); listed patterns are distinct.
        self.repeats = len(triples) > 1 and len(set(triples)) != len(triples)

    @property
    def patterns(self) -> Sequence[Tuple[Term, ...]]:
        patterns = self._patterns
        if patterns is None:
            names = [n for n, cell in zip("spo", self._cells) if cell is None]
            if len(names) == 1:
                read = attrgetter(names[0])
                patterns = [(read(triple),) for triple in self._triples]
            elif names:
                patterns = list(map(attrgetter(*names), self._triples))
            else:
                patterns = [()] * len(self._triples)
            self._patterns = patterns
        return patterns

    @property
    def index(self) -> Dict[Tuple[Term, ...], int]:
        """Pattern -> its first position."""
        index = self._index
        if index is None:
            index = self._index = {}
            for at, pattern in enumerate(self.patterns):
                index.setdefault(pattern, at)
        return index


class Shape:
    """Rows of one layout: a head and, per atom, a domain of patterns.

    A row is named by the position of its pattern in each domain.  A
    shape built from factors is the full product of its domains, and the
    row at ``positions`` is union term ``base + Σ parts[j][positions[j]]``.
    A shape built from listed terms has only the ``listed`` rows.
    """

    __slots__ = ("layout", "head_constants", "domains", "parts", "base",
                 "empty", "listed")

    def __init__(
        self,
        layout: Layout,
        head_constants: Tuple[Term, ...],
        domains: Tuple[Domain, ...],
        parts: Tuple[Sequence[int], ...] = (),
        base: int = 0,
        empty: bool = False,
        listed: Optional[Dict[Tuple[int, ...], int]] = None,
    ) -> None:
        self.layout = layout
        self.head_constants = head_constants
        self.domains = domains
        self.parts = parts
        self.base = base
        #: Rows keep an RDFS constraint atom: they match no data, and
        #: only their duplicates are looked for.
        self.empty = empty
        #: Positions -> union term, when the rows are not a full product.
        self.listed = listed

    def number(self, positions: Sequence[int]) -> Optional[int]:
        """The union term at ``positions``, None if there is no such row."""
        if self.listed is not None:
            return self.listed.get(tuple(positions))
        number = self.base
        for part, at in zip(self.parts, positions):
            number += part[at]
        return number

    def within(self, columns: Sequence[Sequence[int]]) -> Iterator[Tuple[int, ...]]:
        """The rows whose ``j``-th position is one of ``columns[j]``."""
        if self.listed is None:
            return product(*columns)
        allowed = [frozenset(column) for column in columns]
        return (
            positions
            for positions in self.listed
            if all(at in column for at, column in zip(positions, allowed))
        )


class Hom:
    """A symbolic homomorphism from a keeper layout into a removed one.

    ``pi[i]`` is the removed atom the keeper's atom ``i`` lands on and
    ``theta`` maps each keeper variable to a removed variable or to a
    :data:`Ref`.  Everything else is derived from those two: which
    removed components spell each keeper pattern (``into``), which
    removed head constants spell the keeper's (``head_pulls``), and
    which removed constants the mapping forces to be equal — between
    head constants and literals (``fixed``), within one atom or against
    a fixed constant (``local``), or across two atoms (``cross``).
    """

    __slots__ = ("pi", "theta", "renaming", "head_pulls", "into", "fixed",
                 "local", "cross")

    def __init__(
        self,
        source: Layout,
        target: Layout,
        pi: Tuple[int, ...],
        theta: Dict[object, object],
        equalities: List[Tuple[Ref, Ref]],
    ) -> None:
        self.pi = pi
        self.theta = theta
        images = list(theta.values())
        #: A bijection between the two layouts' variables: only such a
        #: mapping can relate two rows that are equal up to renaming.
        self.renaming = (
            source.variables == target.variables
            and all(type(image) is not tuple for image in images)
            and len(set(images)) == len(images)
        )
        constants = [k for k, cell in enumerate(target.head) if cell is None]
        self.head_pulls = tuple(
            constants.index(k) for k, cell in enumerate(source.head) if cell is None
        )
        into: List[List[Tuple[int, Optional[Callable]]]] = [[] for _ in target.atoms]
        for i, j in enumerate(self.pi):
            picked = tuple(
                target.slots[j][cell]
                for cell in range(3)
                if source.atoms[i][cell] is None
            )
            width = sum(1 for slot in target.slots[j] if slot is not None)
            into[j].append((i, None if len(picked) == width else _picker(picked)))
        self.fixed: List[Tuple[Ref, Ref]] = []
        local: List[List[Tuple[int, Ref]]] = [[] for _ in target.atoms]
        self.cross: List[Tuple[Ref, Ref]] = []
        for left, right in equalities:
            if left[0] < 0:
                left, right = right, left
            if left[0] < 0:
                self.fixed.append((left, right))
            elif right[0] < 0 or right[0] == left[0]:
                local[left[0]].append((left[1], right))
            else:
                self.cross.append((left, right))
        self.local = tuple(tuple(tests) for tests in local)
        self.into = tuple(tuple(pullers) for pullers in into)


def _picker(components: Tuple[int, ...]) -> Callable[[Tuple], Tuple]:
    """``pattern -> tuple(pattern[k] for k in components)``."""
    if not components:
        return lambda pattern: ()
    if len(components) == 1:
        (only,) = components
        return lambda pattern: (pattern[only],)
    return itemgetter(*components)


# ----------------------------------------------------------------------
# The symbolic search
# ----------------------------------------------------------------------
def _unify(bound: object, image: object, equalities: List[Tuple[Ref, Ref]]) -> bool:
    """Make two images of one keeper variable agree, or report failure."""
    if bound == image:
        return True
    if type(bound) is not tuple or type(image) is not tuple:
        return False  # two distinct variables, or a variable and a constant
    if bound[0] == -2 and image[0] == -2:
        return False  # two different literal terms
    equalities.append((bound, image))
    return True


def _head_seed(
    source: Layout, target: Layout
) -> Optional[Tuple[Dict[object, object], List[Tuple[Ref, Ref]]]]:
    """The bindings forced by mapping heads positionally, or None."""
    if len(source.head) != len(target.head):
        return None
    theta: Dict[object, object] = {}
    equalities: List[Tuple[Ref, Ref]] = []
    number = 0
    for cell, image in zip(source.head, target.head):
        if image is None:
            image = (-1, number)
            number += 1
        if cell is None:
            if type(image) is not tuple:
                return None  # a head constant cannot become a variable
        elif cell not in theta:
            theta[cell] = image
        elif not _unify(theta[cell], image, equalities):
            return None
    return theta, equalities


def _may_land(atom: Tuple, image: Tuple, theta: Dict[object, object]) -> bool:
    """Cheap necessary condition for a keeper atom to map onto ``image``."""
    for cell, onto in zip(atom, image):
        if cell is None or cell is TYPE:
            if onto is not cell:
                return False
        else:
            bound = theta.get(cell)
            if bound is not None and type(bound) is not tuple and bound != onto:
                return False
    return True


def _homomorphisms(
    source: Layout, target: Layout, counters: Dict[str, int]
) -> Tuple[Hom, ...]:
    """Every symbolic homomorphism ``source → target`` but the identity
    of a layout onto itself.

    Memoized on the target, together with whether the answer took a
    search: a union is charged the searches it needs, not the ones the
    process happened not to have run yet.
    """
    known = target._incoming.get(source)
    if known is None:
        known = target._incoming[source] = _search(source, target)
    counters["checks"] += known[1]
    return known[0]


def _search(source: Layout, target: Layout) -> Tuple[Tuple[Hom, ...], bool]:
    """``(homomorphisms, whether the cheap conditions left any to search for)``."""
    seed = _head_seed(source, target)
    if seed is None:
        return (), False
    theta, equalities = seed
    candidates = [
        [j for j, image in enumerate(target.atoms) if _may_land(atom, image, theta)]
        for atom in source.atoms
    ]
    if not all(candidates):
        return (), False
    own = tuple(range(len(candidates)))
    if source is target and all(options == [i] for i, options in zip(own, candidates)):
        return (), False  # only the identity is left
    homs: List[Hom] = []
    pi: List[int] = []

    def extend(i: int, theta: Dict[object, object], equalities: list) -> None:
        if i == len(candidates):
            if source is not target or tuple(pi) != own:
                homs.append(Hom(source, target, tuple(pi), theta, equalities))
            return
        atom = source.atoms[i]
        for j in candidates[i]:
            image = target.atoms[j]
            slots = target.slots[j]
            extended = dict(theta)
            required = list(equalities)
            for cell, onto, slot in zip(atom, image, slots):
                if cell is None or cell is TYPE:
                    continue  # _may_land matched constant cells already
                if onto is None:
                    onto = (j, slot)
                elif onto is TYPE:
                    onto = _TYPE_REF
                bound = extended.get(cell)
                if bound is None:
                    extended[cell] = onto
                elif not _unify(bound, onto, required):
                    break
            else:
                pi.append(j)
                extend(i + 1, extended, required)
                pi.pop()

    extend(0, theta, equalities)
    return tuple(homs), True


# ----------------------------------------------------------------------
# From a homomorphism to the rows it covers
# ----------------------------------------------------------------------
#: Per removed atom: None (every pattern, no keeper atom lands here) or
#: the (pattern position, keeper pattern position per landing atom)
#: pairs whose keeper patterns exist.
Entries = Tuple[Optional[Tuple[Tuple[int, Tuple[int, ...]], ...]], ...]


class Certificate:
    """Why the rows of one shape are contained in rows of another.

    For every ``(position, keeper positions)`` entry of every removed
    atom, applying ``hom`` to the keeper row assembled from the keeper
    positions yields atoms of the removed row assembled from the
    positions — so the removed row is contained in that keeper row.
    """

    __slots__ = ("keeper", "removed", "hom", "entries")

    def __init__(self, keeper: Shape, removed: Shape, hom: Hom, entries: Entries):
        self.keeper = keeper
        self.removed = removed
        self.hom = hom
        self.entries = entries

    def pairs(self) -> Iterator[Tuple[int, int]]:
        """``(removed row, keeper row)`` for every covered row."""
        keeper, removed, hom = self.keeper, self.removed, self.hom
        tables = [None if found is None else dict(found) for found in self.entries]
        columns = [
            range(len(domain.patterns)) if table is None else table
            for domain, table in zip(removed.domains, tables)
        ]
        there = [0] * len(keeper.domains)
        for positions in removed.within(columns):
            if hom.cross and not self._cross_holds(positions):
                continue
            for j, table in enumerate(tables):
                if table is not None:
                    for (i, _), at in zip(hom.into[j], table[positions[j]]):
                        there[i] = at
            a = keeper.number(there)
            if a is not None:
                yield removed.number(positions), a

    def _cross_holds(self, positions: Sequence[int]) -> bool:
        domains = self.removed.domains
        for (j, k), (other, component) in self.hom.cross:
            left = domains[j].patterns[positions[j]][k]
            if left != domains[other].patterns[positions[other]][component]:
                return False
        return True


def _constant(ref: Ref, shape: Shape) -> Term:
    """The value of a head-constant or literal reference."""
    return shape.head_constants[ref[1]] if ref[0] == -1 else ref[1]


def _cover(hom: Hom, keeper: Shape, removed: Shape) -> Optional[Entries]:
    """Which patterns of ``removed`` have their keeper patterns, or None."""
    for left, right in hom.fixed:
        if _constant(left, removed) != _constant(right, removed):
            return None
    entries = []
    for j, pullers in enumerate(hom.into):
        tests = hom.local[j]
        if not pullers and not tests:
            entries.append(None)
            continue
        domain = removed.domains[j]
        # The same domain, read whole: every pattern is its own keeper
        # pattern — unless it repeats one, whose first copy is the keeper.
        sources = [
            (
                None
                if keeper.domains[i] is domain and pick is None and not domain.repeats
                else keeper.domains[i].index,
                pick,
            )
            for i, pick in pullers
        ]
        found = []
        for at, pattern in enumerate(domain.patterns):
            for k, ref in tests:
                other = pattern[ref[1]] if ref[0] == j else _constant(ref, removed)
                if pattern[k] != other:
                    break
            else:
                picked = []
                for index, pick in sources:
                    if index is None:
                        picked.append(at)
                        continue
                    there = index.get(pattern if pick is None else pick(pattern))
                    if there is None:
                        break
                    picked.append(there)
                else:
                    found.append((at, tuple(picked)))
        if not found:
            return None
        entries.append(tuple(found))
    return tuple(entries)


# ----------------------------------------------------------------------
# The pass
# ----------------------------------------------------------------------
class Subsumption:
    """What :func:`subsume` decided.

    ``merged`` maps each row that repeats an earlier row — same layout,
    same head, same patterns — to that row; ``eliminated`` maps every
    other eliminated row to ``(keeper row, number of the certificate
    proving it)``.  ``duplicates`` are the rows among both that the
    union's own constructor would have merged into an earlier row.
    """

    __slots__ = ("eliminated", "merged", "duplicates", "certificates", "checks")

    def __init__(
        self,
        eliminated: Dict[int, Tuple[int, int]],
        merged: Dict[int, int],
        duplicates: Set[int],
        certificates: List[Certificate],
        checks: int,
    ) -> None:
        self.eliminated = eliminated
        self.merged = merged
        self.duplicates = duplicates
        self.certificates = certificates
        self.checks = checks


def _copies(
    shapes: Sequence[Shape], form: Callable[[int], object]
) -> Tuple[Dict[int, int], Set[int]]:
    """Rows of same-layout, same-head product shapes that repeat a row.

    Two skeletons reach the same term when a variable the head does not
    export is instantiated (``x type C`` lists the subclass ``C'`` that
    ``x type C'`` starts from), and a cyclic schema lists a class among
    its own subclasses.  Returns each such row's earlier copy, and the
    copies ``form`` tells apart from every earlier one: the same term
    all the same, but one the union's own test would not have merged.
    """
    groups: Dict[Tuple, List[int]] = {}
    for shape in shapes:
        keys = product(*[domain.patterns for domain in shape.domains])
        for key, parts in zip(keys, product(*shape.parts)):
            groups.setdefault(key, []).append(shape.base + sum(parts))
    merged: Dict[int, int] = {}
    loose: Set[int] = set()
    for rows in groups.values():
        if len(rows) > 1:
            rows.sort()
            forms: Dict[object, int] = {}
            for row in rows:
                earlier = forms.setdefault(form(row), row)
                if earlier != row:
                    merged[row] = earlier
                elif row != rows[0]:
                    merged[row] = rows[0]
                    loose.add(row)
    return merged, loose


def subsume(
    shapes: Sequence[Shape],
    form: Callable[[int], object],
    renamings_only: bool = False,
) -> Subsumption:
    """Eliminate every row a sibling row makes redundant.

    A row survives iff no other row strictly contains it and no
    *earlier* row is equivalent to it — the antichain the pairwise
    sweep over the listed terms computes, first representative kept.
    With ``renamings_only`` (the union is past the subsumption cap)
    only duplicates are eliminated: rows the union's own constructor
    would merge into an earlier row.  ``form(row)`` is the key that
    constructor merges on; it is asked about rows that repeat a row
    outright, or that a bijective renaming maps into one another, and
    it has the last word (the constructor's test may miss some).
    """
    counters = {"checks": 0}
    by_head: Dict[Tuple[Layout, Tuple[Term, ...]], List[Shape]] = {}
    for shape in shapes:
        by_head.setdefault((shape.layout, shape.head_constants), []).append(shape)
    merged: Dict[int, int] = {}
    #: Copies the union's constructor would have kept: rows like any
    #: other until the end, when the earlier copy is found to contain them.
    loose: Dict[int, int] = {}
    for siblings in by_head.values():
        if siblings[0].listed is None and (
            len(siblings) > 1
            or any(domain.repeats for domain in siblings[0].domains)
        ):
            copies, kept = _copies(siblings, form)
            for row in kept:
                loose[row] = copies.pop(row)
            merged.update(copies)
    duplicates = set(merged)
    sources = list({shape.layout: None for shape in shapes})
    incoming: Dict[Layout, List[Hom]] = {}
    certificates: List[Certificate] = []
    for removed in shapes:
        target = removed.layout
        homs = incoming.get(target)
        if homs is None:
            homs = incoming[target] = [
                (source, hom)
                for source in sources
                for hom in _homomorphisms(source, target, counters)
            ]
        for source, hom in homs:
            if (renamings_only or removed.empty) and not hom.renaming:
                continue
            head = removed.head_constants
            if len(hom.head_pulls) != len(head):
                head = tuple(head[number] for number in hom.head_pulls)
            for keeper in by_head.get((source, head), ()):
                entries = _cover(hom, keeper, removed)
                if entries is not None:
                    certificates.append(Certificate(keeper, removed, hom, entries))

    #: Removed row -> (keeper row, certificate), every containment found.
    above: Dict[int, List[Tuple[int, int]]] = {}
    for number, certificate in enumerate(certificates):
        for b, a in certificate.pairs():
            # A merged row is gone either way, and its first copy keeps
            # whatever it would have kept.
            if a != b and b not in merged and a not in merged:
                above.setdefault(b, []).append((a, number))
    eliminated: Dict[int, Tuple[int, int]] = {}
    for b, keepers in above.items():
        for a, number in keepers:
            if certificates[number].hom.renaming and a < b and form(a) == form(b):
                duplicates.add(b)
                eliminated[b] = (a, number)
                break
        else:
            if renamings_only or certificates[keepers[0][1]].removed.empty:
                continue  # such rows are only merged into an earlier copy
            for a, number in keepers:
                # An earlier row, or one this row does not contain in turn.
                if a < b or all(row != b for row, _ in above.get(a, ())):
                    eliminated[b] = (a, number)
                    break
    if not renamings_only:
        for row, earlier in loose.items():
            if row not in eliminated:
                merged[row] = earlier
    used = sorted({number for _a, number in eliminated.values()})
    renumbered = {number: at for at, number in enumerate(used)}
    return Subsumption(
        eliminated={b: (a, renumbered[n]) for b, (a, n) in eliminated.items()},
        merged=merged,
        duplicates=duplicates,
        certificates=[certificates[number] for number in used],
        checks=counters["checks"],
    )
