"""Template groups: a union's terms partitioned by shape (DESIGN.md §18).

RDFS reformulation turns one atom into hundreds of union terms that
differ only in a class or property constant.  Two terms have the same
*shape* when, after renaming variables by first occurrence, they agree
everywhere except in which constants (or :class:`IdRange` intervals)
fill the constant positions.  A :class:`Template` is one such family,
described so an engine can evaluate it with one join pipeline:

* per body atom, the variable layout and the *distinct* constant
  patterns the members put there — member ``m`` uses pattern number
  ``tag`` of each atom;
* the ``members`` table, one row per term: its tag for every atom that
  needs one, then the index of each head constant that varies.

An atom needs no tag when the family is a full cross product in it
(every pattern of the atom occurs with every combination of the rest):
the union over that atom's patterns then distributes over the join, so
which pattern a row came from never matters.  What is left in
``members`` is exactly what an engine must filter on (combinations a
minimizer removed) and look up (head constants, one-to-many: domain and
range rules emit identical bodies with different head constants).

The partition depends on nothing but the terms, so the immutable query
objects compute it once and keep it (``UCQ.templates()``,
``BGPQuery.templates()``): a plan-cached query never recomputes it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..rdf.terms import Term, Variable

if TYPE_CHECKING:
    from .bgp import BGPQuery

#: An atom's constants by position; ``None`` where it has a variable.
ConstantPattern = Tuple[Optional[Term], Optional[Term], Optional[Term]]
#: An atom's variables by position; ``None`` where it has a constant.
VariableLayout = Tuple[Optional[str], Optional[str], Optional[str]]


class Template:
    """Same-shaped union terms, ready for one join pipeline.  Immutable."""

    __slots__ = ("size", "atoms", "patterns", "tagged", "members",
                 "head", "head_constants")

    def __init__(
        self,
        size: int,
        atoms: Tuple[VariableLayout, ...],
        patterns: Tuple[Tuple[ConstantPattern, ...], ...],
        tagged: Tuple[int, ...],
        members: np.ndarray,
        head: Tuple[Union[str, int, Term], ...],
        head_constants: Tuple[Tuple[Term, ...], ...],
    ) -> None:
        #: Number of union terms in the family.
        self.size = size
        #: Per body atom, its (renamed) variables by position.
        self.atoms = atoms
        #: Per body atom, the distinct constant patterns of the members.
        self.patterns = patterns
        #: The atoms whose pattern number matters: ``members``' first columns.
        self.tagged = tagged
        #: Distinct rows of (tag per ``tagged`` atom, index per
        #: ``head_constants`` entry); read-only.
        self.members = members
        #: Per head position: a variable name, a column of ``members``
        #: (a constant that varies), or the constant all members share.
        self.head = head
        #: Per varying head constant, the terms its indices stand for.
        self.head_constants = head_constants


def partition_terms(cqs: Sequence["BGPQuery"]) -> Tuple[Template, ...]:
    """Group union terms by shape, in order of first appearance."""
    builders: Dict[Tuple, _Builder] = {}
    for cq in cqs:
        names: Dict[Variable, str] = {}
        layouts: List[VariableLayout] = []
        patterns: List[ConstantPattern] = []
        for atom in cq.body:
            layout: List[Optional[str]] = []
            constants: List[Optional[Term]] = []
            for term in (atom.s, atom.p, atom.o):
                if type(term) is Variable:
                    name = names.get(term)
                    if name is None:
                        name = names[term] = f"v{len(names)}"
                    layout.append(name)
                    constants.append(None)
                else:
                    layout.append(None)
                    constants.append(term)
            layouts.append((layout[0], layout[1], layout[2]))
            patterns.append((constants[0], constants[1], constants[2]))
        head = tuple(names[t] if type(t) is Variable else None for t in cq.head)
        shape = (tuple(layouts), head)
        builder = builders.get(shape)
        if builder is None:
            builder = builders[shape] = _Builder(len(layouts), head.count(None))
        builder.add([*patterns, *(t for t in cq.head if type(t) is not Variable)])
    return tuple(
        builder.finish(layouts, head) for (layouts, head), builder in builders.items()
    )


class _Builder:
    """Accumulates one shape's members, then factors out what is independent."""

    def __init__(self, atom_count: int, head_constant_count: int) -> None:
        self.atom_count = atom_count
        #: Per column (atoms, then head constants): value -> number.
        self.numbering: List[Dict] = [
            {} for _ in range(atom_count + head_constant_count)
        ]
        self.rows: List[Tuple[int, ...]] = []

    def add(self, values: Sequence) -> None:
        self.rows.append(
            tuple(
                numbers.setdefault(value, len(numbers))
                for numbers, value in zip(self.numbering, values)
            )
        )

    def finish(
        self, layouts: Tuple[VariableLayout, ...], head_shape: Tuple
    ) -> Template:
        sizes = [len(numbers) for numbers in self.numbering]
        # A column with one value says nothing; project it away first.
        kept = [c for c, size in enumerate(sizes) if size > 1]
        rows = {tuple(row[c] for c in kept) for row in self.rows}
        # An atom in which the family is a full cross product needs no tag.
        for column in [c for c in kept if c < self.atom_count]:
            at = kept.index(column)
            rest = {row[:at] + row[at + 1:] for row in rows}
            if len(rest) * sizes[column] == len(rows):
                rows = rest
                kept.remove(column)
        tagged = tuple(c for c in kept if c < self.atom_count)
        members = np.array(sorted(rows), dtype=np.int64).reshape(len(rows), len(kept))
        members.flags.writeable = False
        head: List[Union[str, int, Term]] = []
        head_constants: List[Tuple[Term, ...]] = []
        column = self.atom_count
        for name in head_shape:
            if name is not None:
                head.append(name)
                continue
            if column in kept:
                head.append(kept.index(column))
                head_constants.append(tuple(self.numbering[column]))
            else:
                head.append(next(iter(self.numbering[column])))
            column += 1
        return Template(
            size=len(self.rows),
            atoms=layouts,
            patterns=tuple(tuple(self.numbering[c]) for c in range(self.atom_count)),
            tagged=tagged,
            members=members,
            head=tuple(head),
            head_constants=tuple(head_constants),
        )
