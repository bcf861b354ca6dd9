"""BGP query covers (paper Definition 3.3) and cover queries (Definition 3.4).

A *cover* of a query ``q(x̄) :- t1, ..., tn`` is a set of non-empty,
pairwise-incomparable *fragments* (subsets of atoms) whose union is the
whole body; when there is more than one fragment, every fragment must
share a variable with some other fragment.  Additionally — the paper's
"in practice" restriction — fragments are required to be internally
join-connected, so that no cover query features a cartesian product.

The *cover query* of a fragment keeps the fragment's atoms and exports
the query's distinguished variables occurring in them plus the
variables shared with other fragments.

The enumeration used by ECov generates exactly the *minimal* connected
covers: every fragment owns at least one private atom (otherwise it is
redundant and the same JUCQ arises from a smaller cover).  Without the
connectivity restriction, their number is the number of minimal covers
of an n-set: 1, 2, 8, 49, 462, 6424 ... for n = 1..6 (OEIS
A046165), which ``tests/test_covers.py`` checks on clique-shaped
queries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Sequence, Set, Tuple

from ..analysis.diagnostics import CoverValidationError, Diagnostic, Severity
from ..query.bgp import BGPQuery
from ..rdf.terms import Variable

#: A fragment is a set of atom indices into the query body.
Fragment = FrozenSet[int]

#: A cover is a set of fragments.
Cover = FrozenSet[Fragment]


def ucq_cover(query: BGPQuery) -> Cover:
    """The single-fragment cover: the classic UCQ reformulation."""
    return frozenset({frozenset(range(len(query.body)))})


def scq_cover(query: BGPQuery) -> Cover:
    """The all-singletons cover: the SCQ reformulation of [13]."""
    return frozenset(frozenset({i}) for i in range(len(query.body)))


def _fragment_label(fragment: Fragment) -> str:
    """Paper-style fragment name, e.g. ``{t1,t3}`` (1-based)."""
    return "{" + ",".join(f"t{i + 1}" for i in sorted(fragment)) + "}"


def _fragment_atoms(query: BGPQuery, fragment: Fragment) -> str:
    """The fragment's triple patterns, rendered for error messages."""
    in_range = [i for i in sorted(fragment) if 0 <= i < len(query.body)]
    atoms = ", ".join(
        f"{query.body[i].s} {query.body[i].p} {query.body[i].o}" for i in in_range
    )
    return f"{_fragment_label(fragment)} = ({atoms})"


def check_cover(query: BGPQuery, cover: Cover) -> List[Diagnostic]:
    """Definition 3.3 checks, reported as diagnostics (stage ``C``).

    Rule codes:

    * ``IR-C01`` — empty cover;
    * ``IR-C02`` — empty fragment;
    * ``IR-C03`` — fragment indexes out of the body's range;
    * ``IR-C04`` — fragment not join-connected (its cover query would
      be a cartesian product);
    * ``IR-C05`` — the union of the fragments misses body atoms;
    * ``IR-C06`` — two fragments are comparable (one contains the
      other);
    * ``IR-C07`` — a fragment shares a variable with no other fragment.

    Messages render the offending fragments *with their triple
    patterns*, and fragments are visited in deterministic order
    (by smallest atom, then size), so the output is stable across runs.
    """

    def finding(code: str, message: str) -> Diagnostic:
        return Diagnostic(
            code=code, severity=Severity.ERROR, message=message, stage="cover",
            subject=query.name,
        )

    if not cover:
        return [finding("IR-C01", "a cover needs at least one fragment")]
    findings: List[Diagnostic] = []
    ordered = sorted(cover, key=lambda f: (min(f, default=-1), len(f), sorted(f)))
    all_atoms = set(range(len(query.body)))
    union: Set[int] = set()
    for fragment in ordered:
        if not fragment:
            findings.append(finding("IR-C02", "fragments must be non-empty"))
            continue
        if not fragment <= all_atoms:
            findings.append(
                finding(
                    "IR-C03",
                    f"fragment {_fragment_label(fragment)} indexes atoms "
                    f"{sorted(fragment - all_atoms)} outside the "
                    f"{len(query.body)}-atom body",
                )
            )
            union |= fragment & all_atoms
            continue
        if not query.is_connected(fragment):
            findings.append(
                finding(
                    "IR-C04",
                    f"fragment {_fragment_atoms(query, fragment)} is not "
                    "join-connected (its cover query would be a cartesian "
                    "product)",
                )
            )
        union |= fragment
    if union != all_atoms:
        missing = sorted(all_atoms - union)
        atoms = "; ".join(
            f"t{i + 1} = ({query.body[i].s} {query.body[i].p} {query.body[i].o})"
            for i in missing
        )
        findings.append(finding("IR-C05", f"cover misses atoms {atoms}"))
    for i, first in enumerate(ordered):
        for second in ordered[i + 1 :]:
            if first and second and (first <= second or second <= first):
                findings.append(
                    finding(
                        "IR-C06",
                        f"fragments {_fragment_atoms(query, first)} and "
                        f"{_fragment_atoms(query, second)} are comparable",
                    )
                )
    connected = [f for f in ordered if f and f <= all_atoms]
    if len(connected) > 1:
        atom_vars = [query.atom_variables(i) for i in range(len(query.body))]
        fragment_vars = [
            set().union(*(atom_vars[i] for i in fragment)) for fragment in connected
        ]
        for i, own_vars in enumerate(fragment_vars):
            other_vars: Set[Variable] = set()
            for j, vars_ in enumerate(fragment_vars):
                if j != i:
                    other_vars |= vars_
            if not own_vars & other_vars:
                findings.append(
                    finding(
                        "IR-C07",
                        f"fragment {_fragment_atoms(query, connected[i])} "
                        "joins with no other fragment",
                    )
                )
    return findings


def validate_cover(query: BGPQuery, cover: Cover) -> None:
    """Raise unless ``cover`` satisfies Definition 3.3.

    Raises :class:`~repro.analysis.diagnostics.CoverValidationError`
    (a ``ValueError``) carrying the full, deterministically ordered
    diagnostic list; messages name the offending fragments' triple
    patterns, not just their indices.
    """
    findings = check_cover(query, cover)
    if findings:
        raise CoverValidationError(findings)


def exported_heads(
    query: BGPQuery, cover: Cover
) -> List[Tuple[Fragment, Tuple[Variable, ...]]]:
    """Each fragment of ``cover`` with the head of its cover query (Def. 3.4).

    Head = the query's distinguished variables appearing in the
    fragment, in the original head order, followed by the join
    variables shared with other fragments (sorted by name for
    determinism).  Fragments come in deterministic order.  A fragment's
    cover query is a function of (fragment, head) alone, which is what
    lets a cover search reuse it across covers.
    """
    atom_vars = [query.atom_variables(i) for i in range(len(query.body))]
    ordered = sorted(cover, key=lambda f: (min(f), len(f), sorted(f)))
    fragment_vars = [set().union(*(atom_vars[i] for i in f)) for f in ordered]
    exported = []
    for index, own_vars in enumerate(fragment_vars):
        other_vars: Set[Variable] = set()
        for other, vars_ in enumerate(fragment_vars):
            if other != index:
                other_vars |= vars_
        head: List[Variable] = []
        for term in query.head:
            if isinstance(term, Variable) and term in own_vars and term not in head:
                head.append(term)
        for var in sorted(own_vars & other_vars):
            if var not in head:
                head.append(var)
        exported.append((ordered[index], tuple(head)))
    return exported


def fragment_query(
    query: BGPQuery, fragment: Fragment, head: Sequence[Variable]
) -> BGPQuery:
    """The fragment's atoms under an exported ``head``, paper-style named."""
    body = [query.body[i] for i in sorted(fragment)]
    label = "".join(f"t{i + 1}" for i in sorted(fragment))
    return BGPQuery(head, body, name=f"{query.name}_{label}")


def cover_query(query: BGPQuery, fragment: Fragment, cover: Cover) -> BGPQuery:
    """The cover query ``q_f`` of ``fragment`` w.r.t. ``cover`` (Def. 3.4)."""
    heads = dict(exported_heads(query, cover | {fragment}))
    return fragment_query(query, fragment, heads[fragment])


def cover_queries(query: BGPQuery, cover: Cover) -> List[BGPQuery]:
    """All cover queries of ``cover``, in deterministic fragment order."""
    return [
        fragment_query(query, fragment, head)
        for fragment, head in exported_heads(query, cover)
    ]


def connected_fragments(query: BGPQuery, max_size: int = None) -> List[Fragment]:
    """Every join-connected non-empty subset of atom indices.

    Grown by BFS over the join graph so only connected subsets are ever
    materialized (the number of arbitrary subsets would be 2^n).
    """
    adjacency = query.join_graph()
    n = len(query.body)
    limit = n if max_size is None else max_size
    found: Set[Fragment] = set()
    # Seed with singletons; expand each found set by one adjacent atom.
    frontier: List[Set[int]] = [{i} for i in range(n)]
    for seed in frontier:
        found.add(frozenset(seed))
    queue = list(frontier)
    while queue:
        current = queue.pop()
        if len(current) >= limit:
            continue
        neighbours: Set[int] = set()
        for index in current:
            neighbours |= adjacency[index]
        for extra in neighbours - current:
            grown = frozenset(current | {extra})
            if grown not in found:
                found.add(grown)
                queue.append(set(grown))
    return sorted(found, key=lambda f: (len(f), sorted(f)))


def enumerate_covers(query: BGPQuery) -> Iterator[Cover]:
    """All minimal, connected covers of ``query`` (the ECov search space).

    Yields covers satisfying Definition 3.3 plus: fragments internally
    connected, and minimality (every fragment has a private atom).  For
    a single-atom query the unique cover is yielded.  Enumeration is by
    backtracking on the smallest uncovered atom; minimality is enforced
    by tracking, per chosen fragment, whether it still owns a private
    atom.
    """
    n = len(query.body)
    fragments = connected_fragments(query)
    by_atom: Dict[int, List[Fragment]] = {i: [] for i in range(n)}
    for fragment in fragments:
        for index in fragment:
            by_atom[index].append(fragment)

    all_atoms = frozenset(range(n))
    emitted: Set[Cover] = set()

    def backtrack(chosen: List[Fragment], covered: FrozenSet[int]) -> Iterator[Cover]:
        if covered == all_atoms:
            cover = frozenset(chosen)
            if cover in emitted:
                return
            try:
                validate_cover(query, cover)
            except ValueError:
                return
            emitted.add(cover)
            yield cover
            return
        pivot = min(all_atoms - covered)
        for fragment in by_atom[pivot]:
            # Each new fragment must add something (pivot qualifies) and
            # must not swallow a previously chosen fragment entirely,
            # nor be contained in one (incomparability + minimality).
            if any(fragment <= f or f <= fragment for f in chosen):
                continue
            # Minimality: no previously chosen fragment may lose its
            # last private atom to this one.
            if _kills_privacy(chosen, fragment):
                continue
            yield from backtrack(chosen + [fragment], covered | fragment)

    yield from backtrack([], frozenset())


def _kills_privacy(chosen: Sequence[Fragment], fragment: Fragment) -> bool:
    """Would adding ``fragment`` leave some chosen fragment without private atoms?"""
    for other in chosen:
        others_union: Set[int] = set(fragment)
        for third in chosen:
            if third is not other:
                others_union |= third
        if other <= others_union:
            return True
    return False


def count_covers(query: BGPQuery) -> int:
    """Size of the ECov search space for ``query``."""
    return sum(1 for _ in enumerate_covers(query))


def format_cover(query: BGPQuery, cover: Cover) -> str:
    """Human-readable cover, e.g. ``{t1,t3} {t2}`` (1-based like the paper)."""
    ordered = sorted(cover, key=lambda f: (min(f), len(f), sorted(f)))
    return " ".join(
        "{" + ",".join(f"t{i + 1}" for i in sorted(fragment)) + "}"
        for fragment in ordered
    )
