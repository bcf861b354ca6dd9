"""Physical operators: scan, join, union, duplicate elimination.

These are the σ/π/⋈/∪ primitives the paper assumes of its evaluation
engine ("any system capable of evaluating selections, projections,
joins and unions").  Joins come in two flavours — hash(-partition) and
sort-merge — both vectorized over the packed join keys; the two native
engine personalities pick different flavours.

Every operator takes an optional ``metrics`` recorder
(:class:`repro.telemetry.MetricsRecorder`) and bumps the row counters
documented in DESIGN.md §7; with the default ``metrics=None`` the only
added work is one ``is None`` test per call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..query.templates import ConstantPattern
from ..rdf.terms import IdRange, Triple, Variable
from ..storage.dictionary import Dictionary
from ..storage.triple_table import Pattern, TripleTable, index_for_pattern, index_for_range
from ..telemetry.metrics import MetricsRecorder
from .relation import Relation, dedup_rows, pack_columns


#: An encoded scan: codes by position (``None`` = unbound) and, for a
#: LiteMat interval atom, the position and term of its ``IdRange``.
EncodedPattern = Tuple[Pattern, Optional[int], Optional[IdRange]]


def encode_pattern(
    constants: ConstantPattern, dictionary: Dictionary
) -> Optional[EncodedPattern]:
    """Dictionary codes for an atom's constants; ``None`` if one is unknown.

    A constant absent from the dictionary cannot match any stored
    triple.  An :class:`~repro.rdf.terms.IdRange` stays unbound in the
    pattern and is returned beside it (at most one per atom).
    """
    codes: List[Optional[int]] = []
    range_position: Optional[int] = None
    range_term: Optional[IdRange] = None
    for position, term in enumerate(constants):
        if term is None:
            codes.append(None)
        elif isinstance(term, IdRange):
            if range_term is not None:
                raise ValueError(f"at most one IdRange per atom: {constants}")
            codes.append(None)
            range_position = position
            range_term = term
        else:
            code = dictionary.lookup(term)
            if code is None:
                return None
            codes.append(code)
    return (codes[0], codes[1], codes[2]), range_position, range_term


def match_pattern(
    constants: ConstantPattern,
    table: TripleTable,
    dictionary: Dictionary,
    metrics: Optional[MetricsRecorder] = None,
) -> np.ndarray:
    """The triples matching an atom's constants, as ``(n, 3)`` code rows.

    Constants are dictionary-encoded and pushed into the index lookup; a
    constant unknown to the dictionary matches nothing.  An
    :class:`~repro.rdf.terms.IdRange` (the LiteMat interval atom,
    DESIGN.md §16) becomes a single contiguous range scan
    ``lo <= code < hi`` on its position.
    """
    encoded = encode_pattern(constants, dictionary)
    if encoded is None:
        if metrics is not None:
            metrics.inc("scan.atoms")
            metrics.inc("scan.empty")
        return np.empty((0, 3), dtype=np.int64)
    pattern, range_position, range_term = encoded
    if range_term is None:
        rows = table.match(pattern)
        index_name = index_for_pattern(pattern)
    else:
        assert range_position is not None
        rows = table.match_range(pattern, range_position, range_term.lo, range_term.hi)
        index_name = index_for_range(pattern, range_position)
        if metrics is not None:
            metrics.inc("scan.range_atoms")
    if metrics is not None:
        metrics.inc("scan.atoms")
        metrics.inc("scan.rows", rows.shape[0])
        metrics.inc(f"scan.index.{index_name}", rows.shape[0])
    return rows


def bind_variables(
    rows: np.ndarray,
    names: Sequence[Optional[str]],
    metrics: Optional[MetricsRecorder] = None,
    tag: Optional[Tuple[str, np.ndarray]] = None,
) -> Relation:
    """Matched ``(n, 3)`` rows as a relation over an atom's variables.

    ``names`` gives the variable at each position (``None`` for a
    constant).  A variable repeated inside the atom (``x p x``) becomes
    an equality selection and one column.  ``tag`` appends a named
    column aligned with ``rows`` (grouped union evaluation labels each
    stacked scan with the pattern it came from, DESIGN.md §18).
    """
    first: dict = {}
    keep_mask = None
    for position, name in enumerate(names):
        if name is None:
            continue
        if name in first:
            condition = rows[:, position] == rows[:, first[name]]
            keep_mask = condition if keep_mask is None else (keep_mask & condition)
        else:
            first[name] = position
    columns = tuple(first)
    out = rows[:, list(first.values())]
    if tag is not None:
        columns += (tag[0],)
        out = np.column_stack([out, tag[1]])
    if keep_mask is not None:
        out = out[keep_mask]
    if metrics is not None:
        metrics.inc("scan.rows_emitted", out.shape[0])
    return Relation(columns, out)


def scan_atom(
    atom: Triple,
    table: TripleTable,
    dictionary: Dictionary,
    metrics: Optional[MetricsRecorder] = None,
) -> Relation:
    """Scan the triple table for an atom; columns are the atom's variables."""
    names = [t.value if isinstance(t, Variable) else None for t in atom]
    constants = tuple(None if isinstance(t, Variable) else t for t in atom)
    rows = match_pattern(constants, table, dictionary, metrics)
    return bind_variables(rows, names, metrics)


def _join_layout(left: Relation, right: Relation):
    """Shared columns and the output layout of a natural join."""
    shared = [c for c in left.columns if c in right.columns]
    left_keys = [left.column_index(c) for c in shared]
    right_keys = [right.column_index(c) for c in shared]
    right_extra = [i for i, c in enumerate(right.columns) if c not in shared]
    out_columns = left.columns + tuple(right.columns[i] for i in right_extra)
    return shared, left_keys, right_keys, right_extra, out_columns


def _emit_join(
    left: Relation,
    right: Relation,
    left_idx: np.ndarray,
    right_idx: np.ndarray,
    right_extra: Sequence[int],
    out_columns: Sequence[str],
) -> Relation:
    # ``take`` gathers whole rows several times faster than ``rows[idx]``.
    left_part = left.rows.take(left_idx, axis=0)
    if not right_extra:
        return Relation(out_columns, left_part)
    right_part = right.rows[:, list(right_extra)].take(right_idx, axis=0)
    return Relation(out_columns, np.hstack([left_part, right_part]))


def hash_join(
    left: Relation, right: Relation, metrics: Optional[MetricsRecorder] = None
) -> Relation:
    """Natural join on shared column names (vectorized hash-partition join)."""
    shared, left_keys, right_keys, right_extra, out_columns = _join_layout(left, right)
    if not shared:
        return cross_product(left, right, metrics)
    if metrics is not None:
        metrics.inc("join.hash.count")
        metrics.inc("join.hash.probe_rows", len(left) + len(right))
    if len(left) == 0 or len(right) == 0:
        return Relation.empty(out_columns)
    # Factorize both key sets over a shared codomain so equal tuples get
    # equal codes: concatenate, pack, split.
    combined = np.vstack(
        [left.rows[:, left_keys], right.rows[:, right_keys]]
    )
    keys = pack_columns(combined, range(len(shared)))
    left_hash, right_hash = keys[: len(left)], keys[len(left) :]
    order = np.argsort(right_hash, kind="stable")
    sorted_right = right_hash[order]
    lo = np.searchsorted(sorted_right, left_hash, side="left")
    hi = np.searchsorted(sorted_right, left_hash, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if metrics is not None:
        metrics.inc("join.hash.emit_rows", total)
    if total == 0:
        return Relation.empty(out_columns)
    left_idx = np.repeat(np.arange(len(left)), counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    right_pos = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
    right_idx = order[right_pos]
    return _emit_join(left, right, left_idx, right_idx, right_extra, out_columns)


def merge_join(
    left: Relation, right: Relation, metrics: Optional[MetricsRecorder] = None
) -> Relation:
    """Natural join via sorting *both* inputs (the merge-join personality).

    Produces the same result as :func:`hash_join`; it differs in the
    work profile (two sorts instead of one), which the engine
    personalities expose as different calibrated constants.
    """
    shared, left_keys, right_keys, right_extra, out_columns = _join_layout(left, right)
    if not shared:
        return cross_product(left, right, metrics)
    if metrics is not None:
        metrics.inc("join.merge.count")
        metrics.inc("join.merge.probe_rows", len(left) + len(right))
    if len(left) == 0 or len(right) == 0:
        return Relation.empty(out_columns)
    combined = np.vstack([left.rows[:, left_keys], right.rows[:, right_keys]])
    keys = pack_columns(combined, range(len(shared)))
    left_hash, right_hash = keys[: len(left)], keys[len(left) :]
    left_order = np.argsort(left_hash, kind="stable")
    right_order = np.argsort(right_hash, kind="stable")
    sorted_left = left_hash[left_order]
    sorted_right = right_hash[right_order]
    lo = np.searchsorted(sorted_right, sorted_left, side="left")
    hi = np.searchsorted(sorted_right, sorted_left, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if metrics is not None:
        metrics.inc("join.merge.emit_rows", total)
    if total == 0:
        return Relation.empty(out_columns)
    left_idx = left_order[np.repeat(np.arange(len(left)), counts)]
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    right_pos = np.arange(total) - np.repeat(starts, counts) + np.repeat(lo, counts)
    right_idx = right_order[right_pos]
    return _emit_join(left, right, left_idx, right_idx, right_extra, out_columns)


def cross_product(
    left: Relation, right: Relation, metrics: Optional[MetricsRecorder] = None
) -> Relation:
    """Cartesian product (reached only by disconnected queries)."""
    out_columns = left.columns + right.columns
    if metrics is not None:
        metrics.inc("join.cross.count")
        metrics.inc("join.cross.emit_rows", len(left) * len(right))
    if len(left) == 0 or len(right) == 0:
        return Relation.empty(out_columns)
    left_idx = np.repeat(np.arange(len(left)), len(right))
    right_idx = np.tile(np.arange(len(right)), len(left))
    return Relation(
        out_columns, np.hstack([left.rows[left_idx], right.rows[right_idx]])
    )


def union_all(relations: Sequence[Relation], columns: Sequence[str]) -> Relation:
    """Bag union of positionally-aligned relations."""
    columns = tuple(columns)
    arity = len(columns)
    stacks = [r.rows for r in relations if len(r) > 0]
    for relation in relations:
        if relation.arity != arity:
            raise ValueError(
                f"union arity mismatch: {relation.columns} vs {columns}"
            )
    if not stacks:
        return Relation.empty(columns)
    return Relation(columns, np.vstack(stacks))


def distinct(
    relation: Relation, metrics: Optional[MetricsRecorder] = None
) -> Relation:
    """Duplicate elimination (the paper's ``c_unique`` operation)."""
    deduped = dedup_rows(relation.rows)
    if metrics is not None:
        metrics.inc("dedup.count")
        metrics.inc("dedup.input_rows", relation.rows.shape[0])
        metrics.inc("dedup.output_rows", deduped.shape[0])
    return Relation(relation.columns, deduped)
