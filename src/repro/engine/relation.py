"""Column-named integer relations — the tuples flowing between operators.

A :class:`Relation` is an ``(n, k)`` int64 array plus ``k`` column
names.  All engine-internal values are dictionary codes; they are
decoded back to RDF terms only where a caller reads an answer's terms
(:class:`repro.engine.evaluator.AnswerSet`).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np


class Relation:
    """An immutable named-column table of int64 codes."""

    __slots__ = ("columns", "rows")

    def __init__(self, columns: Sequence[str], rows: np.ndarray):
        columns = tuple(columns)
        if rows.ndim != 2 or rows.shape[1] != len(columns):
            raise ValueError(
                f"rows shape {rows.shape} does not match {len(columns)} columns"
            )
        self.columns: Tuple[str, ...] = columns
        self.rows = rows

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, columns: Sequence[str]) -> "Relation":
        """A relation with the given columns and no rows."""
        return cls(columns, np.empty((0, len(tuple(columns))), dtype=np.int64))

    @classmethod
    def single_row(cls, columns: Sequence[str], values: Sequence[int]) -> "Relation":
        """A one-row relation (used for constant/empty-body conjuncts)."""
        return cls(columns, np.array([list(values)], dtype=np.int64))

    @classmethod
    def unit(cls) -> "Relation":
        """The zero-column, one-row relation (join identity)."""
        return cls((), np.empty((1, 0), dtype=np.int64))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return int(self.rows.shape[0])

    @property
    def arity(self) -> int:
        """Number of columns."""
        return len(self.columns)

    def column_index(self, name: str) -> int:
        """Position of a column by name."""
        try:
            return self.columns.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.columns}") from None

    def column(self, name: str) -> np.ndarray:
        """One column as a 1-D array."""
        return self.rows[:, self.column_index(name)]

    # ------------------------------------------------------------------
    # Basic transformations
    # ------------------------------------------------------------------
    def project(self, names: Sequence[str]) -> "Relation":
        """Keep the given columns, in the given order (may repeat)."""
        idx = [self.column_index(n) for n in names]
        return Relation(tuple(names), self.rows[:, idx])

    def rename(self, names: Sequence[str]) -> "Relation":
        """Same data under new column names."""
        return Relation(names, self.rows)

    def to_tuples(self) -> List[Tuple[int, ...]]:
        """Rows as Python tuples of codes, for tests and external drivers.

        Not the result boundary: answers leave the engine as a
        :class:`repro.engine.evaluator.AnswerSet` over ``rows``, which
        decodes by column.
        """
        return [tuple(row) for row in self.rows.tolist()]

    def __repr__(self) -> str:
        return f"Relation(cols={self.columns}, rows={len(self)})"


#: Mixed-radix keys stay below this, so every product fits an int64.
_KEY_LIMIT = 1 << 62


def pack_columns(rows: np.ndarray, col_indices: Sequence[int]) -> np.ndarray:
    """Collapse selected columns into one int64 key per row.

    Keys are equal iff the column tuples are equal.  Each column is
    shifted to start at 0 and appended as one digit of a mixed-radix
    number whose radices are the columns' value ranges — no sorting.
    Dictionary codes are < 2**21, so three columns always fit 62 bits
    and more do whenever their ranges are narrow.  Where the next digit
    would not fit, the key so far (and, if still needed, the column) is
    first replaced by its dense rank (``np.unique`` inverse codes, < n),
    which is safe for any number of columns and any magnitudes.
    """
    n = rows.shape[0]
    if n == 0:
        return np.empty(0, dtype=np.int64)
    columns = [rows[:, index] for index in col_indices]
    if not columns:
        return np.zeros(n, dtype=np.int64)
    if len(columns) == 1:
        # One column is its own key: the commonest join needs no pass at all.
        return np.ascontiguousarray(columns[0], dtype=np.int64)
    keys = np.zeros(n, dtype=np.int64)
    span = 1  # keys < span
    for column in columns:
        low = int(column.min())
        width = int(column.max()) - low + 1
        if span * width >= _KEY_LIMIT:
            keys, span = _dense_rank(keys), n
            if span * width >= _KEY_LIMIT:
                column, low, width = _dense_rank(column), 0, n
        keys *= width
        keys += np.subtract(column, low, dtype=np.int64)
        span *= width
    return keys


def _dense_rank(values: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values: equal iff equal, < n."""
    return np.unique(values, return_inverse=True)[1].astype(np.int64, copy=False)


def dedup_rows(rows: np.ndarray) -> np.ndarray:
    """Distinct rows of a 2-D array (order not preserved)."""
    if rows.shape[0] <= 1:
        return rows
    if rows.shape[1] == 0:
        return rows[:1]
    keys = pack_columns(rows, range(rows.shape[1]))
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.shape[0], dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return rows.take(order[first], axis=0)
