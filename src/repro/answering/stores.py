"""The holders of the derived stores, one per derived strategy row.

A row of :data:`~repro.answering.strategies.STRATEGY_TABLE` whose plan
runs on a derived store names the store's
:class:`~repro.reasoning.encoded.Layout` (``derives``), and
:class:`~repro.answering.QueryAnswerer` builds one
:class:`DerivedStoreHolder` per such row.  A holder publishes a
:class:`Derivation` — the snapshot key, the store derived at it and the
engine over it — as one value, so no reader sees a store beside
another store's engine (DESIGN.md §20, "Answering: who holds the
state").

This module is ``mypy --strict``-clean.
"""

from __future__ import annotations

import threading
from typing import NamedTuple, Optional, Tuple

from ..engine.evaluator import Engine
from ..reasoning.encoded import DerivedStore, Layout, derive
from ..storage.database import RDFDatabase, Snapshot
from ..storage.interval_encoding import IntervalEncoding


class Derivation(NamedTuple):
    """A derived store, the snapshot key it was derived at, and the
    engine over it."""

    key: Tuple[str, int]
    store: DerivedStore
    engine: Engine


class DerivedStoreHolder:
    """Holds the last published derivation of one layout of one database.

    :meth:`at` serves the published derivation when its key is the
    reader's, and otherwise derives one outside every lock, handing the
    published store in as held state when its schema part is the
    reader's and it is not newer (:func:`~repro.reasoning.encoded.derive`
    then takes only the rows stored since).  :meth:`_publish` is the one
    rule for what is published.  A replaced engine is not closed: a
    reader may still be inside it.

    Thread-safe; covered by ``tools/lint_locks.py``.
    """

    def __init__(self, layout: Layout, database: RDFDatabase, engine: Engine) -> None:
        self.layout = layout
        self.database = database
        #: The base engine; the engine over each store is its
        #: ``for_database`` sibling.
        self.engine = engine
        self._lock = threading.Lock()
        self._published: Optional[Derivation] = None

    def at(self, snapshot: Snapshot) -> Derivation:
        """The store and its engine at ``snapshot`` of the holder's database."""
        key = snapshot.key
        published = self._published
        if published is not None and published.key == key:
            return published
        held: Optional[DerivedStore] = None
        if published is not None and published.key[0] == key[0] and published.key[1] < key[1]:
            held = published.store
        store = derive(self.database, self.layout, held, snapshot)
        return self._publish(
            Derivation(key, store, self.engine.for_database(store.database))
        )

    def _publish(self, own: Derivation) -> Derivation:
        """Publish ``own`` unless a newer derivation is published already.

        A reader that derived at an older data version than the
        published one keeps its own, unpublished, so an older
        derivation never replaces a newer one; a reader that finds its
        own key published takes that one, so one snapshot has one engine.
        """
        with self._lock:
            published = self._published
            if published is not None and published.key == own.key:
                return published
            if published is None or published.key[1] <= own.key[1]:
                self._published = own
        return own

    def current(
        self, database: RDFDatabase
    ) -> Tuple[Optional[IntervalEncoding], RDFDatabase, Snapshot]:
        """``(encoding, derived store, snapshot)`` at the holder's
        database's snapshot, taken here: the staged driver of the e2e
        benchmark reads the interval-encoded store through this, passing
        that database.  The snapshot changes whenever the store does."""
        snapshot = self.database.snapshot()
        store = self.at(snapshot).store
        return store.encoding, store.database, snapshot

    def close(self) -> None:
        """Drop the published derivation and close its engine.

        Idempotent and safe under concurrent callers: exactly one claims
        the derivation under the lock and closes it outside.
        """
        with self._lock:
            published, self._published = self._published, None
        close = None if published is None else getattr(published.engine, "close", None)
        if close is not None:
            close()
