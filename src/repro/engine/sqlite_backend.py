"""SQLite-backed evaluation engine — the real-RDBMS personality.

Loads the dictionary-encoded triples into an (in-memory by default)
SQLite database with the paper's index layout — "indexed by all
permutations of the s, p, o columns" — and evaluates generated SQL.

SQLite brings *genuine* engine limits into the study: its compound
SELECT is capped at 500 terms (compile-time default), so large UCQ
reformulations fail on it exactly the way the paper's DB2/Postgres
failed on its large-reformulation queries.  Such failures surface as
:class:`EngineFailure`.

Concurrency model
-----------------

One engine may be driven by many threads at once (the service's
executor threads share each tenant store's engine).  SQLite connections
must not be shared across threads mid-statement, so the engine keeps a
**per-thread connection pool**: each thread lazily opens its own
connection on first use, loads (or, for file-backed stores, observes)
the triple data, and caches it thread-locally.  Every pooled connection
tracks the data part of the store's
:meth:`~repro.storage.database.RDFDatabase.snapshot` it last loaded
and refreshes independently when the store mutates, so a stale thread
can never serve pre-mutation rows.  ``close()`` drains the whole pool.

SQLite releases the GIL while stepping a statement, so statements on
different threads overlap on multi-core hosts.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import List, Optional

import numpy as np

from ..cache.lru import MISSING, LRUCache
from ..storage.database import RDFDatabase
from ..telemetry.metrics import MetricsRecorder
from ..telemetry.registry import get_registry
from ..telemetry.tracer import NULL_TRACER
from .budget import UNLIMITED, ExecutionBudget
from .evaluator import AnswerSet, EngineFailure, EngineTimeout, _check_result_cap
from .sql import to_sql

#: The six permutation indexes of the paper's storage layout.  The
#: table's own rowid ordering serves as the seventh full scan path.
_INDEX_ORDERS = ("spo", "sop", "pso", "pos", "osp", "ops")


class _PooledConnection:
    """One thread's connection plus the table version it has loaded."""

    __slots__ = ("raw", "loaded_version")

    def __init__(self, raw: sqlite3.Connection) -> None:
        self.raw = raw
        self.loaded_version: Optional[int] = None


class SQLiteEngine:
    """Evaluates queries by compiling them to SQL and running SQLite."""

    def __init__(
        self,
        database: RDFDatabase,
        path: str = ":memory:",
        sql_capacity: Optional[int] = 256,
    ):
        self.database = database
        self.path = path
        #: Compiled-SQL text cache (the *SQL cache* level of DESIGN.md
        #: §9).  Keyed by (query, dictionary size): generated SQL depends
        #: on the data only through dictionary lookups — a constant that
        #: was unknown compiles to an unsatisfiable conjunct — and lookup
        #: results can only change when the dictionary grows.  Shared by
        #: every pooled connection (the LRU itself is thread-safe).
        self.sql_cache: LRUCache = LRUCache(sql_capacity)
        #: VM instructions between deadline checks of the cooperative
        #: progress handler.  Tests shrink it so timeouts fire even on
        #: statements too small to ever reach the production interval.
        self.progress_interval = 100_000
        # --- per-thread connection pool ---------------------------------
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._pool: List[_PooledConnection] = []
        self._closed = False
        #: For file-backed stores the data lives in the shared file, so
        #: one load per table version serves every connection; guarded
        #: by ``_load_lock``.  ``:memory:`` connections are each their
        #: own database and load independently.
        self._load_lock = threading.Lock()
        self._file_version: Optional[int] = None
        # Eagerly open (and load) the constructing thread's connection,
        # preserving the old fail-fast behaviour on bad paths.
        self._acquire()

    name = "sqlite"

    def for_database(self, database: RDFDatabase) -> "SQLiteEngine":
        """A sibling engine over another store (same SQL-cache bound)."""
        return type(self)(database, sql_capacity=self.sql_cache.capacity)

    # ------------------------------------------------------------------
    # Connection pool
    # ------------------------------------------------------------------
    @property
    def connection(self) -> sqlite3.Connection:
        """The calling thread's pooled connection (legacy accessor)."""
        return self._acquire().raw

    def pool_size(self) -> int:
        """How many per-thread connections are currently open."""
        with self._pool_lock:
            return len(self._pool)

    def _acquire(self) -> _PooledConnection:
        """This thread's connection, opened and loaded on first use."""
        state: Optional[_PooledConnection] = getattr(self._local, "state", None)
        if state is None:
            if self._closed:
                raise EngineFailure("SQLite engine is closed")
            # ``check_same_thread=False`` only so ``close()`` may drain
            # connections opened by other threads; each connection is
            # otherwise used exclusively by its owning thread.
            raw = sqlite3.connect(self.path, check_same_thread=False)
            state = _PooledConnection(raw)
            with self._pool_lock:
                if self._closed:
                    raw.close()
                    raise EngineFailure("SQLite engine is closed")
                self._pool.append(state)
            self._local.state = state
        self._ensure_loaded(state)
        return state

    def _ensure_loaded(self, state: _PooledConnection) -> None:
        """Version-checked refresh of one pooled connection.

        An in-memory connection is its own database and (re)loads
        whenever its recorded version lags the table.  File-backed
        connections share the file: the first to observe a new version
        rebuilds it under the load lock, the rest just adopt it.
        """
        version = self.database.snapshot().data
        if state.loaded_version == version:
            return
        if self.path == ":memory:":
            self._load(state.raw)
        else:
            with self._load_lock:
                if self._file_version != version:
                    self._load(state.raw)
                    self._file_version = version
        state.loaded_version = version

    def _load(self, connection: sqlite3.Connection) -> None:
        cursor = connection.cursor()
        cursor.execute("DROP TABLE IF EXISTS triples")
        cursor.execute("CREATE TABLE triples (s INTEGER, p INTEGER, o INTEGER)")
        rows = self.database.table.match((None, None, None))
        cursor.executemany(
            "INSERT INTO triples VALUES (?, ?, ?)",
            rows.tolist(),
        )
        for order in _INDEX_ORDERS:
            columns = ", ".join(order)
            cursor.execute(f"DROP INDEX IF EXISTS idx_{order}")
            cursor.execute(f"CREATE INDEX idx_{order} ON triples ({columns})")
        cursor.execute("ANALYZE")
        connection.commit()

    def _compile(self, query) -> str:
        """``to_sql`` with a bounded per-(query, dictionary-size) memo."""
        key = (query, len(self.database.dictionary))
        sql = self.sql_cache.get(key, MISSING)
        if sql is MISSING:
            sql = to_sql(query, self.database.dictionary)
            self.sql_cache.put(key, sql)
        return sql

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query,
        tracer=None,
        metrics: Optional[MetricsRecorder] = None,
        budget: ExecutionBudget = UNLIMITED,
    ) -> AnswerSet:
        """Evaluate: the distinct answer rows, as an :class:`AnswerSet`.

        SQLite's internal operators are opaque, so telemetry records the
        SQL boundary instead: compile/execute spans, statement size, and
        fetched-row counters.  ``budget``'s deadline interrupts the
        statement (:meth:`execute_sql`) and its result cap bounds the
        fetched rows.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        started = time.perf_counter()
        with tracer.span("sqlite.compile") as span:
            hits_before = self.sql_cache.hits
            sql = self._compile(query)
            span.set(sql_chars=len(sql), cached=self.sql_cache.hits > hits_before)
        with tracer.span("sqlite.execute", sql_chars=len(sql)) as span:
            execute_started = time.perf_counter()
            rows = self.execute_sql(sql, budget)
            span.set(rows=len(rows))
        get_registry().histogram(
            "repro.sqlite.execute_seconds",
            help="wall-clock time of one executed SQLite statement",
        ).observe(time.perf_counter() - execute_started)
        if metrics is not None:
            metrics.inc("sqlite.statements")
            metrics.inc("sqlite.sql_chars", len(sql))
            metrics.inc("sqlite.rows_fetched", len(rows))
        _check_result_cap(budget, len(rows))
        if rows:
            codes = np.array(rows, dtype=np.int64)
            if query.arity == 0:
                # Boolean query: the SQL emits a marker column instead of
                # an (invalid) empty select list.
                codes = codes[:, :0]
        else:
            codes = np.empty((0, query.arity), dtype=np.int64)
        answers = AnswerSet(codes, self.database.dictionary.snapshot)
        get_registry().histogram(
            "repro.engine.evaluate_seconds",
            labels={"engine": self.name},
            help="wall-clock time of one engine-level evaluation",
        ).observe(time.perf_counter() - started)
        return answers

    def execute_sql(self, sql: str, budget: ExecutionBudget = UNLIMITED):
        """Run SQL text; engine errors become :class:`EngineFailure`.

        ``budget``'s deadline (started here if the caller has not) is
        checked once before the statement and then cooperatively: the
        progress handler runs every :attr:`progress_interval` VM
        instructions and a non-zero return cancels the running
        statement.  Whether a statement was interrupted is tracked by an
        explicit flag the handler sets — *never* by matching
        "interrupted" in the error text, which a user literal could
        spoof into misclassifying an :class:`EngineFailure` as an
        :class:`EngineTimeout`.
        """
        budget = budget.start()
        if budget.expired:
            raise EngineTimeout("SQLite statement timed out before it started")
        connection = self._acquire().raw
        interrupted = [False]

        def check() -> int:
            interrupted[0] = budget.expired
            return interrupted[0]

        deadline = budget.timeout_s is not None
        if deadline:
            connection.set_progress_handler(check, self.progress_interval)
        try:
            cursor = connection.execute(sql)
            return cursor.fetchall()
        except sqlite3.OperationalError as error:
            if interrupted[0]:
                raise EngineTimeout("SQLite statement timed out") from error
            raise EngineFailure(f"SQLite failed: {error}") from error
        except sqlite3.Error as error:
            raise EngineFailure(f"SQLite failed: {error}") from error
        finally:
            if deadline:
                connection.set_progress_handler(None, 0)

    def explain(self, query) -> str:
        """The SQL :meth:`evaluate` would run, then SQLite's own
        ``EXPLAIN QUERY PLAN`` for it (one indented row per plan step)."""
        connection = self._acquire().raw
        sql = self._compile(query)
        try:
            rows = connection.execute(f"EXPLAIN QUERY PLAN {sql}").fetchall()
        except sqlite3.Error as error:
            raise EngineFailure(f"SQLite failed to plan: {error}") from error
        depth = {0: 0}
        lines = [sql, "", "-- SQLite query plan --"]
        for node, parent, _unused, detail in rows:
            depth[node] = depth.get(parent, 0) + 1
            lines.append("  " * depth[node] + detail)
        return "\n".join(lines)

    def close(self) -> None:
        """Release every pooled connection (safe from any thread)."""
        with self._pool_lock:
            self._closed = True
            pool, self._pool = self._pool, []
        for state in pool:
            state.raw.close()
        # Invalidate this thread's cached handle so a stale reference
        # cannot resurrect a closed connection.
        self._local.state = None

    def __enter__(self) -> "SQLiteEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
