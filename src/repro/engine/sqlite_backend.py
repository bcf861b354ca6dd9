"""SQLite-backed evaluation engine — the real-RDBMS personality.

Loads the dictionary-encoded triples into an in-memory SQLite
database with the paper's index layout — "indexed by all
permutations of the s, p, o columns" — and evaluates generated SQL.

SQLite brings *genuine* engine limits into the study: its compound
SELECT is capped at 500 terms (compile-time default), so large UCQ
reformulations fail on it exactly the way the paper's DB2/Postgres
failed on its large-reformulation queries.  Such failures surface as
:class:`EngineFailure`.

A lone union runs as one statement.  Any other JUCQ runs as a short
program (:func:`run_program`, DESIGN.md §18): its operands in
ascending scan volume, every one but the last materialized into a
temp table, the keys a later operand shares put into indexed key
tables, and the arms of a later operand filtered on the keys when
they are few against its volume — the native engine's semi-join rule
— before one final join.  All statements of a program run on one
connection under one budget (:meth:`SQLiteEngine._session`): a
deadline check before each, the cooperative progress handler within
each, and every temp table dropped however the program ends.

Concurrency model
-----------------

One engine may be driven by many threads at once (the service's
executor threads share each tenant store's engine).  SQLite connections
must not be shared across threads mid-statement, so the engine keeps a
**per-thread connection pool**: each thread lazily opens its own
in-memory connection on first use, loads the triple data into it, and
caches it thread-locally.  Every pooled connection tracks the table
version it last loaded and, before a statement, takes the rows stored
since, up to the version of the view the statement reads
(:meth:`~repro.storage.triple_table.TableView.changes`); one that is
ahead of the view is rebuilt from it.  So a statement reads exactly the
rows of its view.  ``close()`` drains the whole pool.

SQLite releases the GIL while stepping a statement, so statements on
different threads overlap on multi-core hosts.
"""

from __future__ import annotations

import sqlite3
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cache.lru import LRUCache
from ..storage.database import RDFDatabase, Snapshot
from ..storage.triple_table import TableView
from ..telemetry.metrics import MetricsRecorder
from ..telemetry.registry import get_registry
from ..telemetry.tracer import NULL_TRACER
from .budget import UNLIMITED, ExecutionBudget
from .evaluator import (
    SEMIJOIN_RATIO,
    AnswerSet,
    EngineFailure,
    EngineTimeout,
    _check_result_cap,
    scan_volume,
    semijoin_order,
)
from .sql import KeyFilters, SQLProgram

#: A key filter drives its arm from the key table (``ref IN k<j>``:
#: SQLite looks each key up in the triple indexes) when the keys are at
#: most 1/DRIVE_RATIO of the filtered operand's scan volume, and only
#: probes it (``+ref IN k<j>``) above that.  On 48 LUBM universities,
#: driving cut Q05 from 8.0 to 1.4 ms and q1 from 25 to 4.4 ms (ratios
#: 800 and 1 500), but Q18's 6 912 keys driven (ratio 21) took 276 ms
#: against 166 ms probed.
DRIVE_RATIO = 64

#: Seconds :meth:`SQLiteEngine.explain` lets a program's setup
#: statements (its materializations and key fills) run before it gives
#: up with :class:`EngineTimeout`.
EXPLAIN_TIMEOUT_S = 30.0

#: One statement's runner: the SQL text in, its executed cursor out.
Run = Callable[[str], sqlite3.Cursor]

_EXPLAIN = "EXPLAIN QUERY PLAN "

#: The six permutation indexes of the paper's storage layout.  The
#: table's own rowid ordering serves as the seventh full scan path.
_INDEX_ORDERS = ("spo", "sop", "pso", "pos", "osp", "ops")

#: Entries of an engine's compiled-SQL cache.
SQL_CACHE_CAPACITY = 256


class _PooledConnection:
    """One thread's connection plus the table version it has loaded."""

    __slots__ = ("raw", "loaded_version")

    def __init__(self, raw: sqlite3.Connection) -> None:
        self.raw = raw
        self.loaded_version: Optional[int] = None


class SQLiteEngine:
    """Evaluates queries by compiling them to SQL and running SQLite."""

    def __init__(self, database: RDFDatabase):
        self.database = database
        #: Compiled-SQL text cache (the *SQL cache* level of DESIGN.md
        #: §9).  Keyed by (query, dictionary size): generated SQL depends
        #: on the data only through dictionary lookups — a constant that
        #: was unknown compiles to an unsatisfiable conjunct — and lookup
        #: results can only change when the dictionary grows.  Shared by
        #: every pooled connection (the LRU itself is thread-safe).
        self.sql_cache: LRUCache = LRUCache(SQL_CACHE_CAPACITY)
        #: VM instructions between deadline checks of the cooperative
        #: progress handler.  Tests shrink it so timeouts fire even on
        #: statements too small to ever reach the production interval.
        self.progress_interval = 100_000
        # --- per-thread connection pool ---------------------------------
        self._local = threading.local()
        self._pool_lock = threading.Lock()
        self._pool: List[_PooledConnection] = []
        self._closed = False
        # Eagerly open (and load) the constructing thread's connection.
        self._acquire()

    name = "sqlite"

    def for_database(self, database: RDFDatabase) -> "SQLiteEngine":
        """A sibling engine over another store."""
        return type(self)(database)

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

    def _acquire(self, view: Optional[TableView] = None) -> _PooledConnection:
        """This thread's connection, opened on first use and loaded up to
        ``view`` (None: the database's snapshot's)."""
        state: Optional[_PooledConnection] = getattr(self._local, "state", None)
        if state is None:
            if self._closed:
                raise EngineFailure("SQLite engine is closed")
            # ``check_same_thread=False`` only so ``close()`` may drain
            # connections opened by other threads; each connection is
            # otherwise used exclusively by its owning thread.
            raw = sqlite3.connect(":memory:", check_same_thread=False)
            state = _PooledConnection(raw)
            with self._pool_lock:
                if self._closed:
                    raw.close()
                    raise EngineFailure("SQLite engine is closed")
                self._pool.append(state)
            self._local.state = state
        if view is None:
            view = self.database.snapshot().table
        since = state.loaded_version
        if since != view.version:
            if since is not None and since > view.version:
                since = None  # ahead of this view: rebuild from it
            state.loaded_version = self._load(state.raw, since, view)
        return state

    def _load(
        self, connection: sqlite3.Connection, since: Optional[int], view: TableView
    ) -> int:
        """Insert the rows ``view`` stored after version ``since`` (None:
        all of them, into a new table); returns the version now loaded."""
        keys, version = view.changes(since)
        cursor = connection.cursor()
        if since is None:
            cursor.execute("DROP TABLE IF EXISTS triples")
            cursor.execute("CREATE TABLE triples (s INTEGER, p INTEGER, o INTEGER)")
        cursor.executemany(
            "INSERT INTO triples VALUES (?, ?, ?)",
            view.decode_keys(keys).tolist(),
        )
        for order in _INDEX_ORDERS:
            columns = ", ".join(order)
            cursor.execute(f"CREATE INDEX IF NOT EXISTS idx_{order} ON triples ({columns})")
        cursor.execute("ANALYZE")
        connection.commit()
        return version

    def _compile(self, query) -> Tuple[SQLProgram, bool]:
        """The query's :class:`SQLProgram`, through a bounded
        per-(query, dictionary-size) memo, and whether the memo served it."""
        dictionary = self.database.dictionary
        return self.sql_cache.memo(
            (query, len(dictionary)), lambda: SQLProgram(query, dictionary)
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def evaluate(
        self,
        query,
        tracer=None,
        metrics: Optional[MetricsRecorder] = None,
        budget: ExecutionBudget = UNLIMITED,
        snapshot: Optional[Snapshot] = None,
    ) -> AnswerSet:
        """Evaluate: the distinct answer rows, as an :class:`AnswerSet`.

        SQLite's internal operators are opaque, so telemetry records the
        SQL boundary instead: compile/execute spans, statement count and
        size, and fetched-row counters.  The program (:func:`run_program`) runs
        on a mirror of ``snapshot``'s table view; ``budget``'s deadline
        interrupts any of its statements and its result cap bounds the
        fetched rows.
        """
        tracer = NULL_TRACER if tracer is None else tracer
        started = time.perf_counter()
        with tracer.span("sqlite.compile") as span:
            program, cached = self._compile(query)
            span.set(cached=cached)
        with tracer.span("sqlite.execute") as span:
            execute_started = time.perf_counter()
            dictionary = self.database.dictionary
            statements, rows = self._session(
                budget,
                snapshot,
                lambda run, view: run_program(program, run, view, dictionary),
            )
            sql_chars = sum(map(len, statements))
            span.set(rows=len(rows), statements=len(statements), sql_chars=sql_chars)
        get_registry().histogram(
            "repro.sqlite.execute_seconds",
            help="wall-clock time of one executed SQLite program",
        ).observe(time.perf_counter() - execute_started)
        if metrics is not None:
            metrics.inc("sqlite.statements", len(statements))
            metrics.inc("sqlite.sql_chars", sql_chars)
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

    def execute_sql(
        self,
        sql: str,
        budget: ExecutionBudget = UNLIMITED,
        snapshot: Optional[Snapshot] = None,
    ):
        """Run SQL text — one statement, or a ``;``-separated program
        such as :func:`~repro.engine.sql.to_sql` writes — on this
        thread's mirror of ``snapshot``'s table view (None: the
        database's snapshot, taken here); the last statement's rows.
        Engine errors become :class:`EngineFailure`, as in
        :meth:`_session`."""
        statements = sql.split(";\n")
        return self._session(
            budget, snapshot,
            lambda run, view: [run(s) for s in statements][-1].fetchall(),
        )[1]

    def _session(
        self,
        budget: ExecutionBudget,
        snapshot: Optional[Snapshot],
        program: Callable[[Run, TableView], List[tuple]],
    ) -> Tuple[List[str], List[tuple]]:
        """Run ``program(run, view)`` on this thread's mirror of
        ``snapshot``'s view: the statements it ran and what it returned.

        ``budget``'s deadline (started here if the caller has not) is
        checked before every statement and, within one, cooperatively:
        the progress handler runs every :attr:`progress_interval` VM
        instructions and a non-zero return cancels the running
        statement.  Whether a statement was interrupted is tracked by an
        explicit flag the handler sets — *never* by matching
        "interrupted" in the error text, which a user literal could
        spoof into misclassifying an :class:`EngineFailure` as an
        :class:`EngineTimeout`.  Every ``temp`` table the program made
        is dropped before this returns or raises.
        """
        budget = budget.start()
        if budget.expired:
            raise EngineTimeout("SQLite statement timed out before it started")
        view = (self.database.snapshot() if snapshot is None else snapshot).table
        connection = self._acquire(view).raw
        interrupted = [False]
        statements: List[str] = []

        def check() -> int:
            interrupted[0] = budget.expired
            return interrupted[0]

        def run(sql: str) -> sqlite3.Cursor:
            # Recorded before the check: a program stopped here already
            # ran the statements before it, which may have made tables.
            statements.append(sql)
            if len(statements) > 1 and budget.expired:
                raise EngineTimeout("SQLite program timed out between statements")
            return connection.execute(sql)

        deadline = budget.timeout_s is not None
        if deadline:
            connection.set_progress_handler(check, self.progress_interval)
        try:
            return statements, program(run, view)
        except sqlite3.OperationalError as error:
            if interrupted[0]:
                raise EngineTimeout("SQLite statement timed out") from error
            raise EngineFailure(f"SQLite failed: {error}") from error
        except sqlite3.Error as error:
            raise EngineFailure(f"SQLite failed: {error}") from error
        finally:
            if deadline:
                connection.set_progress_handler(None, 0)
            if len(statements) > 1:
                _drop_temp_tables(connection)

    def explain(self, query) -> str:
        """Every statement :meth:`evaluate` would run for ``query`` on the
        current snapshot, then SQLite's own ``EXPLAIN QUERY PLAN`` for
        the final one (one indented row per plan step).  The statements
        before it do run — the plan needs their temp tables, and which
        filters it holds depends on their counts — within
        :data:`EXPLAIN_TIMEOUT_S`, and those tables are dropped after."""
        program, _cached = self._compile(query)
        try:
            statements, rows = self._session(
                ExecutionBudget(timeout_s=EXPLAIN_TIMEOUT_S),
                None,
                lambda run, view: run_program(
                    program, run, view, self.database.dictionary, explain=True
                ),
            )
        except EngineTimeout as error:
            raise EngineTimeout(
                f"SQLite's setup statements ran past {EXPLAIN_TIMEOUT_S:g} s "
                f"while planning: {error}"
            ) from error
        except EngineFailure as error:
            raise EngineFailure(f"SQLite failed to plan: {error}") from error
        statements[-1] = statements[-1][len(_EXPLAIN):]
        depth = {0: 0}
        lines = [";\n".join(statements), "", "-- SQLite query plan --"]
        if program.columns:
            lines.insert(0, program.legend())
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


def run_program(
    program: SQLProgram,
    run: Run,
    view: TableView,
    dictionary,
    explain: bool = False,
) -> List[tuple]:
    """Run ``program``; the rows of its final statement (of its
    ``EXPLAIN QUERY PLAN`` when ``explain``).

    The semi-join rule of the native engine (DESIGN.md §18): operands
    run in ascending scan volume, each but the last materialized;
    after each, a key table is filled for every head variable a later
    operand shares (from the first operand that holds it, and only up
    to the most keys a later operand could take, so a table that
    could never filter costs little), and a later operand with at
    least :data:`SEMIJOIN_RATIO` times as much scan volume as a table
    has keys gets that table's filter on each of its arms.
    """
    volumes = [0]
    if len(program) > 1:
        volumes = [scan_volume(ucq, view, dictionary) for ucq in program.operands]
    order = semijoin_order(volumes)
    counts: Dict[str, int] = {}
    for step, index in enumerate(order[:-1]):
        run(program.materialize(index, _filters(counts, program, index, volumes)))
        for column in program.variables[index]:
            # The most keys any later operand sharing ``column`` takes.
            limit = max(
                (volumes[j] // SEMIJOIN_RATIO for j in order[step + 1:]
                 if column in program.variables[j]),
                default=0,
            )
            if limit and column not in counts:
                run(program.key_table(column))
                # One key past the limit marks the table too big to use.
                counts[column] = run(program.fill_keys(column, index, limit + 1)).rowcount
    final = program.final(order[-1], _filters(counts, program, order[-1], volumes))
    return run(_EXPLAIN + final if explain else final).fetchall()


def program_statements(query, database: RDFDatabase) -> List[str]:
    """Every statement :class:`SQLiteEngine` may run for ``query`` on
    ``database``'s current snapshot, in its order, executing none: the
    run of :func:`run_program` in which every key table fills empty, so
    each one is created and filters every arm it can."""

    class Dry:
        rowcount = 0

        def fetchall(self) -> List[tuple]:
            return []

    statements: List[str] = []

    def record(sql: str) -> "Dry":
        statements.append(sql)
        return Dry()

    program = SQLProgram(query, database.dictionary)
    view = database.snapshot().table
    run_program(program, record, view, database.dictionary)  # type: ignore[arg-type]
    return statements


def _filters(
    counts: Dict[str, int], program: SQLProgram, index: int, volumes: Sequence[int]
) -> KeyFilters:
    """The key tables that filter operand ``index``, each marked True
    where few enough keys drive its scans."""
    volume = volumes[index]
    return {
        column: counts[column] * DRIVE_RATIO <= volume
        for column in program.variables[index]
        if column in counts and counts[column] * SEMIJOIN_RATIO <= volume
    }


def _drop_temp_tables(connection: sqlite3.Connection) -> None:
    """Drop every table of the connection's ``temp`` schema."""
    names = connection.execute(
        "SELECT name FROM temp.sqlite_master WHERE type = 'table'"
    ).fetchall()
    for (name,) in names:
        connection.execute(f"DROP TABLE temp.{name}")
