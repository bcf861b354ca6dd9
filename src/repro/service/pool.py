"""A bounded, lazily started thread pool: the service's executor.

:class:`~repro.service.QueryService` hands every admitted request to
one :class:`WorkerPool`, so the number of queries executing at once is
bounded by the pool width rather than by the number of open
connections.  The backing
:class:`~concurrent.futures.ThreadPoolExecutor` is created on first
submit.

The threads share one interpreter lock: they overlap where SQLite
steps a statement or numpy runs an array kernel, not in Python
bytecode, and they share the engine's caches, the dictionary and the
statistics memos without copying.  Scale-out beyond one process is the
fleet's job (DESIGN.md §15).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Optional

#: Thread-name prefix of pool workers.
WORKER_PREFIX = "repro-worker"


def default_workers() -> int:
    """The default pool width: one worker per available CPU."""
    return os.cpu_count() or 1


class WorkerPool:
    """A lazily-started, bounded thread pool with a stable identity.

    ``max_workers=None`` (or 0) means :func:`default_workers`.  The
    pool is safe to share across threads and across many queries; it is
    shut down explicitly via :meth:`shutdown` or by using it as a
    context manager.  Submitting to a shut-down pool raises
    ``RuntimeError`` (the executor's own behaviour).
    """

    def __init__(self, max_workers: Optional[int] = None):
        if max_workers is not None and max_workers < 0:
            raise ValueError(f"max_workers must be >= 0 or None, got {max_workers}")
        self.max_workers = max_workers if max_workers else default_workers()
        self._executor: Optional[ThreadPoolExecutor] = None
        self._lock = threading.Lock()
        self._shut_down = False

    @property
    def started(self) -> bool:
        """Whether the backing executor has been created yet."""
        return self._executor is not None

    def _ensure_executor(self) -> ThreadPoolExecutor:
        with self._lock:
            if self._shut_down:
                raise RuntimeError("cannot submit to a shut-down WorkerPool")
            if self._executor is None:
                self._executor = ThreadPoolExecutor(
                    max_workers=self.max_workers,
                    thread_name_prefix=WORKER_PREFIX,
                )
            return self._executor

    def submit(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Future:
        """Schedule ``fn(*args, **kwargs)`` on a pool worker."""
        return self._ensure_executor().submit(fn, *args, **kwargs)

    def shutdown(self, wait: bool = True) -> None:
        """Stop accepting work and (optionally) wait for the workers."""
        with self._lock:
            self._shut_down = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        state = "shut-down" if self._shut_down else (
            "started" if self.started else "idle"
        )
        return f"WorkerPool(max_workers={self.max_workers}, {state})"
