"""The service's bounded executor (DESIGN.md §11, "Concurrency model").

Queries are evaluated by the engine, serially, on whichever thread
calls :meth:`~repro.answering.QueryAnswerer.answer`; this package only
provides the :class:`WorkerPool` those calling threads come from when
the caller is :class:`~repro.service.QueryService`.
"""

from .pool import WorkerPool, default_workers

__all__ = ["WorkerPool", "default_workers"]
