"""The multi-tenant query service front-end (DESIGN.md §14).

Three layers and the executor, bottom-up:

* :mod:`.http` — a bounded, stdlib-only asyncio HTTP/1.1 parser and
  response writer;
* :mod:`.pool` — :class:`~repro.service.pool.WorkerPool`, the bounded
  thread pool admitted requests run on (DESIGN.md §11);
* :mod:`.tenants` — API keys, post-paid row token buckets, concurrency
  gates, and per-tenant fallback ladders;
* :mod:`.server` — :class:`QueryService`: admission → bounded queue →
  worker pool → shared :class:`~repro.answering.QueryAnswerer`, with
  ``/metrics`` exposition and graceful drain.
"""

from .http import BadRequest, HTTPRequest, read_request, render_response, write_response
from .server import SERVICE_LATENCY_BUCKETS_S, QueryService, ServiceConfig
from .tenants import (
    AdmissionError,
    QuotaExceeded,
    Tenant,
    TenantQuota,
    TenantRegistry,
    TokenBucket,
    UnknownTenant,
)

__all__ = [
    "AdmissionError",
    "BadRequest",
    "HTTPRequest",
    "QueryService",
    "QuotaExceeded",
    "SERVICE_LATENCY_BUCKETS_S",
    "ServiceConfig",
    "Tenant",
    "TenantQuota",
    "TenantRegistry",
    "TokenBucket",
    "UnknownTenant",
    "read_request",
    "render_response",
    "write_response",
]
