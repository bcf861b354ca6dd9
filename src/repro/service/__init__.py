"""The multi-tenant query service front-end (DESIGN.md §14).

Four layers, bottom-up:

* :mod:`.http` — a bounded, stdlib-only asyncio HTTP/1.1 codec
  (request and response, both directions);
* :mod:`.endpoint` — :class:`HTTPEndpoint`, the front door
  ``repro serve`` and ``repro fleet`` share: listener, keep-alive
  connection loop, route table, lifecycle and graceful drain;
* :mod:`.tenants` — API keys, post-paid row token buckets, concurrency
  gates, and per-tenant fallback ladders;
* :mod:`.server` — :class:`QueryService`: admission → bounded queue →
  thread-pool executor → shared :class:`~repro.answering.QueryAnswerer`,
  with ``/metrics`` exposition.
"""

from .endpoint import HTTPEndpoint
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
    "HTTPEndpoint",
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
