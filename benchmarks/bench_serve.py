"""Load generator for the multi-tenant query service (DESIGN.md §14).

Drives N concurrent clients over a mixed LUBM/DBLP workload against a
live server — either one this script boots in-process (default) or an
external one reached with ``--url`` (the CI ``serve-smoke`` job boots
``repro serve`` and points here).  Clients alternate between two
tenant classes (``gold``/``bronze`` API keys), every response is
byte-compared against a serially-computed oracle answer, and the
per-tenant latency distributions plus throughput land as cells in
``results/serve.txt``.

In ``--url`` mode the oracle rebuilds the datasets locally at the
``REPRO_*`` scales, so the server must have been booted at the same
scales (seed 0), e.g.::

    python -m repro serve --lubm $REPRO_LUBM_SMALL --dblp $REPRO_DBLP_PUBS \\
        --port 0 --port-file serve.port --tenants benchmarks/serve_tenants.json
    python benchmarks/bench_serve.py --clients 16 \\
        --url http://127.0.0.1:$(cat serve.port)

Any answer mismatch is a hard failure (exit 1): concurrency must never
change answers.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import _harness as H
from repro.answering import QueryAnswerer
from repro.bench import summarize
from repro.cache import QueryCache
from repro.query import to_sparql
from repro.reformulation import Reformulator

#: Cheap-but-real workload slices (mirrors tests/test_service_concurrency):
#: the monster reformulations would serialize the whole load behind one
#: query and measure nothing about concurrency.
WORKLOAD_NAMES = {
    "lubm": ("Q01", "Q03", "Q04", "Q05", "Q10", "Q11", "Q14"),
    "dblp": ("Q01", "Q02", "Q04", "Q05", "Q07"),
}

#: Service dataset name -> harness store name.
STORES = {"lubm": "lubm-small", "dblp": "dblp"}

#: The two tenant classes the load alternates between (their keys must
#: exist server-side; ``benchmarks/serve_tenants.json`` declares them
#: for ``repro serve``).
TENANT_KEYS = {"gold": "gold-key", "bronze": "bronze-key"}

MAX_RETRIES_429 = 8


def _jobs() -> List[Tuple[str, str, str]]:
    """The mixed workload: ``(dataset, query_name, sparql_text)``."""
    jobs = []
    for dataset, names in sorted(WORKLOAD_NAMES.items()):
        entries = {e.name: e.query for e in H.workload(STORES[dataset])}
        for name in names:
            jobs.append((dataset, name, to_sparql(entries[name])))
    return jobs


def _oracle_rows() -> Dict[Tuple[str, str], List[str]]:
    """Serial saturation answers, rendered exactly as the service renders."""
    expected: Dict[Tuple[str, str], List[str]] = {}
    for dataset, names in sorted(WORKLOAD_NAMES.items()):
        answerer = QueryAnswerer(H.database(STORES[dataset]))
        entries = {e.name: e.query for e in H.workload(STORES[dataset])}
        for name in names:
            answers = answerer.answer(entries[name], strategy="saturation").answers
            expected[(dataset, name)] = sorted(
                "\t".join(str(term) for term in row) for row in answers
            )
    return expected


class ClientStats:
    """One client thread's outcomes (merged after join)."""

    def __init__(self, tenant: str) -> None:
        self.tenant = tenant
        self.latencies_s: List[float] = []
        self.errors: List[str] = []
        self.mismatches: List[str] = []


def _drive_client(
    index: int,
    host: str,
    port: int,
    jobs: List[Tuple[str, str, str]],
    requests: int,
    api_key: str,
    expected: Dict[Tuple[str, str], List[str]],
    stats: ClientStats,
) -> None:
    """One client: keep-alive connection, sequential timed requests."""
    conn = http.client.HTTPConnection(host, port, timeout=300)
    headers = {"Content-Type": "application/json", "X-Api-Key": api_key}
    try:
        for k in range(requests):
            dataset, name, text = jobs[(index + k) % len(jobs)]
            body = json.dumps({"query": text, "dataset": dataset})
            for attempt in range(MAX_RETRIES_429 + 1):
                started = time.perf_counter()
                try:
                    conn.request("POST", "/query", body=body, headers=headers)
                    response = conn.getresponse()
                    payload = json.loads(response.read())
                except (http.client.HTTPException, OSError) as error:
                    conn.close()
                    conn = http.client.HTTPConnection(host, port, timeout=300)
                    stats.errors.append(f"{dataset}/{name}: {error}")
                    break
                if response.status == 429:
                    time.sleep(
                        min(2.0, float(payload.get("retry_after_s", 0.2)) or 0.2)
                    )
                    continue
                elapsed = time.perf_counter() - started
                if response.status != 200:
                    stats.errors.append(
                        f"{dataset}/{name}: HTTP {response.status} {payload}"
                    )
                    break
                stats.latencies_s.append(elapsed)
                if payload["rows"] != expected[(dataset, name)]:
                    stats.mismatches.append(
                        f"{dataset}/{name}: {payload['answer_count']} rows != "
                        f"{len(expected[(dataset, name)])} expected"
                    )
                break
            else:
                stats.errors.append(f"{dataset}/{name}: still 429 after retries")
    finally:
        conn.close()


def _self_hosted():
    """Boot an in-process service over both stores (the default mode)."""
    from repro.service import QueryService, ServiceConfig, TenantRegistry
    from repro.telemetry import MetricsRegistry

    answerers = {}
    for dataset, store in STORES.items():
        db = H.database(store)
        answerers[dataset] = QueryAnswerer(
            db,
            engine=H.engine(store, "native-hash"),
            cost_model=H.cost_model(store, "native-hash"),
            reformulator=Reformulator(db.schema, limit=H.REFORMULATION_TERM_LIMIT),
            cache=QueryCache(),
        )
    tenants = TenantRegistry.from_dict(
        {
            "tenants": [
                {"name": "gold", "api_key": TENANT_KEYS["gold"], "max_concurrent": 16},
                {
                    "name": "bronze",
                    "api_key": TENANT_KEYS["bronze"],
                    "max_concurrent": 8,
                    "rows_per_second": 500_000,
                    "burst_rows": 1_000_000,
                },
            ]
        }
    )
    service = QueryService(
        answerers,
        tenants=tenants,
        config=ServiceConfig(workers=None, queue_depth=256),
        registry=MetricsRegistry(),
    ).start()
    return service


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=16, help="concurrent clients")
    parser.add_argument(
        "--requests",
        type=int,
        default=12,
        metavar="N",
        help="timed requests per client",
    )
    parser.add_argument(
        "--url",
        default=None,
        help="drive an external server instead of booting one in-process",
    )
    args = parser.parse_args(argv)

    jobs = _jobs()
    print(
        f"serve bench: {args.clients} clients x {args.requests} requests, "
        f"{len(jobs)} distinct queries (lubm+dblp)"
    )
    print("computing serial oracle answers ...")
    expected = _oracle_rows()

    service = None
    if args.url:
        parts = urlsplit(args.url)
        host, port = parts.hostname, parts.port or 80
        mode = "url"
    else:
        service = _self_hosted()
        host, port = service.address
        mode = "self-hosted"
    print(f"target: http://{host}:{port} ({mode})")

    try:
        # Untimed warm-up: one serial pass over every distinct query
        # per dataset fills the shared plan/reformulation caches, so the
        # timed phase measures steady-state serving, not first-compile.
        warm = ClientStats("warmup")
        _drive_client(
            0, host, port, jobs, len(jobs), TENANT_KEYS["gold"], expected, warm
        )
        if warm.errors:
            print("warm-up failures:", *warm.errors[:5], sep="\n  ", file=sys.stderr)
            return 1

        stats = [
            ClientStats("gold" if index % 2 == 0 else "bronze")
            for index in range(args.clients)
        ]
        threads = [
            threading.Thread(
                target=_drive_client,
                args=(
                    index,
                    host,
                    port,
                    jobs,
                    args.requests,
                    TENANT_KEYS[stat.tenant],
                    expected,
                    stat,
                ),
                name=f"client-{index}",
            )
            for index, stat in enumerate(stats)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - started
    finally:
        if service is not None:
            service.stop()

    report = H.bench_report(
        "serve", "Multi-tenant service under concurrent mixed load"
    )
    report.scales["clients"] = args.clients
    report.scales["requests_per_client"] = args.requests
    mismatches: List[str] = []
    errors: List[str] = []
    print(f"\n{'tenant':8}{'n':>6}{'p50 ms':>10}{'p90 ms':>10}{'p99 ms':>10}{'req/s':>9}")
    classes = sorted(TENANT_KEYS) + ["all"]
    for tenant in classes:
        members = [s for s in stats if tenant in (s.tenant, "all")]
        latencies_ms = [
            1000.0 * value for s in members for value in s.latencies_s
        ]
        for s in members:
            if tenant != "all":
                mismatches.extend(s.mismatches)
                errors.extend(s.errors)
        distribution = summarize(latencies_ms)
        throughput = len(latencies_ms) / wall_s if wall_s > 0 else 0.0
        report.add_cell(
            {"tenant": tenant},
            status="ok" if latencies_ms else "empty",
            metrics={
                "latency_ms": distribution,
                "throughput_rps": round(throughput, 3),
            },
        )
        print(
            f"{tenant:8}{len(latencies_ms):>6}"
            f"{distribution.get('p50', 0.0):>10.1f}"
            f"{distribution.get('p90', 0.0):>10.1f}"
            f"{distribution.get('p99', 0.0):>10.1f}"
            f"{throughput:>9.1f}"
        )

    out = report.write_text(H.results_dir() / "serve.txt")
    print(f"\nwall: {wall_s:.2f}s | wrote {out}")

    if errors:
        print(f"\n{len(errors)} request errors:", file=sys.stderr)
        for line in errors[:10]:
            print(f"  {line}", file=sys.stderr)
        return 1
    if mismatches:
        print(f"\n{len(mismatches)} ANSWER MISMATCHES:", file=sys.stderr)
        for line in mismatches[:10]:
            print(f"  {line}", file=sys.stderr)
        return 1
    print("zero answer mismatches against the serial oracle")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
