"""Availability battery for the replicated serving fleet (DESIGN.md §15).

Drives concurrent clients through a :class:`FleetRouter` across three
legs of increasing hostility:

* ``clean``  — the healthy 3-replica fleet;
* ``chaos``  — a seeded :class:`ChaosProxy` on one replica's data path
  resets and refuses connections (self-hosted mode only);
* ``kill``   — one replica is SIGKILLed mid-load; the supervisor must
  restart it and the fleet must keep answering meanwhile.

Every 200 response is byte-compared against a serially-computed oracle
answer.  The battery *fails* (exit 1) on any answer mismatch or if any
leg's success rate drops below 99% — replication must buy availability
without ever changing answers.  Per-leg latency distributions,
success rates, and the killed replica's recovery time land in
``results/fleet.txt``.

Two modes:

* default — boots its own fleet: three ``repro serve`` subprocess
  replicas, chaos proxy, in-process router;
* ``--url`` — drives an external router (the CI ``fleet-smoke`` job
  boots ``repro fleet`` and points here).  With ``--state-file`` (the
  router's ``--state-file`` output) the kill leg SIGKILLs a real
  replica pid; without it the kill leg is skipped.
"""

from __future__ import annotations

import argparse
import http.client
import json
import os
import signal
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple
from urllib.parse import urlsplit

import _harness as H
from repro.answering import QueryAnswerer
from repro.bench import summarize
from repro.datasets import build_lubm_database
from repro.query import to_sparql

#: The LUBM workload slice the clients loop over (cheap-but-real; the
#: monster reformulations would serialize the load behind one query).
QUERY_NAMES = ("Q01", "Q03", "Q04", "Q05", "Q10", "Q11", "Q14")

CHAOS_RESET_RATE = 0.2
CHAOS_REFUSE_RATE = 0.1


def _jobs_and_oracle(universities: int) -> Tuple[List[Tuple[str, str]], Dict[str, List[str]]]:
    """``(name, sparql)`` jobs plus serially-computed expected rows."""
    db = build_lubm_database(universities=universities, seed=0)
    answerer = QueryAnswerer(db)
    entries = {e.name: e.query for e in H.lubm_queries(include_motivating=False)}
    jobs, expected = [], {}
    for name in QUERY_NAMES:
        jobs.append((name, to_sparql(entries[name])))
        answers = answerer.answer(entries[name], strategy="saturation").answers
        expected[name] = sorted(
            "\t".join(str(term) for term in row) for row in answers
        )
    return jobs, expected


class LegStats:
    """One leg's merged client outcomes."""

    def __init__(self, leg: str) -> None:
        self.leg = leg
        self.total = 0
        self.ok = 0
        self.latencies_s: List[float] = []
        self.errors: List[str] = []
        self.mismatches: List[str] = []
        self._lock = threading.Lock()

    def record(self, name: str, latency_s: Optional[float], error: Optional[str],
               mismatch: Optional[str]) -> None:
        with self._lock:
            self.total += 1
            if error is not None:
                self.errors.append(f"{name}: {error}")
                return
            self.ok += 1
            if latency_s is not None:
                self.latencies_s.append(latency_s)
            if mismatch is not None:
                self.mismatches.append(f"{name}: {mismatch}")

    @property
    def success_rate(self) -> float:
        return self.ok / self.total if self.total else 0.0


def _drive_client(
    index: int,
    host: str,
    port: int,
    jobs: List[Tuple[str, str]],
    requests: int,
    expected: Dict[str, List[str]],
    stats: LegStats,
) -> None:
    """One client: keep-alive connection, sequential requests.

    The *router* owns retries and failover; the client only reconnects
    its own transport and books each request's final outcome.
    """
    conn = http.client.HTTPConnection(host, port, timeout=300)
    headers = {"Content-Type": "application/json"}
    try:
        for k in range(requests):
            name, text = jobs[(index + k) % len(jobs)]
            body = json.dumps({"query": text, "dataset": "lubm"})
            started = time.perf_counter()
            try:
                conn.request("POST", "/query", body=body, headers=headers)
                response = conn.getresponse()
                payload = json.loads(response.read())
            except (http.client.HTTPException, OSError, ValueError) as error:
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=300)
                stats.record(name, None, f"{type(error).__name__}: {error}", None)
                continue
            elapsed = time.perf_counter() - started
            if response.status != 200:
                stats.record(name, None, f"HTTP {response.status} {payload}", None)
                continue
            mismatch = None
            if payload["rows"] != expected[name]:
                mismatch = (
                    f"{payload['answer_count']} rows != "
                    f"{len(expected[name])} expected"
                )
            stats.record(name, elapsed, None, mismatch)
    finally:
        conn.close()


def _run_leg(
    leg: str,
    host: str,
    port: int,
    jobs: List[Tuple[str, str]],
    clients: int,
    requests: int,
    expected: Dict[str, List[str]],
    mid_leg: Optional[threading.Timer] = None,
) -> Tuple[LegStats, float]:
    stats = LegStats(leg)
    threads = [
        threading.Thread(
            target=_drive_client,
            args=(index, host, port, jobs, requests, expected, stats),
            name=f"fleet-client-{index}",
        )
        for index in range(clients)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    if mid_leg is not None:
        mid_leg.start()
    for thread in threads:
        thread.join()
    if mid_leg is not None:
        mid_leg.join()
    return stats, time.perf_counter() - started


def _router_status(host: str, port: int) -> dict:
    conn = http.client.HTTPConnection(host, port, timeout=30)
    try:
        conn.request("GET", "/status")
        return json.loads(conn.getresponse().read())
    finally:
        conn.close()


def _replica_view(host: str, port: int, name: str) -> Optional[dict]:
    try:
        status = _router_status(host, port)
    except (http.client.HTTPException, OSError, ValueError):
        return None
    for replica in status.get("replicas", []):
        if replica.get("name") == name:
            return replica
    return None


def _restarts(host: str, port: int, name: str) -> Optional[int]:
    """The supervisor's restart count for *name* (None without one)."""
    replica = _replica_view(host, port, name)
    if replica is None:
        return None
    process = replica.get("process") or {}
    return process.get("restarts") if process else None


def _await_recovery(
    host: str,
    port: int,
    name: str,
    baseline_restarts: Optional[int],
    timeout_s: float = 120.0,
) -> Optional[float]:
    """Seconds until the killed replica is UP again (None = never).

    With a supervised replica the proof of recovery is the restart
    counter moving past its pre-kill baseline while the replica is UP —
    that holds even when the relaunch finished before polling started
    (a long kill leg).  Without process info, fall back to observing
    the outage first so a stale pre-kill UP snapshot cannot read as an
    instant recovery.
    """
    started = time.perf_counter()
    deadline = started + timeout_s
    seen_down = False
    while time.perf_counter() < deadline:
        replica = _replica_view(host, port, name)
        if replica is not None:
            process = replica.get("process") or {}
            up = replica["health"]["state"] == "up"
            if process and baseline_restarts is not None:
                if (
                    up
                    and process.get("alive")
                    and process.get("restarts", 0) > baseline_restarts
                ):
                    return time.perf_counter() - started
            else:
                down = not up or (process and not process.get("alive"))
                if not seen_down:
                    seen_down = bool(down)
                elif not down:
                    return time.perf_counter() - started
        time.sleep(0.1)
    return None


def _self_hosted(universities: int, seed: int):
    """Boot 3 subprocess replicas + chaos proxy + in-process router."""
    from repro.fleet import (
        ChaosProxy,
        FleetRouter,
        HealthPolicy,
        ProxyChaosConfig,
        Replica,
        RouterConfig,
    )
    from repro.fleet.replicas import ReplicaProcess, spawn_fleet
    from repro.telemetry import MetricsRegistry

    src_root = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    argv = [
        sys.executable, "-m", "repro", "serve",
        "--lubm", str(universities), "--seed", "0", "--workers", "4",
    ]
    workdir = Path(tempfile.mkdtemp(prefix="bench-fleet-"))
    processes = [
        ReplicaProcess(name, argv, workdir, env=env, backoff_s=0.2)
        for name in ("r0", "r1", "r2")
    ]
    ports = dict(spawn_fleet(processes, startup_timeout_s=240.0))
    proxy = ChaosProxy(
        "127.0.0.1", ports["r1"], ProxyChaosConfig(seed=seed)
    ).start()
    policy = HealthPolicy(interval_s=0.2, timeout_s=1.0, fall=2, rise=2)
    replicas = [
        Replica("r0", "127.0.0.1", ports["r0"],
                process=processes[0], health_policy=policy),
        Replica("r1", proxy.address[0], proxy.address[1],
                probe_host="127.0.0.1", probe_port=ports["r1"],
                process=processes[1], health_policy=policy),
        Replica("r2", "127.0.0.1", ports["r2"],
                process=processes[2], health_policy=policy),
    ]
    router = FleetRouter(
        replicas,
        config=RouterConfig(
            max_attempts=5,
            retry_backoff_s=0.02,
            health=policy,
            breaker_cooldown_s=0.5,
            replica_grace_s=5.0,
            # Bound the tail: a single wedged upstream attempt must cost
            # seconds, not the 30s default, before retry/hedge takes over.
            upstream_timeout_s=10.0,
        ),
        registry=MetricsRegistry(),
    ).start()
    return router, processes, proxy


def run(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--clients", type=int, default=8, help="concurrent clients")
    parser.add_argument(
        "--requests", type=int, default=12, help="requests per client per leg"
    )
    parser.add_argument(
        "--universities",
        type=int,
        default=H.LUBM_SMALL_UNIVERSITIES,
        help="LUBM scale (must match the replicas' --lubm in --url mode)",
    )
    parser.add_argument(
        "--seed", type=int, default=20260807, help="chaos campaign seed"
    )
    parser.add_argument(
        "--url", default=None, help="drive an external fleet router"
    )
    parser.add_argument(
        "--state-file",
        default=None,
        help="router --state-file output (enables the kill leg in --url mode)",
    )
    args = parser.parse_args(argv)

    print(
        f"fleet bench: {args.clients} clients x {args.requests} requests/leg, "
        f"{len(QUERY_NAMES)} distinct queries (lubm x{args.universities})"
    )
    print("computing serial oracle answers ...")
    jobs, expected = _jobs_and_oracle(args.universities)

    router = processes = proxy = None
    kill_pid: Optional[int] = None
    kill_name = "r0"
    if args.url:
        parts = urlsplit(args.url)
        host, port = parts.hostname, parts.port or 80
        if args.state_file:
            state = json.loads(Path(args.state_file).read_text())
            first = state["replicas"][0]
            kill_name, kill_pid = first["name"], first.get("pid")
        mode = "url"
    else:
        router, processes, proxy = _self_hosted(args.universities, args.seed)
        host, port = router.address
        kill_pid = processes[0].pid
        mode = "self-hosted"
    print(f"target: http://{host}:{port} ({mode})")

    legs: List[Tuple[LegStats, float]] = []
    recovery_s: Optional[float] = None
    try:
        # Wait until the whole fleet is routable before the clean leg.
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            try:
                status = _router_status(host, port)
            except (http.client.HTTPException, OSError, ValueError):
                time.sleep(0.25)
                continue
            if all(
                r["health"]["state"] == "up" for r in status.get("replicas", [])
            ):
                break
            time.sleep(0.25)

        def leg(name: str, timer: Optional[threading.Timer] = None) -> LegStats:
            stats, wall_s = _run_leg(
                name, host, port, jobs, args.clients, args.requests,
                expected, mid_leg=timer,
            )
            legs.append((stats, wall_s))
            print(
                f"  leg {name:6} {stats.ok}/{stats.total} ok "
                f"({100.0 * stats.success_rate:.1f}%), "
                f"{len(stats.mismatches)} mismatches, {wall_s:.2f}s"
            )
            return stats

        print("driving legs ...")
        leg("clean")

        if proxy is not None:
            from repro.fleet import ProxyChaosConfig

            proxy.reconfigure(
                ProxyChaosConfig(
                    seed=args.seed,
                    reset_rate=CHAOS_RESET_RATE,
                    refuse_rate=CHAOS_REFUSE_RATE,
                )
            )
            leg("chaos")

        if kill_pid is not None:
            baseline = _restarts(host, port, kill_name)
            timer = threading.Timer(0.5, os.kill, args=(kill_pid, signal.SIGKILL))
            leg("kill", timer=timer)
            recovery_s = _await_recovery(host, port, kill_name, baseline)
            if recovery_s is None:
                print(f"{kill_name} never recovered", file=sys.stderr)
            else:
                print(f"  {kill_name} recovered in {recovery_s:.2f}s")
        else:
            print("  leg kill   skipped (no replica pid; pass --state-file)")
    finally:
        if proxy is not None:
            proxy.stop()
        if router is not None:
            router.stop()
        if processes is not None:
            for process in processes:
                process.terminate(grace_s=5.0)

    report = H.bench_report(
        "fleet", "Replicated fleet availability under chaos and replica loss"
    )
    report.scales["clients"] = args.clients
    report.scales["requests_per_client"] = args.requests
    report.scales["chaos_seed"] = args.seed
    print(f"\n{'leg':8}{'n':>6}{'ok':>6}{'p50 ms':>10}{'p99 ms':>10}{'req/s':>9}")
    for stats, wall_s in legs:
        distribution = summarize([1000.0 * v for v in stats.latencies_s])
        throughput = stats.ok / wall_s if wall_s > 0 else 0.0
        report.add_cell(
            {"leg": stats.leg},
            status="ok" if stats.ok else "failed",
            metrics={
                "latency_ms": distribution,
                "throughput_rps": round(throughput, 3),
                "success_rate": round(stats.success_rate, 6),
            },
        )
        print(
            f"{stats.leg:8}{stats.total:>6}{stats.ok:>6}"
            f"{distribution.get('p50', 0.0):>10.1f}"
            f"{distribution.get('p99', 0.0):>10.1f}"
            f"{throughput:>9.1f}"
        )
    if kill_pid is not None:
        report.add_cell(
            {"leg": "recovery"},
            status="ok" if recovery_s is not None else "failed",
            metrics={} if recovery_s is None else {"recovery_s": round(recovery_s, 3)},
            info={"killed": kill_name},
        )

    out = report.write_text(H.results_dir() / "fleet.txt")
    print(f"\nwrote {out}")

    failed = False
    for stats, _wall_s in legs:
        if stats.mismatches:
            failed = True
            print(
                f"\n{len(stats.mismatches)} ANSWER MISMATCHES in leg "
                f"{stats.leg}:", file=sys.stderr,
            )
            for line in stats.mismatches[:10]:
                print(f"  {line}", file=sys.stderr)
        if stats.success_rate < 0.99:
            failed = True
            print(
                f"\nleg {stats.leg}: success rate "
                f"{100.0 * stats.success_rate:.2f}% < 99%:", file=sys.stderr,
            )
            for line in stats.errors[:10]:
                print(f"  {line}", file=sys.stderr)
    if kill_pid is not None and recovery_s is None:
        failed = True
    if failed:
        return 1
    print("zero answer mismatches; every leg >= 99% success")
    return 0


if __name__ == "__main__":
    raise SystemExit(run())
