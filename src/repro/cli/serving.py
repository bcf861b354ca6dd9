"""``repro serve`` and ``repro fleet``: the HTTP service, one process or
a supervised set of them."""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import threading
from contextlib import ExitStack
from pathlib import Path
from typing import List

from ..cache import QueryCache
from .common import (
    ENGINE,
    LIMIT,
    SEED,
    STRATEGY,
    TIMEOUT,
    Arg,
    Command,
    UsageError,
    load_database,
    open_answerer,
)

#: What a replica is: the datasets it serves and how it answers them.
#: ``repro serve`` takes these and ``repro fleet`` forwards them, flag
#: for flag, to every replica it launches (:func:`_replica_argv`) — so
#: under ``fleet`` each help line reads "on every replica".
REPLICA = (
    Arg(
        "--data",
        action="append",
        metavar="NAME=PATH",
        help="serve an N-Triples file as dataset NAME (repeatable)",
    ),
    Arg(
        "--lubm",
        type=int,
        metavar="N",
        help="also serve a synthetic N-university LUBM dataset as 'lubm'",
    ),
    Arg(
        "--dblp",
        type=int,
        metavar="N",
        help="also serve a synthetic N-publication DBLP dataset as 'dblp'",
    ),
    SEED.but(help="synthetic dataset seed"),
    ENGINE.but(help=None),
    STRATEGY.but(help=None),
    Arg("--workers", type=int, help="execution pool width"),
    LIMIT.but(
        default=None, help="reformulation term limit applied to every dataset"
    ),
    Arg(
        "--tenants",
        metavar="PATH",
        help="tenants.json with API keys and quotas (default: open single-tenant)",
    ),
    TIMEOUT.but(metavar="SECONDS", help="default per-request wall-clock cap"),
    Arg(
        "--drain-grace",
        type=float,
        default=30.0,
        metavar="SECONDS",
        help="how long a drain waits for in-flight queries",
    ),
)
PORT = Arg("--port", type=int, default=8425, help="listen port (0 = ephemeral)")
#: The front door either command opens (after its ``--port``).
LISTENER = (
    Arg("--host", default="127.0.0.1"),
    Arg(
        "--port-file",
        metavar="PATH",
        help="write the bound port here once listening (use with --port 0)",
    ),
    Arg(
        "--metrics-out",
        metavar="PATH",
        help="write a final registry snapshot (JSON) during drain",
    ),
)


def _named_paths(declarations) -> List[tuple]:
    """``--data NAME=PATH`` flags as ``(name, path)`` pairs."""
    pairs = []
    for declaration in declarations or []:
        name, _, path = declaration.partition("=")
        if not path:
            raise SystemExit(f"bad --data {declaration!r}; expected NAME=PATH")
        pairs.append((name, path))
    return pairs


def _announce(server, describe, args, state=None) -> None:
    """Once ``server`` listens: say so, write ``--port-file`` (and the
    fleet's ``--state-file``), on a thread beside ``server.run()``."""

    def announce() -> None:
        if not server.wait_ready(30) or server.address is None:
            return
        host, port = server.address
        print(f"# repro-{args.command} {describe(host, port)}", file=sys.stderr)
        if state is not None and args.state_file:
            with open(args.state_file, "w", encoding="utf-8") as sink:
                json.dump(state(host, port), sink, indent=2)
                sink.write("\n")
        if args.port_file:
            with open(args.port_file, "w", encoding="utf-8") as sink:
                sink.write(f"{port}\n")

    threading.Thread(
        target=announce, name=f"repro-{args.command}-announce", daemon=True
    ).start()


def cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: run the multi-tenant query service (DESIGN.md §14).

    Loads one or more datasets (N-Triples files and/or synthetic
    generators), wraps each in a cache-backed answerer, and serves
    them until SIGTERM/SIGINT triggers a graceful drain (finish
    in-flight queries, flush metrics, exit 0).
    """
    from ..service import QueryService, ServiceConfig, TenantRegistry

    datasets = {name: load_database(path) for name, path in _named_paths(args.data)}
    if args.lubm is not None:
        from ..datasets import build_lubm_database

        datasets["lubm"] = build_lubm_database(universities=args.lubm, seed=args.seed)
    if args.dblp is not None:
        from ..datasets import build_dblp_database

        datasets["dblp"] = build_dblp_database(publications=args.dblp, seed=args.seed)
    if not datasets:
        raise UsageError("repro serve needs at least one --data/--lubm/--dblp")
    if args.tenants:
        with open(args.tenants, "r", encoding="utf-8") as source:
            tenants = TenantRegistry.from_dict(json.load(source))
    else:
        tenants = TenantRegistry.open_registry()
    config = ServiceConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        default_strategy=args.strategy,
        resilient=not args.direct,
        default_timeout_s=args.timeout,
        drain_grace_s=args.drain_grace,
        metrics_flush_path=args.metrics_out,
    )
    with ExitStack() as stack:
        answerers = {
            name: stack.enter_context(open_answerer(database, args, cache=QueryCache()))
            for name, database in datasets.items()
        }
        service = QueryService(answerers, tenants=tenants, config=config)
        _announce(
            service,
            lambda host, port: f"listening on http://{host}:{port} "
            f"datasets={sorted(answerers)} tenants={len(tenants)}",
            args,
        )
        return service.run()


def _replica_argv(args: argparse.Namespace) -> List[str]:
    """The ``repro serve`` command line of one replica: every
    :data:`REPLICA` flag the fleet was given, paths made absolute (the
    replicas run in ``--workdir``)."""
    argv = [sys.executable, "-m", "repro", "serve"]
    for arg in REPLICA:
        value = getattr(args, arg.dest)
        if value is None:
            continue
        if arg.dest == "data":
            value = [f"{name}={Path(path).resolve()}" for name, path in _named_paths(value)]
        elif arg.dest == "tenants":
            value = Path(value).resolve()
        for item in value if isinstance(value, list) else [value]:
            argv += [arg.flags[-1], str(item)]
    return argv


def cmd_fleet(args: argparse.Namespace) -> int:
    """``repro fleet``: a supervised replicated serving fleet (DESIGN.md §15).

    Launches N ``repro serve`` replicas of the same datasets (or
    attaches to already-running ones with ``--attach``) and routes one
    HTTP front door across them: health-probed failover, bounded
    retries, hedged tail requests, and crash-restart supervision.
    SIGTERM drains the router, then the managed replicas, and exits 0.
    """
    from urllib.parse import urlparse

    from ..fleet import FleetRouter, HealthPolicy, Replica, RouterConfig
    from ..fleet.replicas import ReplicaProcess, spawn_fleet

    policy = HealthPolicy(
        interval_s=args.probe_interval,
        timeout_s=args.probe_timeout,
        fall=args.fall,
        rise=args.rise,
    )
    replicas = []
    if args.attach:
        for index, url in enumerate(args.attach):
            parsed = urlparse(url if "//" in url else f"http://{url}")
            if parsed.hostname is None or parsed.port is None:
                raise SystemExit(f"bad --attach {url!r}; expected http://HOST:PORT")
            replicas.append(
                Replica(
                    f"r{index}", parsed.hostname, parsed.port, health_policy=policy
                )
            )
    else:
        if not (args.data or args.lubm is not None or args.dblp is not None):
            raise UsageError(
                "repro fleet needs --attach or at least one --data/--lubm/--dblp"
            )
        serve_argv = _replica_argv(args)
        workdir = Path(args.workdir or tempfile.mkdtemp(prefix="repro-fleet-"))
        env = dict(os.environ)
        # src/repro/cli/serving.py -> src: what the replicas import from.
        src_root = str(Path(__file__).resolve().parents[2])
        env["PYTHONPATH"] = src_root + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        processes = [
            ReplicaProcess(f"r{index}", serve_argv, workdir, env=env)
            for index in range(args.replicas)
        ]
        print(
            f"# repro-fleet booting {len(processes)} replicas "
            f"(logs under {workdir})",
            file=sys.stderr,
        )
        ports = spawn_fleet(processes, startup_timeout_s=args.startup_timeout)
        replicas = [
            Replica(name, "127.0.0.1", port, process=process, health_policy=policy)
            for (name, port), process in zip(ports, processes)
        ]
    config = RouterConfig(
        host=args.host,
        port=args.port,
        max_attempts=args.max_attempts,
        upstream_timeout_s=args.upstream_timeout,
        default_timeout_s=args.timeout,
        hedge=not args.no_hedge,
        hedge_after_s=args.hedge_after,
        health=policy,
        drain_grace_s=args.drain_grace,
        metrics_flush_path=args.metrics_out,
    )
    router = FleetRouter(replicas, config=config)

    def state(host: str, port: int) -> dict:
        return {
            "router": {"host": host, "port": port, "pid": os.getpid()},
            "replicas": [
                {
                    "name": r.name,
                    "host": r.host,
                    "port": r.port,
                    "pid": None if r.process is None else r.process.pid,
                }
                for r in replicas
            ],
        }

    _announce(
        router,
        lambda host, port: f"routing http://{host}:{port} across "
        f"{[f'{r.name}={r.url}' for r in replicas]}",
        args,
        state,
    )
    return router.run()


SERVE = Command(
    "serve",
    "run the multi-tenant query service (DESIGN.md §14)",
    cmd_serve,
    (
        REPLICA,
        PORT,
        LISTENER,
        Arg(
            "--queue-depth",
            type=int,
            default=64,
            help="max requests accepted but not yet executing (backpressure gate)",
        ),
        Arg(
            "--direct",
            action="store_true",
            help="answer without the fallback ladder by default",
        ),
    ),
)
FLEET = Command(
    "fleet",
    "run a supervised replicated serving fleet (DESIGN.md §15)",
    cmd_fleet,
    (
        REPLICA,
        PORT.but(default=8426, help="router listen port (0 = ephemeral)"),
        LISTENER,
        Arg("--replicas", type=int, default=3, metavar="N", help="replicas to launch"),
        Arg(
            "--attach",
            action="append",
            metavar="URL",
            help="route across already-running replicas instead of launching "
            "(repeatable; disables supervision)",
        ),
        Arg(
            "--state-file",
            metavar="PATH",
            help="write fleet topology JSON (router + replica pids/ports) here",
        ),
        Arg(
            "--workdir",
            metavar="PATH",
            help="replica logs and port files land here (default: a tempdir)",
        ),
        Arg(
            "--max-attempts",
            type=int,
            default=4,
            help="routing attempts per request (first try included)",
        ),
        Arg(
            "--upstream-timeout",
            type=float,
            default=30.0,
            metavar="SECONDS",
            help="per-attempt upstream response deadline",
        ),
        Arg("--no-hedge", action="store_true", help="disable hedged requests"),
        Arg(
            "--hedge-after",
            type=float,
            metavar="SECONDS",
            help="fixed hedge delay (default: p95 of observed latency)",
        ),
        Arg(
            "--probe-interval",
            type=float,
            default=0.5,
            metavar="SECONDS",
            help="seconds between health-probe rounds",
        ),
        Arg(
            "--probe-timeout",
            type=float,
            default=1.0,
            metavar="SECONDS",
            help="per-probe deadline (slow probes count as failures)",
        ),
        Arg(
            "--fall",
            type=int,
            default=2,
            help="consecutive probe failures that mark a replica down",
        ),
        Arg(
            "--rise",
            type=int,
            default=2,
            help="consecutive probe successes that re-admit a replica",
        ),
        Arg(
            "--startup-timeout",
            type=float,
            default=120.0,
            metavar="SECONDS",
            help="how long to wait for launched replicas to announce ports",
        ),
    ),
)
