"""Command-line entry points for cluster serving.

Two subcommands::

    # stand up N shard workers + the cluster telemetry plane; SIGINT or
    # SIGTERM stops the fleet.  --state-file publishes endpoints + pids
    # as JSON for tooling (bench --connect-state, CI kill -9).
    python -m repro.cluster serve --shards 3 --redundancy 2 \\
        --state-file /tmp/cluster.json

    # self-contained bench: launch a fleet, drive it through the router,
    # tear it down; or drive an already-running fleet via its state file
    python -m repro.cluster bench --shards 3 --redundancy 2 --clients 16
    python -m repro.cluster bench --connect-state /tmp/cluster.json
"""

from __future__ import annotations

import argparse
import asyncio
import tempfile
from pathlib import Path

from repro import cli
from repro.cluster.loadgen import run_cluster_closed_loop
from repro.cluster.obs import ClusterObsServer
from repro.cluster.supervisor import (
    ClusterSupervisor,
    endpoints_from_state,
    read_state_file,
)
from repro.durability import FSYNC_POLICIES
from repro.errors import DurabilityError, ServerError
from repro.server.runner import (
    DEVICE_DEFAULTS,
    HEADER,
    add_server_args,
    result_row,
)
from repro.workload import WORKLOADS

__all__ = ["build_parser", "main"]


def _shard_flags() -> argparse.ArgumentParser:
    """The ``repro.server serve`` flags a fleet command takes for its shards.

    Declared by the server's own flag functions and device defaults, so
    this CLI checks types and choices itself instead of each shard dying on
    its usage text, and a flag the server gains is forwarded without a
    second list here.
    """
    parser = argparse.ArgumentParser(add_help=False)
    cli.add_device_args(parser, **DEVICE_DEFAULTS)
    add_server_args(parser)
    parser.add_argument("--fsync-policy", choices=FSYNC_POLICIES,
                        default="batch",
                        help="journal sync cadence of every shard "
                             "(with --data-dir)")
    return parser


def _add_fleet_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("fleet", "the shard fleet to launch")
    group.add_argument("--shards", type=int, default=3,
                       help="shard worker processes (default %(default)s)")
    group.add_argument("--redundancy", type=int, default=1,
                       help="replicas per LPN; writes ack after this many "
                            "shards acknowledged (default %(default)s)")
    group.add_argument("--data-dir", metavar="DIR",
                       help="per-shard durable dirs DIR/shard-N "
                            "(journal + checkpoints)")
    group.add_argument("--run-dir", metavar="DIR",
                       help="per-shard log files land here "
                            "(default: a temp dir)")
    group.add_argument("--state-file", metavar="PATH",
                       help="write fleet endpoints + pids here as JSON")
    group.add_argument("--start-timeout", type=float, default=30.0,
                       help="seconds to wait for each shard's banner")


def _shard_extra_args(args: argparse.Namespace) -> tuple[str, ...]:
    """Every shard flag as parsed, back in argv form (unset ones left out)."""
    extra: list[str] = []
    for dest in vars(_shard_flags().parse_args([])):
        value = getattr(args, dest)
        if value is not None:
            extra += ["--" + dest.replace("_", "-"), str(value)]
    return tuple(extra)


def _make_supervisor(args: argparse.Namespace) -> ClusterSupervisor:
    run_dir = args.run_dir or tempfile.mkdtemp(prefix="repro-cluster-")
    return ClusterSupervisor(
        args.shards,
        run_dir=run_dir,
        data_dir=args.data_dir,
        redundancy=args.redundancy,
        extra_args=_shard_extra_args(args),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cluster",
        description="Serve a sharded SSD cluster, or benchmark one.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", parents=[_shard_flags()],
        help="run a shard fleet until SIGINT/SIGTERM",
    )
    _add_fleet_args(serve)
    serve.add_argument("--obs-port", type=int, default=0, metavar="PORT",
                       help="cluster-wide /metrics + /healthz port "
                            "(default: ephemeral)")
    serve.add_argument("--obs-host", default="127.0.0.1")
    serve.add_argument("--metrics-out", metavar="PATH",
                       help="write the merged cluster metrics here on stop")

    bench = commands.add_parser(
        "bench", parents=[_shard_flags()],
        help="drive a cluster with the load generator",
    )
    _add_fleet_args(bench)
    bench.add_argument("--connect-state", metavar="PATH",
                       help="drive the running fleet described by this "
                            "state file instead of launching one")
    bench.add_argument("--connect-timeout", type=float, default=10.0,
                       help="seconds to wait for each shard connection")
    cli.add_load_args(bench)
    bench.add_argument("--workload", choices=sorted(WORKLOADS),
                       default="uniform")
    cli.add_telemetry_args(bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # serve writes its own dump: the shard-labelled *merged* text, not this
    # process's (mostly empty) local registry.
    return cli.run(
        parser, args, _command,
        errors=(DurabilityError, ServerError, OSError),
        write_dumps=args.command == "bench",
    )


def _command(args: argparse.Namespace) -> int:
    if args.command == "serve":
        return asyncio.run(_serve(args))
    return _bench(args)


# -- serve --------------------------------------------------------------------


async def _serve(args: argparse.Namespace) -> int:
    supervisor = _make_supervisor(args)
    supervisor.start(timeout=args.start_timeout)
    obs_server = None
    try:
        if args.state_file:
            supervisor.write_state_file(args.state_file)
            print(f"cluster state in {args.state_file}", flush=True)
        obs_server = ClusterObsServer(supervisor.obs_endpoints())
        await obs_server.start(host=args.obs_host, port=args.obs_port)
        # Install the handlers before announcing readiness: tooling that
        # reads the banner may signal immediately, and a SIGTERM landing
        # in the gap would skip the graceful fleet teardown.
        stop = cli.stop_event()
        print(
            f"cluster telemetry on http://{args.obs_host}:{obs_server.port} "
            "(/metrics /healthz)",
            flush=True,
        )
        for shard, (host, port) in sorted(supervisor.endpoints().items()):
            print(f"shard {shard} serving on {host}:{port}", flush=True)
        print(
            f"cluster of {args.shards} shards up "
            f"(redundancy {args.redundancy})",
            flush=True,
        )
        await stop.wait()
    finally:
        if obs_server is not None:
            if args.metrics_out:
                # The scrape cache may predate the last traffic burst;
                # resweep while the shards are still up so the dump is
                # the fleet's final word.
                try:
                    await obs_server.refresh()
                except Exception:
                    pass
                _status, _ctype, body = obs_server._metrics()
                path = Path(args.metrics_out)
                path.parent.mkdir(parents=True, exist_ok=True)
                path.write_bytes(body)
            await obs_server.stop()
        supervisor.stop()
    print("cluster stopped", flush=True)
    return 0


# -- bench --------------------------------------------------------------------


def _bench(args: argparse.Namespace) -> int:
    if args.connect_state:
        state = read_state_file(args.connect_state)
        return _bench_endpoints(args, endpoints_from_state(state))
    supervisor = _make_supervisor(args)
    supervisor.start(timeout=args.start_timeout)
    try:
        if args.state_file:
            supervisor.write_state_file(args.state_file)
        return _bench_endpoints(args, supervisor.endpoints())
    finally:
        supervisor.stop()


def _bench_endpoints(
    args: argparse.Namespace, endpoints: dict[int, tuple[str, int]]
) -> int:
    print(HEADER)
    for clients in args.clients:
        result = asyncio.run(run_cluster_closed_loop(
            endpoints,
            redundancy=args.redundancy,
            clients=clients,
            ops_per_client=args.ops,
            workload=args.workload,
            read_fraction=args.read_fraction,
            seed=args.seed,
            connect_timeout=args.connect_timeout,
        ))
        print(result_row(result), flush=True)
    return 0
