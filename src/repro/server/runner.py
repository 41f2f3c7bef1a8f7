"""Command-line entry points for the serving layer.

Two subcommands::

    # stand up a server (ephemeral port unless --port is given); SIGINT or
    # SIGTERM triggers a graceful stop and flushes --metrics-out/--trace-out
    python -m repro.server serve --scheme mfc-1/2-1bpc --port 7631

    # same, but durable: acknowledged writes survive kill -9 (write-ahead
    # journal + checkpoints in DIR; crash recovery replays on startup)
    python -m repro.server serve --data-dir /var/tmp/repro-dev --port 7631

    # loopback concurrency sweep (one in-process server per --clients
    # point), or drive an already-running server with --connect
    python -m repro.server bench --clients 1 4 16
    python -m repro.server bench --connect 127.0.0.1:7631 --ops 200
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import socket
import time

from repro import cli
from repro.durability import FSYNC_POLICIES, DurableStore
from repro.durability.checkpoint import read_manifest
from repro.errors import ConfigurationError, DurabilityError, ServerError
from repro.obs import registry as _metrics
from repro.obs.http import ObsHttpServer
from repro.server.loadgen import LoadgenResult, run_closed_loop, run_open_loop
from repro.server.service import ServerConfig, StorageService

__all__ = ["build_parser", "main"]

#: The served device: bigger pages and a longer-lived chip than
#: ``repro.ssd``'s run-to-death defaults.
DEVICE_DEFAULTS = dict(
    scheme="mfc-1/2-1bpc", blocks=16, pages_per_block=16, page_bytes=512,
    erase_limit=10_000, utilization=0.5, constraint_length=7,
)

#: The load generator's seed under ``bench``: every run offers the same ops.
BENCH_SEED = 2016


def add_server_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("server", "serving-layer knobs")
    group.add_argument("--tenant-credit-window", type=int, default=None,
                       metavar="N",
                       help="shared per-tenant un-answered request bound "
                            "(QoS isolation; off by default)")
    group.add_argument("--admission", choices=("block", "reject"),
                       default="block",
                       help="full queue: block readers or answer BUSY")


def _add_durability_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "durability", "write-ahead journal + checkpoints (off by default)"
    )
    group.add_argument("--data-dir", metavar="DIR",
                       help="persist acknowledged writes here (journal + "
                            "checkpoints) and crash-recover on startup")
    group.add_argument("--fsync-policy", choices=FSYNC_POLICIES,
                       default="batch",
                       help="journal sync cadence: 'always' per record, "
                            "'batch' one fsync per coalesced flush (group "
                            "commit), 'none' flush-only (safe against "
                            "kill -9, not power loss)")
    group.add_argument("--checkpoint-every", type=int, default=4096,
                       metavar="N",
                       help="journal records between automatic checkpoints "
                            "(0 disables; recovery always checkpoints once)")


def _add_obs_http_args(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group(
        "telemetry plane", "live HTTP scrape/health sidecar (off by default)"
    )
    group.add_argument("--obs-port", type=int, default=None, metavar="PORT",
                       help="expose /metrics, /healthz, /readyz, /traces and "
                            "/debug/vars on this HTTP port (0 = ephemeral; "
                            "implies telemetry collection)")
    group.add_argument("--obs-host", default="127.0.0.1",
                       help="bind address for the sidecar "
                            "(default %(default)s)")
    group.add_argument("--trace-sample", type=int, default=1, metavar="N",
                       help="head-based sampling: keep every Nth top-level "
                            "span (default 1 = keep all)")


def _check_obs_args(args: argparse.Namespace) -> None:
    """Check the telemetry knobs up front, even with the sidecar off."""
    if args.trace_sample < 1:
        raise ConfigurationError(
            f"--trace-sample must be >= 1, got {args.trace_sample}"
        )
    if args.obs_port is not None and not 0 <= args.obs_port <= 65535:
        raise ConfigurationError(
            f"--obs-port must lie in [0, 65535], got {args.obs_port}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve a simulated SSD over TCP, or benchmark one.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser(
        "serve", help="run the block-storage service until SIGINT/SIGTERM"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="0 picks an ephemeral port (printed at startup)")
    cli.add_device_args(serve, **DEVICE_DEFAULTS)
    add_server_args(serve)
    _add_durability_args(serve)
    cli.add_telemetry_args(serve)
    _add_obs_http_args(serve)

    bench = commands.add_parser(
        "bench", help="drive a server with the load generator"
    )
    bench.add_argument("--connect", metavar="HOST:PORT",
                       help="drive an already-running server instead of "
                            "spinning loopback servers")
    bench.add_argument("--connect-timeout", type=float, default=10.0,
                       help="seconds to wait for --connect to accept")
    bench.add_argument("--mode", choices=("closed", "open"), default="closed")
    bench.add_argument("--clients", type=int, nargs="+", default=[1, 4, 16],
                       help="closed-loop concurrency sweep points")
    bench.add_argument("--ops", type=int, default=100,
                       help="requests per client")
    bench.add_argument("--rate", type=float, default=500.0,
                       help="open loop: offered requests per second")
    cli.add_workload_args(
        bench,
        tenants_help="drive N tenants (weighted interleave in open mode, one "
                     "tenant per client in closed mode) and report "
                     "per-tenant percentiles",
    )
    cli.add_device_args(bench, **DEVICE_DEFAULTS)
    cli.add_telemetry_args(bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Unreachable/unresponsive peers (connect refused, HELLO timeout,
    # non-repro server) are operator errors too: exit 2, no traceback.
    return cli.run(
        parser, args, _command,
        errors=(DurabilityError, ServerError, OSError),
        telemetry=getattr(args, "obs_port", None) is not None,
    )


def _command(args: argparse.Namespace) -> int:
    if args.command == "bench":
        return _bench(args)
    _check_obs_args(args)
    _metrics.get_registry().trace_sample_every = args.trace_sample
    return asyncio.run(_serve(args))


# -- serve --------------------------------------------------------------------


def _stop_event() -> asyncio.Event:
    """An event that SIGINT or SIGTERM sets."""
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # non-Unix loops
            signal.signal(signum, lambda *_: loop.call_soon_threadsafe(stop.set))
    return stop


async def _serve(args: argparse.Namespace) -> int:
    ssd = cli.make_ssd(args, args.scheme)
    store = None
    if args.data_dir:
        store = DurableStore(
            args.data_dir,
            fsync_policy=args.fsync_policy,
            checkpoint_every=args.checkpoint_every,
        )
        # Fail fast — and with the manifest's clear message — on a data
        # directory this build cannot read, before binding the socket.
        read_manifest(store.data_dir)
    config = ServerConfig(
        admission=args.admission,
        tenant_credit_window=args.tenant_credit_window,
    )
    service = StorageService(ssd, config, store=store)
    await service.start(host=args.host, port=args.port)
    obs_server = None
    if args.obs_port is not None:
        def _collect_durability() -> None:
            if store is not None:
                _metrics.gauge("durability.fsync_lag_seconds").set(
                    store.fsync_lag_seconds
                )

        def _debug_vars() -> dict:
            return {
                "scheme": ssd.scheme_name,
                "logical_pages": ssd.logical_pages,
                "dataword_bits": ssd.logical_page_bits,
                "data_dir": args.data_dir,
                "config": service.config.summary(),
            }

        obs_server = ObsHttpServer(
            service=service,
            debug_vars=_debug_vars,
            collectors=(service.publish_stats, _collect_durability),
        )
        await obs_server.start(host=args.obs_host, port=args.obs_port)
        print(
            f"telemetry plane on http://{args.obs_host}:{obs_server.port} "
            "(/metrics /healthz /readyz /traces /debug/vars)",
            flush=True,
        )
    stop = _stop_event()
    # Only the MFC schemes search a coset; name the kernel that will do it.
    # An uncoded device runs the plain FTL, with no scheme.
    code = None if ssd.scheme is None else ssd.scheme.code
    viterbi = getattr(code, "viterbi", None)
    kernel = f", viterbi {viterbi.backend.name}" if viterbi is not None else ""
    print(
        f"serving {ssd.scheme_name} "
        f"({ssd.logical_pages} pages x {ssd.logical_page_bits} bits{kernel}) "
        f"on {args.host}:{service.port}",
        flush=True,
    )
    try:
        report = await service.recovery_done()
        if report is not None:
            print(report.summary(), flush=True)
        await stop.wait()
    finally:
        if obs_server is not None:
            await obs_server.stop()
        await service.stop()
        if store is not None:
            if store.ready:
                # Graceful stop: fold the whole journal into one final
                # checkpoint so the next start recovers instantly.
                store.checkpoint(ssd)
            store.close()
    stats = service.stats
    print(
        f"stopped: {stats.requests} requests "
        f"({stats.reads} reads, {stats.writes} writes, "
        f"{stats.trims} trims, {stats.stat_requests} stat), "
        f"{stats.batches} flushes, max batch {stats.max_batch_size}, "
        f"device {ssd.lifetime_state}",
        flush=True,
    )
    return 0


# -- bench --------------------------------------------------------------------


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not port.isdigit():
        raise ConfigurationError(
            f"--connect expects HOST:PORT, got {value!r}"
        )
    return host or "127.0.0.1", int(port)


def _wait_ready(host: str, port: int, timeout: float) -> None:
    """Poll until the server accepts connections (CI races serve startup)."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            with socket.create_connection((host, port), timeout=1.0):
                return
        except OSError:
            if time.monotonic() >= deadline:
                raise ConfigurationError(
                    f"no server accepting at {host}:{port} "
                    f"after {timeout:.0f}s"
                ) from None
            time.sleep(0.1)


HEADER = (
    f"{'clients':>7} {'mode':>6} {'ops':>6} {'IOPS':>8} "
    f"{'p50ms':>8} {'p95ms':>8} {'p99ms':>8} {'busy':>5} {'errors':>6}"
)


def result_row(result: LoadgenResult) -> str:
    return (
        f"{result.clients:>7} {result.mode:>6} {result.ops:>6} "
        f"{result.achieved_iops:>8.0f} {result.p50_ms:>8.2f} "
        f"{result.p95_ms:>8.2f} {result.p99_ms:>8.2f} "
        f"{result.busy:>5} {result.errors:>6}"
    )


def tenant_rows(result: LoadgenResult) -> str:
    """Per-tenant breakdown lines, each led by a newline; empty for a
    single-tenant run."""
    if len(result.per_tenant) <= 1:
        return ""
    return "".join(
        f"\n    tenant {row.tenant}: {row.ops} ops "
        f"({row.reads}r/{row.writes}w/{row.trims}t) "
        f"p50={row.p50_ms:.2f}ms p95={row.p95_ms:.2f}ms "
        f"p99={row.p99_ms:.2f}ms busy={row.busy} errors={row.errors}"
        for row in result.per_tenant
    )


def _bench(args: argparse.Namespace) -> int:
    workload, params = cli.workload_choice(args)
    load = dict(
        workload=workload,
        seed=BENCH_SEED,
        tenants=args.tenants,
        connect_timeout=args.connect_timeout,
        **params,
    )
    if args.connect:
        return _bench_connect(args, load)
    return _bench_loopback(args, load)


async def _drive(
    args: argparse.Namespace, host: str, port: int, clients: int, load: dict
) -> LoadgenResult:
    """One --clients sweep point of the load generator against host:port."""
    if args.mode == "open":
        return await run_open_loop(
            host, port, rate=args.rate, total_ops=clients * args.ops, **load
        )
    return await run_closed_loop(
        host, port, clients=clients, ops_per_client=args.ops, **load
    )


def _bench_connect(args: argparse.Namespace, load: dict) -> int:
    """Drive an external server once per --clients sweep point."""
    host, port = _parse_hostport(args.connect)
    _wait_ready(host, port, args.connect_timeout)
    print(HEADER)
    for clients in args.clients:
        result = asyncio.run(_drive(args, host, port, clients, load))
        print(result_row(result) + tenant_rows(result), flush=True)
    return 0


def _bench_loopback(args: argparse.Namespace, load: dict) -> int:
    """Drive a fresh in-process device + server per --clients sweep point."""

    async def point(clients: int) -> tuple[LoadgenResult, StorageService]:
        service = StorageService(cli.make_ssd(args, args.scheme))
        async with service:
            result = await _drive(
                args, "127.0.0.1", service.port, clients, load
            )
        return result, service

    print(HEADER + f" {'flushes':>7} {'maxB':>4} {'state':>9}")
    for clients in args.clients:
        result, service = asyncio.run(point(clients))
        print(
            result_row(result)
            + f" {service.stats.batches:>7} {service.stats.max_batch_size:>4} "
              f"{service.ssd.lifetime_state:>9}"
            + tenant_rows(result),
            flush=True,
        )
    return 0
