"""The command-line vocabulary the runners share.

A flag or a piece of ``main`` that two of ``python -m repro.experiments``,
``repro.ssd`` and ``repro.server`` take is declared here once, so it is
spelled, typed, documented and handled the same everywhere.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Callable

from repro.errors import ConfigurationError
from repro.flash.geometry import FlashGeometry
from repro.obs import registry as _metrics
from repro.obs.export import write_metrics, write_trace
from repro.ssd.device import SSD
from repro.workload import WORKLOADS, parse_phase_spec


def add_device_args(parser: argparse.ArgumentParser, **defaults) -> None:
    """The simulated SSD's flags, defaulting to the runner's ``defaults``.

    A ``scheme`` default adds ``--scheme`` (``repro.ssd`` has ``--schemes``).
    """
    group = parser.add_argument_group("device", "the simulated SSD")
    if "scheme" in defaults:
        group.add_argument("--scheme")
    group.add_argument("--blocks", type=int)
    group.add_argument("--pages-per-block", type=int)
    group.add_argument("--page-bytes", type=int)
    group.add_argument("--erase-limit", type=int)
    group.add_argument("--utilization", type=float)
    group.add_argument("--constraint-length", type=int,
                       help="trellis size for MFC schemes")
    parser.set_defaults(**defaults)


def make_ssd(args: argparse.Namespace, scheme: str, **options) -> SSD:
    """The device :func:`add_device_args` parsed, running ``scheme``."""
    if scheme.startswith("mfc") and scheme != "mfc-ecc":  # conv. MFCs only
        options["constraint_length"] = args.constraint_length
    geometry = FlashGeometry(
        blocks=args.blocks,
        pages_per_block=args.pages_per_block,
        page_bits=args.page_bytes * 8,
        erase_limit=args.erase_limit,
    )
    return SSD(geometry=geometry, scheme=scheme,
               utilization=args.utilization, **options)


def add_workload_args(
    parser: argparse.ArgumentParser, *, tenants_help: str
) -> None:
    """The workload flags; what ``--tenants`` does is the runner's."""
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        default="uniform")
    parser.add_argument("--trace", metavar="PATH",
                        help="replay a CSV block trace (timestamp,op,offset,"
                             "size or 7-column MSR rows) instead of a "
                             "synthetic workload")
    parser.add_argument("--trace-page-bytes", type=int, default=4096,
                        help="logical page size used to map CSV trace byte "
                             "offsets to pages")
    parser.add_argument("--phase", metavar="SPEC",
                        help="time-varying load: comma-separated NAME:OPS "
                             "phases, e.g. 'uniform:200,hotcold:100'")
    parser.add_argument("--tenants", type=int, default=1, help=tenants_help)


def workload_choice(args: argparse.Namespace) -> tuple[str, dict]:
    """Resolve the workload flags into a registry (name, parameters)."""
    if args.tenants < 1:
        raise ConfigurationError(f"--tenants must be >= 1, got {args.tenants}")
    if args.trace and args.phase:
        raise ConfigurationError("--trace and --phase are mutually exclusive")
    if args.trace:
        return "trace", {"path": args.trace, "page_bytes": args.trace_page_bytes}
    if args.phase:
        return "phased", {"schedule": parse_phase_spec(args.phase)}
    return args.workload, {}


def add_telemetry_args(parser: argparse.ArgumentParser) -> None:
    """``--metrics-out`` / ``--trace-out``, which :func:`run` honours."""
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a Prometheus-style metrics dump here "
                             "(implies telemetry collection)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the JSON-lines span trace here "
                             "(implies telemetry collection)")


def run(parser: argparse.ArgumentParser, args: argparse.Namespace,
        command: Callable[[argparse.Namespace], int], *,
        errors: tuple[type[Exception], ...] = (),
        telemetry: bool = False) -> int:
    """Run ``command(args)`` as a runner's ``main``; returns the exit code.

    Telemetry is on if ``telemetry`` is set or a dump was asked for.  A
    :class:`ConfigurationError` or one of the runner's user ``errors`` is
    one ``<prog>: error: <msg>`` line and exit 2, not a traceback.  Dumps
    are written after the command returns.
    """
    metrics_out = getattr(args, "metrics_out", None)
    trace_out = getattr(args, "trace_out", None)
    if telemetry or metrics_out or trace_out:
        _metrics.set_enabled(True)
    try:
        code = command(args)
    except (ConfigurationError, *errors) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2
    if metrics_out:
        write_metrics(metrics_out)
        print(f"metrics written to {metrics_out}", flush=True)
    if trace_out:
        write_trace(trace_out)
        print(f"trace written to {trace_out}", flush=True)
    return code
