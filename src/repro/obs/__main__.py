"""CLI for the observability plane: ``python -m repro.obs watch <url>``."""

from __future__ import annotations

import argparse
import sys
import urllib.error

from repro.obs.console import watch


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Observability utilities for repro services.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    watch_p = sub.add_parser(
        "watch",
        help="live console dashboard over a running obs sidecar",
        description=(
            "Poll an obs sidecar's /metrics endpoint (started with "
            "`python -m repro.server serve --obs-port N`) and render a "
            "refreshing console dashboard: IOPS, latency quantiles, queue "
            "depth, per-tenant shed rates and GC/wear."
        ),
    )
    watch_p.add_argument(
        "url", help="sidecar base URL, e.g. http://127.0.0.1:7641"
    )
    watch_p.add_argument(
        "--interval", type=float, default=2.0,
        help="seconds between polls (default %(default)s)",
    )
    watch_p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (no screen clearing; for CI)",
    )
    watch_p.add_argument(
        "--frames", type=int, default=None,
        help="stop after this many frames (default: run until Ctrl-C)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "watch":
        try:
            watch(
                args.url,
                interval=args.interval,
                once=args.once,
                frames=args.frames,
            )
        except (urllib.error.URLError, OSError) as exc:
            print(f"error: cannot scrape {args.url}: {exc}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
