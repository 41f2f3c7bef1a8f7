"""Command-line entry point: regenerate any table or figure of the paper.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments table1 --page-bytes 4096 --cycles 5
    python -m repro.experiments fig14 --lanes 8
    python -m repro.experiments all --no-cache
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from repro.cache import get_default_cache
from repro.coding.kernels import BACKEND_ENV, resolve_backend
from repro.errors import ReproError
from repro.experiments import extensions, figures, table1
from repro.experiments.config import ExperimentConfig
from repro.experiments.summary import build_summary, format_summary
from repro.obs import registry as _metrics
from repro.obs.export import write_metrics, write_trace

__all__ = ["main"]

EXPERIMENTS = ("table1", "fig1", "fig11", "fig12", "fig13", "fig14", "fig15",
               "fig16", "extensions")


def _run_one(name: str, config: ExperimentConfig) -> str:
    if name == "table1":
        return table1.format_table1(table1.run_table1(config))
    if name == "fig1":
        return figures.format_rectangles(
            figures.fig1_data(config), "Fig. 1: equal-cost capacity/lifetime trade-offs"
        )
    if name == "fig11":
        return figures.format_rectangles(
            figures.fig11_data(config), "Fig. 11: MFCs vs prior work (fixed cost)"
        )
    if name == "fig12":
        return figures.format_rectangles(
            figures.fig12_data(config), "Fig. 12: all MFCs (fixed cost)"
        )
    if name == "fig13":
        return figures.format_fig13(figures.fig13_data(config))
    if name == "fig14":
        return figures.format_fig14(figures.fig14_data(config))
    if name == "fig15":
        return figures.format_fig15(figures.fig15_data(config))
    if name == "fig16":
        return figures.format_fig16(figures.fig16_data(config))
    if name == "extensions":
        return extensions.format_extensions(extensions.run_extensions(config))
    raise SystemExit(f"unknown experiment {name!r}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of the Methuselah Flash paper.",
    )
    parser.add_argument(
        "experiment",
        choices=EXPERIMENTS + ("all",),
        help="which table/figure to regenerate",
    )
    try:
        defaults = ExperimentConfig.from_env()
    except ReproError as exc:  # a bad REPRO_* value, e.g. REPRO_LANES=0
        parser.error(str(exc))
    parser.add_argument("--page-bytes", type=int, default=defaults.page_bytes,
                        help="flash page size in bytes (paper: 4096)")
    parser.add_argument("--cycles", type=int, default=defaults.cycles,
                        help="erase cycles averaged per scheme")
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--constraint-length", type=int,
                        default=defaults.constraint_length,
                        help="trellis size for MFC coset codes (K)")
    parser.add_argument("--lanes", type=int, default=defaults.lanes,
                        help="concurrent pages per simulation (batched "
                             "engine; 1 = historical scalar numbers)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        default=defaults.cache,
                        help="skip the on-disk result cache entirely")
    parser.add_argument("--viterbi-backend", default=defaults.viterbi_backend,
                        help="Viterbi kernel backend for the MFC coset codes "
                             "(auto/numpy/native; auto is native when the C "
                             "kernel builds, else numpy; results are "
                             "bit-identical either way)")
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a Prometheus-style metrics dump here "
                             "(implies telemetry collection)")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="write the JSON-lines span trace here "
                             "(implies telemetry collection)")
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig(
            page_bytes=args.page_bytes,
            cycles=args.cycles,
            seed=args.seed,
            constraint_length=args.constraint_length,
            lanes=args.lanes,
            cache=args.cache,
            metrics=bool(
                defaults.metrics or args.metrics_out or args.trace_out
            ),
            viterbi_backend=args.viterbi_backend.lower(),
        )
        backend = resolve_backend(config.viterbi_backend).name
        # The env var is how the choice reaches every CosetViterbi built
        # anywhere in the sweep, and the scheme memo's key.
        os.environ[BACKEND_ENV] = config.viterbi_backend
        if config.metrics:
            _metrics.set_enabled(True)
        cache = get_default_cache() if config.cache else None
        names = EXPERIMENTS if args.experiment == "all" else (args.experiment,)
        registry = _metrics.get_registry()
        for name in names:
            cache_before = cache.stats.snapshot() if cache is not None else None
            registry_before = (
                registry.snapshot(include_events=False)
                if registry.enabled
                else None
            )
            start = time.time()
            output = _run_one(name, config)
            elapsed = time.time() - start
            lanes_note = f", {config.lanes} lanes" if config.lanes > 1 else ""
            print(f"=== {name} (page {config.page_bytes} B, {config.cycles} cycles, "
                  f"K={config.constraint_length}, viterbi {backend}{lanes_note}, "
                  f"{elapsed:.1f}s) ===")
            print(output)
            summary = build_summary(
                name,
                elapsed=elapsed,
                lanes=config.lanes,
                cache_delta=(
                    cache.stats.since(cache_before) if cache is not None else None
                ),
                cache_root=str(cache.root) if cache is not None else None,
                before=registry_before,
            )
            print(format_summary(summary))
            print()
    except ReproError as exc:
        # A bad knob value is a user error, not a crash.
        parser.error(str(exc))
    if args.metrics_out:
        write_metrics(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    if args.trace_out:
        write_trace(args.trace_out)
        print(f"trace written to {args.trace_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
