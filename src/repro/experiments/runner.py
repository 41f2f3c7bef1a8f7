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
import time
from collections.abc import Callable

from repro import cli
from repro.cache import get_default_cache
from repro.coding.kernels import BACKEND_ENV, resolve_backend
from repro.errors import ReproError
from repro.experiments import extensions, figures, table1
from repro.experiments.config import ExperimentConfig
from repro.experiments.summary import build_summary, format_summary
from repro.obs import registry as _metrics

__all__ = ["build_parser", "main"]

#: Each table/figure and how to compute and print it, in ``all``'s order.
EXPERIMENTS: dict[str, Callable[[ExperimentConfig], str]] = {
    "table1": lambda c: table1.format_table1(table1.run_table1(c)),
    "fig1": lambda c: figures.format_rectangles(
        figures.fig1_data(c), "Fig. 1: equal-cost capacity/lifetime trade-offs"
    ),
    "fig11": lambda c: figures.format_rectangles(
        figures.fig11_data(c), "Fig. 11: MFCs vs prior work (fixed cost)"
    ),
    "fig12": lambda c: figures.format_rectangles(
        figures.fig12_data(c), "Fig. 12: all MFCs (fixed cost)"
    ),
    "fig13": lambda c: figures.format_fig13(figures.fig13_data(c)),
    "fig14": lambda c: figures.format_fig14(figures.fig14_data(c)),
    "fig15": lambda c: figures.format_fig15(figures.fig15_data(c)),
    "fig16": lambda c: figures.format_fig16(figures.fig16_data(c)),
    "extensions": lambda c: extensions.format_extensions(
        extensions.run_extensions(c)
    ),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the tables/figures of the Methuselah Flash paper.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
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
    cli.add_telemetry_args(parser)
    # REPRO_METRICS=1 collects telemetry without a dump flag.
    parser.set_defaults(metrics=defaults.metrics)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    # Any ReproError here is a bad knob value: a user error, not a crash.
    return cli.run(
        parser, args, _run, errors=(ReproError,), telemetry=args.metrics
    )


def _run(args: argparse.Namespace) -> int:
    config = ExperimentConfig(
        page_bytes=args.page_bytes,
        cycles=args.cycles,
        seed=args.seed,
        constraint_length=args.constraint_length,
        lanes=args.lanes,
        cache=args.cache,
        metrics=bool(args.metrics or args.metrics_out or args.trace_out),
        viterbi_backend=args.viterbi_backend.lower(),
    )
    backend = resolve_backend(config.viterbi_backend).name
    # The env var is how the choice reaches every CosetViterbi built
    # anywhere in the sweep, and the scheme memo's key.
    os.environ[BACKEND_ENV] = config.viterbi_backend
    cache = get_default_cache() if config.cache else None
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    registry = _metrics.get_registry()
    for name in names:
        cache_before = cache.stats.snapshot() if cache is not None else None
        registry_before = registry.snapshot(include_events=False) if registry.enabled else None
        start = time.time()
        output = EXPERIMENTS[name](config)
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
            cache_delta=cache.stats.since(cache_before) if cache is not None else None,
            cache_root=str(cache.root) if cache is not None else None,
            before=registry_before,
        )
        print(format_summary(summary))
        print()
    return 0
