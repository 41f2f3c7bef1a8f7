"""Command-line entry point: regenerate any table or figure of the paper.

Examples::

    python -m repro.experiments table1
    python -m repro.experiments table1 --page-bytes 4096 --cycles 5
    python -m repro.experiments fig14 --lanes 8
    python -m repro.experiments all
"""

from __future__ import annotations

import argparse
import os
import time
from collections.abc import Callable

from repro import cli
from repro.coding.kernels import BACKEND_ENV, resolve_backend
from repro.errors import ReproError
from repro.experiments import extensions, figures, table1
from repro.experiments.config import ExperimentConfig
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
        metrics=bool(args.metrics or args.metrics_out or args.trace_out),
        viterbi_backend=args.viterbi_backend.lower(),
    )
    backend = resolve_backend(config.viterbi_backend).name
    # The env var is how the choice reaches every CosetViterbi built
    # anywhere in the sweep, and the scheme memo's key; it is this run's
    # alone, so an in-process caller gets its own value back.
    previous = os.environ.get(BACKEND_ENV)
    os.environ[BACKEND_ENV] = config.viterbi_backend
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    cells_run = _metrics.counter("sweep.cells_run")
    telemetry = _metrics.get_registry().enabled
    try:
        for name in names:
            cells_before = cells_run.value
            start = time.time()
            output = EXPERIMENTS[name](config)
            elapsed = time.time() - start
            lanes_note = f", {config.lanes} lanes" if config.lanes > 1 else ""
            print(f"=== {name} (page {config.page_bytes} B, {config.cycles} cycles, "
                  f"K={config.constraint_length}, viterbi {backend}{lanes_note}, "
                  f"{elapsed:.1f}s) ===")
            print(output)
            footer = f"[{name}] wall {elapsed:.2f}s"
            if telemetry:
                footer += f", cells_run {int(cells_run.value - cells_before)}"
            print(footer)
            print()
    finally:
        if previous is None:
            os.environ.pop(BACKEND_ENV, None)
        else:
            os.environ[BACKEND_ENV] = previous
    return 0
