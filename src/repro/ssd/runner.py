"""Command-line device-lifetime experiments.

Examples::

    python -m repro.ssd --schemes uncoded wom mfc-1/2-1bpc
    python -m repro.ssd --workload hotcold --wear-leveling none dynamic
    python -m repro.ssd --trace writes.csv --schemes wom
    python -m repro.ssd --trace blocks.csv --tenants 2
    python -m repro.ssd --phase uniform:200,hotcold:100
"""

from __future__ import annotations

import argparse
from dataclasses import replace

from repro import cli
from repro.faults import FaultProfile
from repro.ftl import DynamicWearLeveling, NoWearLeveling, StaticWearLeveling
from repro.ssd.report import format_device_report, format_reliability_report
from repro.ssd.simulator import run_until_death
from repro.workload import make_workload

__all__ = ["build_parser", "main"]

WEAR_POLICIES = {
    "none": NoWearLeveling,
    "dynamic": DynamicWearLeveling,
    "static": StaticWearLeveling,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ssd",
        description="Run SSDs to death and compare schemes/policies.",
    )
    parser.add_argument("--schemes", nargs="+",
                        default=["uncoded", "wom", "mfc-1/2-1bpc"])
    cli.add_workload_args(
        parser,
        tenants_help="interleave N tenant streams of the chosen workload "
                     "(weighted multi-tenant mix)",
    )
    parser.add_argument("--wear-leveling", nargs="+",
                        choices=sorted(WEAR_POLICIES), default=["dynamic"])
    cli.add_device_args(
        parser, blocks=8, pages_per_block=8, page_bytes=48, erase_limit=25,
        utilization=0.6, constraint_length=4,
    )
    parser.add_argument("--max-writes", type=int, default=500_000)
    parser.add_argument("--seed", type=int, default=1)
    fault_group = parser.add_argument_group(
        "fault injection",
        "attach a deterministic fault injector; any nonzero rate enables "
        "it and adds a reliability report",
    )
    fault_group.add_argument("--fault-transient", type=float, default=0.0,
                             help="transient program-failure probability")
    fault_group.add_argument("--fault-permanent", type=float, default=0.0,
                             help="permanent (grown bad page) program-"
                             "failure probability")
    fault_group.add_argument("--fault-stuck", type=float, default=0.0,
                             help="manufacture-time stuck-cell fraction")
    fault_group.add_argument("--fault-wear-stuck", type=float, default=0.0,
                             help="per-erase stuck probability per bit once "
                             "wear onset is reached")
    fault_group.add_argument("--fault-wear-onset", type=int, default=None,
                             help="erase count at which wear sticking starts")
    fault_group.add_argument("--fault-read-disturb", type=float, default=0.0,
                             help="per-read disturb flip probability per bit")
    fault_group.add_argument("--fault-retention", type=float, default=0.0,
                             help="per-op retention decay flip probability "
                             "per bit")
    fault_group.add_argument("--fault-seed", type=int, default=0)
    fault_group.add_argument("--scrub-interval", type=int, default=None,
                             help="host writes between background scrub "
                             "passes")
    cli.add_telemetry_args(parser)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    return cli.run(parser, parser.parse_args(argv), _run)


def _run(args: argparse.Namespace) -> int:
    fault_profile = FaultProfile(
        transient_program_failure_rate=args.fault_transient,
        permanent_program_failure_rate=args.fault_permanent,
        manufacture_stuck_fraction=args.fault_stuck,
        wear_stuck_rate=args.fault_wear_stuck,
        wear_stuck_onset=args.fault_wear_onset or 0,
        read_disturb_rate=args.fault_read_disturb,
        retention_rate=args.fault_retention,
    )
    faults_on = fault_profile.active
    name, params = cli.workload_choice(args)
    if args.tenants > 1:
        name, params = "mixed", {
            "base": name, "tenants": args.tenants, **params,
        }
    results = []
    for policy_name in args.wear_leveling:
        for scheme in args.schemes:
            ssd = cli.make_ssd(
                args,
                scheme,
                wear_leveling=WEAR_POLICIES[policy_name](),
                fault_profile=fault_profile if faults_on else None,
                fault_seed=args.fault_seed,
            )
            workload = make_workload(
                name, ssd.logical_pages, seed=args.seed, **params
            )
            result = run_until_death(ssd, workload,
                                     max_writes=args.max_writes,
                                     scrub_interval=args.scrub_interval)
            if len(args.wear_leveling) > 1:
                result = replace(result, scheme_name=f"{scheme}/{policy_name}")
            results.append(result)
    print(format_device_report(results))
    if faults_on:
        print()
        print(format_reliability_report(results))
    return 0
