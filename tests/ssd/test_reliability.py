"""Device-level reliability: fault campaigns, read-only mode, reporting.

The acceptance story: with permanent program failures and wear-onset stuck
cells injected, every scheme's device must degrade gracefully — absorb
failures, retire blocks, die cleanly into read-only mode, lose no data at
default settings — and do all of it bit-reproducibly for a fixed seed.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ReadOnlyModeError
from repro.faults import FaultProfile, FaultSchedule, ScheduledFault
from repro.flash import FlashGeometry
from repro.ssd import SSD, format_reliability_report, run_until_death
from repro.workload import UniformWorkload

GEOMETRY = dict(blocks=8, pages_per_block=8, page_bits=384, erase_limit=25)

PROFILE = FaultProfile(
    permanent_program_failure_rate=0.01,
    wear_stuck_rate=0.001,
    wear_stuck_onset=2,
)

SCHEMES = ["uncoded", "wom", "mfc-1/2-1bpc"]


def make_ssd(scheme: str, profile=PROFILE, **kw) -> SSD:
    kwargs = dict(kw)
    if scheme.startswith("mfc") and scheme != "mfc-ecc":
        kwargs.setdefault("constraint_length", 3)
    return SSD(
        geometry=FlashGeometry(**GEOMETRY),
        scheme=scheme,
        utilization=0.6,
        fault_profile=profile,
        **kwargs,
    )


def run(scheme: str, **kw):
    ssd = make_ssd(scheme, **kw)
    workload = UniformWorkload(ssd.logical_pages, seed=1)
    return ssd, run_until_death(ssd, workload, max_writes=60_000)


class TestFaultCampaignAcceptance:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_degrades_gracefully_without_data_loss(self, scheme: str) -> None:
        ssd, result = run(scheme)
        # The campaign injects 1% permanent program failures plus wear-onset
        # sticking, so degradation must actually have happened...
        assert result.program_failures > 0
        assert result.retired_blocks > 0
        # ...the device must have died into read-only mode rather than
        # crashed...
        assert ssd.read_only
        assert result.host_writes > 0
        # ...and the end-of-run audit (reading back every logical page)
        # must have found nothing unrecoverable at default settings.
        assert result.data_loss_events == 0
        assert result.uncorrectable_reads == 0
        assert result.host_reads >= ssd.logical_pages

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_bit_reproducible_for_fixed_seed(self, scheme: str) -> None:
        _, first = run(scheme)
        _, second = run(scheme)
        assert first == second

    def test_first_failure_write_is_recorded(self) -> None:
        _, result = run("uncoded")
        assert result.first_failure_write is not None
        assert 0 < result.first_failure_write <= result.host_writes

    def test_fault_free_runs_report_no_degradation(self) -> None:
        ssd = SSD(geometry=FlashGeometry(**GEOMETRY), scheme="uncoded",
                  utilization=0.6)
        assert ssd.faults is None
        result = run_until_death(
            ssd, UniformWorkload(ssd.logical_pages, seed=1),
            max_writes=60_000,
        )
        assert result.program_failures == 0
        assert result.data_loss_events == 0
        assert result.first_failure_write is None

    def test_scrub_interval_runs_scrub_passes(self) -> None:
        profile = FaultProfile(
            permanent_program_failure_rate=0.02,
            wear_stuck_rate=0.001,
            wear_stuck_onset=2,
        )
        ssd = make_ssd("uncoded", profile=profile)
        result = run_until_death(
            ssd, UniformWorkload(ssd.logical_pages, seed=1),
            max_writes=60_000, scrub_interval=50,
        )
        # Retired blocks strand live pages; periodic scrubbing must have
        # rescued at least some of them along the way.
        assert result.retired_blocks > 0
        assert result.scrub_relocations > 0
        assert result.data_loss_events == 0


class TestReadOnlyMode:
    def test_death_latches_read_only_but_reads_survive(self) -> None:
        ssd, result = run("uncoded")
        assert ssd.read_only
        with pytest.raises(ReadOnlyModeError):
            ssd.write(0, np.zeros(ssd.logical_page_bits, np.uint8))
        # Every logical page is still readable from the corpse.
        for lpn in range(ssd.logical_pages):
            ssd.read(lpn)

    def test_scrub_is_noop_once_read_only(self) -> None:
        ssd, _ = run("uncoded")
        assert ssd.scrub() == 0

    def test_enter_read_only_is_idempotent(self) -> None:
        ssd = make_ssd("uncoded")
        assert not ssd.read_only
        ssd.enter_read_only()
        ssd.enter_read_only()
        assert ssd.read_only

    def test_scheduled_block_kill_campaign(self) -> None:
        # A scripted campaign ("kill block 2 on its 3rd erase") must be
        # absorbed like any grown defect: block retired, data intact.
        schedule = FaultSchedule(
            [ScheduledFault(kind="kill_block", block=2, at_erase=3)]
        )
        ssd = SSD(
            geometry=FlashGeometry(**GEOMETRY),
            scheme="uncoded",
            utilization=0.6,
            fault_schedule=schedule,
        )
        result = run_until_death(
            ssd, UniformWorkload(ssd.logical_pages, seed=1),
            max_writes=60_000,
        )
        assert result.data_loss_events == 0
        assert 2 in ssd.ftl.retired_blocks


class TestReliabilityReport:
    def test_report_includes_reliability_columns(self) -> None:
        _, result = run("uncoded")
        report = format_reliability_report([result])
        assert "prog fail" in report and "UBER" in report
        assert "uncoded" in report
        assert str(result.program_failures) in report

    def test_uber_is_zero_without_uncorrectable_reads(self) -> None:
        _, result = run("uncoded")
        assert result.uncorrectable_reads == 0
        assert result.uber == 0.0

    def test_uber_counts_failed_reads(self) -> None:
        from repro.ssd.simulator import DeviceLifetimeResult

        result = DeviceLifetimeResult(
            scheme_name="x", host_writes=10, host_bits_written=100,
            block_erases=1, in_place_rewrites=0, gc_relocations=0,
            wear_spread=0, retired_blocks=0, uncorrectable_reads=2,
            host_reads=50, host_bits_read=500,
        )
        assert result.uber == pytest.approx(2 / 500)


class TestCliFaultFlags:
    def test_fault_flags_add_reliability_report(self, capsys) -> None:
        from repro.ssd.runner import main

        exit_code = main([
            "--schemes", "uncoded",
            "--max-writes", "3000",
            "--erase-limit", "6",
            "--fault-permanent", "0.01",
            "--fault-wear-stuck", "0.001",
            "--fault-wear-onset", "2",
            "--scrub-interval", "100",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "prog fail" in out and "UBER" in out

    def test_no_fault_flags_no_reliability_report(self, capsys) -> None:
        from repro.ssd.runner import main

        main(["--schemes", "uncoded", "--max-writes", "2000",
              "--erase-limit", "4"])
        out = capsys.readouterr().out
        assert "UBER" not in out

    def test_out_of_range_rate_is_a_clean_cli_error(self, capsys) -> None:
        from repro.ssd.runner import main

        exit_code = main(["--schemes", "uncoded", "--fault-permanent", "1.5"])
        assert exit_code == 2
        err = capsys.readouterr().err
        assert "error:" in err and "probability" in err

    def test_zero_scrub_interval_is_a_clean_cli_error(self, capsys) -> None:
        from repro.ssd.runner import main

        exit_code = main(["--schemes", "uncoded", "--fault-permanent", "0.01",
                          "--scrub-interval", "0", "--max-writes", "500",
                          "--erase-limit", "4"])
        assert exit_code == 2
        assert "scrub_interval" in capsys.readouterr().err


class TestScrubIntervalValidation:
    def test_run_until_death_rejects_nonpositive_interval(self) -> None:
        from repro.errors import ConfigurationError

        ssd = make_ssd("uncoded")
        workload = UniformWorkload(ssd.logical_pages, seed=1)
        for bad in (0, -5):
            with pytest.raises(ConfigurationError, match="scrub_interval"):
                run_until_death(ssd, workload, max_writes=10,
                                scrub_interval=bad)
