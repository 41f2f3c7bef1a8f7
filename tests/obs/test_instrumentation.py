"""End-to-end checks that the instrumented layers publish into the registry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.coding import kernels
from repro.coding.coset import ConvolutionalCosetCode
from repro.core.lifetime import LifetimeSimulator
from repro.core.scheme import PageCodeScheme
from repro.faults import FaultProfile
from repro.flash import FlashGeometry
from repro.obs import registry as obs
from repro.ssd.device import SSD
from repro.ssd.simulator import run_until_death
from repro.workload import UniformWorkload


@pytest.fixture
def enabled_registry():
    registry = obs.get_registry()
    registry.enabled = True
    registry.reset()
    return registry


@pytest.fixture
def mfc_scheme():
    return PageCodeScheme("MFC-test", ConvolutionalCosetCode(page_bits=256))


class TestWritePathInstrumentation:
    def test_lifetime_run_populates_all_layers(self, enabled_registry, mfc_scheme):
        # verify_reads exercises the decode path too (scheme.reads,
        # syndrome.formed), so this covers both directions.
        LifetimeSimulator(mfc_scheme, seed=3, verify_reads=True).run(cycles=2)
        snap = enabled_registry.snapshot()
        for name in (
            "lifetime.cycles",
            "scheme.writes",
            "scheme.reads",
            "scheme.unwritable_writes",
            "scheme.bits_programmed",
            "vcell.programs",
            "vcell.level_increments",
            "viterbi.searches",
            "viterbi.lanes",
            "syndrome.divisions",
            "syndrome.formed",
        ):
            assert snap.counters.get(name, 0) > 0, name
        assert snap.counters["lifetime.cycles"] == 2

    def test_every_kernel_backend_counts_the_same_write_path(
        self, enabled_registry, monkeypatch
    ):
        """The native page program never reaches ``varray._fill``, which does
        the counting on the numpy path: it has to count the same itself."""
        exported = {}
        for backend in kernels.available_backends():
            monkeypatch.setenv(kernels.BACKEND_ENV, backend)
            code = ConvolutionalCosetCode(page_bits=256)
            assert code.viterbi.backend.name == backend
            enabled_registry.reset()
            LifetimeSimulator(PageCodeScheme("MFC-test", code), seed=3).run(
                cycles=2
            )
            exported[backend] = {
                name: value
                for name, value in enabled_registry.snapshot().counters.items()
                if name.startswith("vcell.")
                or name in ("syndrome.divisions", "scheme.bits_programmed")
            }
        reference = exported["numpy"]
        assert reference["vcell.programs"] > 0
        assert (
            reference["vcell.level_increments"]
            == reference["scheme.bits_programmed"]
        )
        assert len(reference) == 4
        assert all(counts == reference for counts in exported.values())

    def test_span_tree_covers_viterbi_phases(self, enabled_registry, mfc_scheme):
        LifetimeSimulator(mfc_scheme, seed=3).run(cycles=1)
        names = {event["name"] for event in enabled_registry.events}
        assert {
            "lifetime.run",
            "coset.encode_batch",
            "syndrome.divide",
            "viterbi.acs",
            "viterbi.backtrace",
        } <= names
        # ACS spans nest under their encode span.
        encode_ids = {
            e["span_id"]
            for e in enabled_registry.events
            if e["name"] == "coset.encode_batch"
        }
        acs = [e for e in enabled_registry.events if e["name"] == "viterbi.acs"]
        assert acs and all(e["parent_id"] in encode_ids for e in acs)

    def test_bits_programmed_histogram_tracks_counter(
        self, enabled_registry, mfc_scheme
    ):
        LifetimeSimulator(mfc_scheme, seed=3).run(cycles=2)
        snap = enabled_registry.snapshot()
        hist = snap.histograms["scheme.bits_programmed_per_write"]
        assert hist.count == snap.counters["scheme.writes"]
        assert hist.sum == snap.counters["scheme.bits_programmed"]

    def test_scalar_and_batch_write_agree_on_bits(self, enabled_registry, mfc_scheme):
        scheme = mfc_scheme
        registry = enabled_registry
        rng = np.random.default_rng(5)
        words = rng.integers(0, 2, (3, scheme.dataword_bits), dtype=np.uint8)
        state = scheme.fresh_state()
        for word in words:
            state = scheme.write(state, word)
        scalar = registry.snapshot()
        registry.reset()
        states = scheme.fresh_states(1)
        for word in words:
            states, writable = scheme.write_batch(states, word[None, :])
            assert writable.all()
        batch = registry.snapshot()
        assert (
            scalar.counters["scheme.bits_programmed"]
            == batch.counters["scheme.bits_programmed"]
        )
        assert scalar.counters["scheme.writes"] == batch.counters["scheme.writes"]


class TestDevicePathInstrumentation:
    def test_ssd_run_absorbs_ftl_stats(self, enabled_registry):
        ssd = SSD(scheme="wom")
        workload = UniformWorkload(ssd.logical_pages, seed=1)
        result = run_until_death(ssd, workload, max_writes=500)
        snap = enabled_registry.snapshot()
        assert snap.counters["ftl.host_writes"] == result.host_writes
        assert snap.counters["flash.block_erases"] == result.block_erases
        assert snap.counters["flash.bits_programmed"] == result.bits_programmed
        assert snap.gauges["flash.max_block_erases"] > 0
        names = {event["name"] for event in snap.events}
        assert "ssd.run_until_death" in names
        assert "ftl.gc.reclaim" in names

    def test_every_stats_field_equals_its_counter_after_a_run(
        self, enabled_registry
    ):
        geometry = FlashGeometry(
            blocks=8, pages_per_block=8, page_bits=384, erase_limit=25
        )
        ssd = SSD(
            geometry=geometry,
            scheme="wom",
            fault_profile=FaultProfile(
                transient_program_failure_rate=0.01, read_disturb_rate=1e-4
            ),
            fault_seed=3,
        )
        run_until_death(
            ssd, UniformWorkload(ssd.logical_pages, seed=1), scrub_interval=50
        )
        assert ssd.ftl.stats.gc_runs > 0
        assert ssd.faults.counters.disturb_events > 0
        counters = enabled_registry.snapshot().counters
        for prefix, stats in (
            ("ftl", ssd.ftl.stats),
            ("flash", ssd.chip.stats),
            ("faults", ssd.faults.counters),
        ):
            for name, value in vars(stats).items():
                if isinstance(value, int):
                    assert counters.get(f"{prefix}.{name}", 0) == value, (
                        prefix, name,
                    )
        # A maximum is a gauge, never a summed counter.
        assert "flash.max_block_erases" not in counters

    def test_disabled_device_run_is_silent(self, mfc_scheme):
        registry = obs.get_registry()
        registry.enabled = False
        registry.reset()
        ssd = SSD(scheme="wom")
        run_until_death(ssd, UniformWorkload(ssd.logical_pages, seed=1), max_writes=200)
        snap = registry.snapshot()
        assert snap.counters == {}
        assert snap.events == ()
