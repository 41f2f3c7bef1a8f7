"""No traced layer boundary runs inside a boundary of the same name.

The end-to-end benchmark's tracer wraps the scalar and the batched face of
one operation under one span name, and counts calls per layer from those
spans.  A face that called its twin would count one operation twice, so
each pair must share a private body instead.  This installs the tracer's
boundaries (read-only: nothing under ``benchmarks`` changes) and drives
every face the scalar and batched lifetime runs, small WOM, MFC and
uncoded devices (``SSD.write``, ``SSD.write_batch`` and ``SSD.read``) and
a direct v-cell program cross.
"""

from __future__ import annotations

import time

import numpy as np
import pytest

from benchmarks.e2e.tracer import BOUNDARIES, Tracer
from repro.coding import kernels
from repro.core import BatchLifetimeSimulator, LifetimeSimulator, make_scheme
from repro.flash import FlashGeometry
from repro.ssd import SSD
from repro.vcell import VCellArray, VCellSpec

PAGE = 96


def _base(name: str) -> str:
    return name.partition(":")[0]  # labelled forms count under their layer


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.install(BOUNDARIES)
    try:
        yield tracer
    finally:
        tracer.uninstall()


def _twins_nested(tracer: Tracer) -> list[str]:
    nested = []
    for _thread, spans in tracer.threads():
        names = {span.sid: _base(span.name) for span in spans}
        nested += [
            span.name for span in spans if names.get(span.parent) == _base(span.name)
        ]
    return nested


def _names(tracer: Tracer) -> set[str]:
    return {_base(span.name) for _thread, spans in tracer.threads() for span in spans}


def test_lifetime_runs_nest_no_twins(tracer) -> None:
    """The two baselines' classes keep a ``write`` of their own, which the
    tracer wraps too: one that called ``PageCodeScheme.write`` would nest."""
    for name, kwargs in (
        ("mfc-1/2-1bpc", {"constraint_length": 3}), ("wom", {}), ("uncoded", {}),
        ("redundancy-1/2", {}),
    ):
        LifetimeSimulator(make_scheme(name, PAGE, **kwargs), seed=1).run(cycles=1)
    for name in ("wom", "uncoded", "redundancy-1/2"):
        BatchLifetimeSimulator(make_scheme(name, PAGE), lanes=2, seed=1).run(cycles=1)
    assert {
        "core.lifetime_sim", "core.scheme_write", "coding.coset_encode",
        "coding.viterbi_search", "coding.wom_encode", "vcell.levels",
    } <= _names(tracer)
    assert _twins_nested(tracer) == []


def _count(tracer: Tracer, name: str) -> int:
    return len(tracer.spans(name, 0.0, float("inf")))


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_an_mfc_write_counts_its_page_once(tracer, backend, monkeypatch) -> None:
    """A scalar MFC lifetime run: one search per write (the span the
    benchmark's per-write lane and call counts divide by) on either backend,
    and one level count per erase cycle for its fresh page.  Under numpy
    each write's search inputs also run one g1 division and one level count
    of the page, inside ``coding.coset_encode``; the native kernel makes
    both in the one call, which no boundary wraps.  The page the write
    programmed is not counted again: its program reports the levels it set."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    cycles = 3
    scheme = make_scheme("mfc-1/2-1bpc", PAGE, constraint_length=3)
    result = LifetimeSimulator(scheme, seed=1).run(cycles=cycles)
    writes = _count(tracer, "core.scheme_write")
    assert writes == sum(result.writes_per_cycle) + cycles  # + a refusal each
    assert _count(tracer, "coding.viterbi_search") == writes
    in_encode = writes if backend == "numpy" else 0
    assert _count(tracer, "coding.syndrome_rep") == in_encode
    assert _count(tracer, "vcell.levels") == in_encode + cycles
    parents = {
        span.sid: span.name for _thread, spans in tracer.threads() for span in spans
    }
    assert all(
        _base(parents.get(span.parent, "")) == "coding.coset_encode"
        for _thread, spans in tracer.threads() for span in spans
        if span.name == "coding.syndrome_rep"
    )


def _device(scheme: str, **kwargs) -> SSD:
    return SSD(
        FlashGeometry(blocks=4, pages_per_block=4, page_bits=PAGE),
        scheme=scheme, utilization=0.5, **kwargs,
    )


def test_wom_device_nests_no_twins(tracer) -> None:
    ssd = _device("wom")
    rng = np.random.default_rng(0)
    for lpn in (0, 1, 0, 2, 0):
        data = rng.integers(0, 2, ssd.logical_page_bits, dtype=np.uint8)
        ssd.write(lpn, data)
        assert np.array_equal(ssd.read(lpn), data)
    assert {
        "ssd.write", "ssd.read", "ftl.write", "ftl.read", "flash.program",
        "flash.read", "coding.wom_encode", "coding.wom_decode",
    } <= _names(tracer)
    assert _twins_nested(tracer) == []


@pytest.mark.parametrize("backend", kernels.available_backends())
def test_an_mfc_read_decodes_its_page_once(tracer, backend, monkeypatch) -> None:
    """Each host read of a written MFC page is one ``coding.coset_decode``
    span, the span the benchmark's decode latency is the median of, on
    either backend: the numpy backend's stages run inside it, the native
    one runs none."""
    monkeypatch.setenv(kernels.BACKEND_ENV, backend)
    ssd = _device("mfc-1/2-1bpc", constraint_length=3)
    rng = np.random.default_rng(2)
    written = {}
    for lpn in (0, 1, 0, 2, 3, 1):
        written[lpn] = rng.integers(0, 2, ssd.logical_page_bits, dtype=np.uint8)
        ssd.write(lpn, written[lpn])
    start = time.perf_counter()
    for lpn in (0, 1, 2, 3, 0):
        assert np.array_equal(ssd.read(lpn), written[lpn])
    reads = tracer.spans("ssd.read", start, float("inf"))
    assert len(reads) == 5
    assert len(tracer.spans("coding.coset_decode", start, float("inf"))) == 5
    stages = ("coding.syndrome_decode", "vcell.levels")
    assert all(
        bool(tracer.spans(stage, start, float("inf"))) == (backend == "numpy")
        for stage in stages
    )
    assert _twins_nested(tracer) == []


@pytest.mark.parametrize(
    "scheme, kwargs, layers, ftl_writes",
    [("wom", {}, {"core.scheme_write", "coding.wom_encode"}, 3),
     ("mfc-1/2-1bpc", {"constraint_length": 3},
      {"core.scheme_write", "coding.coset_encode"}, 3),
     ("uncoded", {}, set(), 10)],
)
def test_write_batch_nests_no_twins(tracer, scheme, kwargs, layers, ftl_writes) -> None:
    """``SSD.write_batch`` on a coded device runs one ``ftl.write`` span per
    batch (the FTL's batch face writes each lane through the body ``write``
    shares); on an uncoded one, whose batch face is not traced, one per lane."""
    ssd = _device(scheme, **kwargs)
    rng = np.random.default_rng(1)
    written = {}
    for lpns in ([0, 1, 2], [0, 1, 0, 3], [2, 0, 0]):
        data = rng.integers(0, 2, (len(lpns), ssd.logical_page_bits), dtype=np.uint8)
        ssd.write_batch(lpns, data)
        written.update(zip(lpns, data))
    for lpn, data in written.items():
        assert np.array_equal(ssd.read(lpn), data)
    assert {"ssd.write_batch", "ftl.write", *layers} <= _names(tracer)
    assert len(tracer.spans("ftl.write", 0.0, float("inf"))) == ftl_writes
    assert _twins_nested(tracer) == []


def test_both_program_faces_nest_no_twins(tracer) -> None:
    varray = VCellArray(VCellSpec(levels=4), 12)
    page = varray.program_levels(varray.erased_page(), np.array([1, 2, 0, 3]))
    varray.program_levels_batch(np.stack([page, page]), np.full((2, 4), 3))
    spans = tracer.spans("vcell.program_levels", 0.0, float("inf"))
    assert len(spans) == 2
    assert _twins_nested(tracer) == []
