"""Unified workload layer: typed op streams for every harness.

Workloads yield :class:`~repro.workload.ops.Op` records (READ/WRITE/TRIM
with tenant tags and deterministic payload seeds) through one iterator
protocol consumed by the offline lifetime simulator
(:func:`repro.ssd.simulator.run_until_death`) and the TCP load generator
(:mod:`repro.server.loadgen`) — the single source
of workload truth the rewriting-code results depend on (lifetime gains
are a function of the write *sequence*, so the sequence is owned here).

* :mod:`repro.workload.ops` — the op protocol and payload derivation.
* :mod:`repro.workload.synthetic` — uniform/hotcold/zipf/sequential,
  bit-identical ports of the legacy iterators.
* :mod:`repro.workload.trace` — MSR-style CSV block-trace replay, the one
  trace format.
* :mod:`repro.workload.phased` — time-varying load (diurnal, bursts,
  hot/cold drift) as a phase scheduler.
* :mod:`repro.workload.mixed` — multi-tenant weighted interleave.
* :mod:`repro.workload.registry` — the name -> factory table
  (:func:`make_workload`, :data:`WORKLOADS`) every consumer builds
  streams from.

Every caller imports workload names from here.
"""

from repro.workload.base import SyntheticWorkload, Workload
from repro.workload.mixed import MixedWorkload, derive_child_seed
from repro.workload.ops import Op, OpKind, payload_for
from repro.workload.phased import PhasedWorkload, parse_phase_spec
from repro.workload.registry import WORKLOADS, make_workload, tenant_streams
from repro.workload.synthetic import (
    HotColdWorkload,
    SequentialWorkload,
    UniformWorkload,
    ZipfWorkload,
)
from repro.workload.trace import TraceRecord, TraceReplayWorkload, load_csv_trace

__all__ = [
    "HotColdWorkload",
    "MixedWorkload",
    "Op",
    "OpKind",
    "PhasedWorkload",
    "SequentialWorkload",
    "SyntheticWorkload",
    "TraceRecord",
    "TraceReplayWorkload",
    "UniformWorkload",
    "WORKLOADS",
    "Workload",
    "ZipfWorkload",
    "derive_child_seed",
    "load_csv_trace",
    "make_workload",
    "parse_phase_spec",
    "payload_for",
    "tenant_streams",
]
