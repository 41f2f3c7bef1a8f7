"""Serving layer: an asyncio block-storage service over a simulated SSD.

This package turns the offline device stack into a network service, the
north-star "production-scale serving" direction of the roadmap:

* :mod:`repro.server.protocol` — length-prefixed binary wire format
  (READ/WRITE/TRIM/STAT requests, typed-status responses).
* :mod:`repro.server.service` — :class:`StorageService`, the TCP server:
  write coalescing into :meth:`~repro.ssd.device.SSD.write_batch`,
  admission control (credit window + bounded queue), graceful
  end-of-life error mapping, full :mod:`repro.obs` instrumentation.
* :mod:`repro.server.client` — :class:`StorageClient`, a pipelined
  asyncio client raising the same typed exceptions as the local device.
* :mod:`repro.server.loadgen` — open/closed-loop load generators that
  replay the same :mod:`repro.workload` op streams the simulator runs
  (synthetic, CSV trace replay, phased, multi-tenant mixes) and report latency
  percentiles plus IOPS, per tenant and overall; open-loop latency runs
  from each request's due time.  Workloads themselves come from
  :mod:`repro.workload` (``make_workload``, ``WORKLOADS``).

Run ``python -m repro.server serve`` / ``... bench`` for the CLI.
"""

from repro.server.client import StorageClient
from repro.server.loadgen import (
    LoadgenResult,
    TenantResult,
    run_closed_loop,
    run_open_loop,
)
from repro.server.protocol import Opcode, Request, Response, Status
from repro.server.service import ServerConfig, ServerStats, StorageService

__all__ = [
    "LoadgenResult",
    "Opcode",
    "Request",
    "Response",
    "ServerConfig",
    "ServerStats",
    "Status",
    "StorageClient",
    "StorageService",
    "TenantResult",
    "run_closed_loop",
    "run_open_loop",
]
