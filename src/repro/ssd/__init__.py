"""Device-level SSD simulation (extension of the paper's page-level study).

The paper motivates endurance coding with embedded systems and datacenter
SSDs; this package closes the loop by running whole-device simulations —
chip + FTL + rewriting scheme + workload — and measuring how page-level
lifetime gains translate to device lifetime (total host writes before the
device runs out of usable blocks), including the interaction with wear
leveling that Section IX discusses.  Workloads come from
:mod:`repro.workload`.
"""

from repro.ssd.device import SSD
from repro.ssd.array import StripedDevice
from repro.ssd.simulator import (
    DeviceLifetimeResult,
    audit_survivors,
    run_until_death,
)
from repro.ssd.report import format_device_report, format_reliability_report

__all__ = [
    "SSD",
    "StripedDevice",
    "DeviceLifetimeResult",
    "audit_survivors",
    "run_until_death",
    "format_device_report",
    "format_reliability_report",
]
