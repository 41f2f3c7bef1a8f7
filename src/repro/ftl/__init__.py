"""Flash Translation Layer.

Implements the software stack of the paper's Fig. 5: logical-to-physical
page mapping, out-of-place updates, garbage collection, wear leveling — and
the paper's extension, a *rewriting FTL* that keeps v-cell/coding modules
between the mapping layer and the chip so logical pages can be updated in
place many times before relocation.
"""

from repro.ftl.mapping import PageMapping, PhysicalPageState
from repro.ftl.wear_leveling import (
    NoWearLeveling,
    DynamicWearLeveling,
    StaticWearLeveling,
)
from repro.ftl.ftl import BasicFTL
from repro.ftl.rewriting_ftl import RewritingFTL

__all__ = [
    "PageMapping",
    "PhysicalPageState",
    "NoWearLeveling",
    "DynamicWearLeveling",
    "StaticWearLeveling",
    "BasicFTL",
    "RewritingFTL",
]
