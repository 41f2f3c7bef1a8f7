"""Virtual flash cells (paper Section IV).

A *v-cell* groups ``L-1`` consecutive bits of one physical page and
interprets the number of set bits as the level of an ideal ``L``-level cell.
Because the page interface can always set any subset of unset bits in one
program operation, every monotone level increase ``i -> j`` (``i < j``) of a
v-cell is one legal page program — exactly the ideal multi-level cell
interface that prior endurance-coding work assumed and real cells do not
provide.

:class:`VCellSpec` describes the cell shape; :class:`VCellArray` provides
vectorized level reads/writes over whole pages (one cell or many) and is
what the coding layers use.
"""

from repro.vcell.vcell import VCellSpec
from repro.vcell.varray import VCellArray

__all__ = ["VCellSpec", "VCellArray"]
