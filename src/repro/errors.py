"""Exception hierarchy for the Methuselah Flash library.

All library errors derive from :class:`ReproError` so callers can catch one
base type. Subclasses are grouped by the layer that raises them: the physical
flash substrate, the FTL, the virtual-cell layer, and the coding layer.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class FlashError(ReproError):
    """Base class for physical flash substrate errors."""


class IllegalTransitionError(FlashError):
    """A program operation requested a physically impossible cell transition.

    Raised, for example, when a code assuming ideal multi-level cells tries
    to move an MLC from L1 to L2 (Fig. 2 of the paper), or tries to clear a
    bit (1 -> 0) without an erase.
    """


class PageProgramError(FlashError):
    """A page program violated the pages-of-bits interface (e.g. wrong size)."""


class BlockWornOutError(FlashError):
    """A block exceeded its program/erase cycle budget and can no longer be used."""


class PartialProgramLimitError(PageProgramError):
    """A page hit its partial-program (NOP) budget and needs an erase first.

    Real NAND datasheets bound how many times a page may be programmed
    between erases.  The paper assumes unrestricted program-without-erase
    (validated on real chips); the simulator models the limit as an
    optional knob so its impact on rewriting codes can be studied.
    """


class CellSaturatedError(FlashError):
    """A write required incrementing a cell already at its maximum level."""


class ProgramFailedError(FlashError):
    """A page program operation failed at the chip level.

    Real NAND reports program failures through its status register; the FTL
    reacts by re-issuing the write on a fresh page and, for permanent
    failures (grown defects, stuck cells conflicting with the data), by
    retiring the block early.

    Attributes
    ----------
    block, page:
        Physical address of the failed program, when known.
    permanent:
        True when the target page can never accept this program (stuck
        cells, grown bad page/block); False for transient failures that a
        retry elsewhere — or even on the same page — may survive.
    """

    def __init__(
        self,
        message: str,
        *,
        block: int | None = None,
        page: int | None = None,
        permanent: bool = False,
    ) -> None:
        super().__init__(message)
        self.block = block
        self.page = page
        self.permanent = permanent


class FTLError(ReproError):
    """Base class for flash-translation-layer errors."""


class OutOfSpaceError(FTLError):
    """The FTL ran out of free pages even after garbage collection."""


class LogicalAddressError(FTLError):
    """A logical page address is out of range or unmapped."""


class UncorrectableReadError(FTLError):
    """A logical page could not be recovered after the full read-recovery
    ladder (re-reads plus ECC) was exhausted.

    The FTL raises this to the host instead of silently returning corrupt
    data; it also counts the event in ``FTLStats.data_loss_events``.
    """


class ReadOnlyModeError(FTLError):
    """The device is in end-of-life read-only mode and rejects writes.

    Worn-out SSDs enter read-only mode instead of bricking: the mapped data
    stays readable even though no free blocks remain for new writes.
    """


class VCellError(ReproError):
    """Base class for virtual-cell layer errors."""


class CodingError(ReproError):
    """Base class for coding-layer errors."""


class UnwritableError(CodingError):
    """No codeword in the dataword's coset can be written to the current page.

    This is the signal that the page must be erased before it can accept the
    new dataword; the lifetime simulator counts one erase cycle when it sees
    this error.
    """


class DecodingError(CodingError):
    """Stored bits could not be decoded back to a dataword."""


class ConfigurationError(ReproError):
    """A scheme, code, or simulator was configured with invalid parameters."""


class ServerError(ReproError):
    """Base class for storage-service errors (client- or server-side)."""


class ProtocolError(ServerError):
    """A wire frame violated the protocol (truncated, oversized, malformed)."""


class ServerBusyError(ServerError):
    """The service shed this request under admission control (queue full).

    Only raised when the server runs with ``admission="reject"``; the
    default configuration applies backpressure (it stops reading the
    connection) instead of failing requests.
    """


class ConnectionLostError(ServerError):
    """The connection dropped before a pending request was answered."""


class RecoveringError(ServerError):
    """The server is replaying its journal and cannot serve data yet.

    Raised client-side for ``Status.RECOVERING`` responses.  STAT requests
    are answered during recovery (they report replay progress); data
    operations should be retried once recovery finishes.
    """


class DurabilityError(ReproError):
    """Base class for durability-layer errors (journal, checkpoint, manifest).

    Raised for conditions that must stop a recovery cold rather than risk
    serving wrong data: a manifest written by a newer format version, a
    checkpoint whose SHA-256 does not match its manifest record, or a data
    directory that cannot be laid out.  Torn or corrupt journal *tails* are
    expected crash damage and are discarded silently, not raised.
    """
