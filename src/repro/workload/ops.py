"""The typed op-stream protocol shared by every workload consumer.

A workload is an (infinite) iterator of :class:`Op` records — one host
operation each — instead of bare write LPNs.  The same stream drives the
offline lifetime simulator (:func:`repro.ssd.simulator.run_until_death`)
and the TCP load generator (:mod:`repro.server.loadgen`), which is what
makes "run the same experiment in both harnesses" a meaningful sentence:
rewriting-code lifetime gains depend on
the exact write *sequence* a device sees, so the sequence has to be owned
by one layer.

Payload determinism
-------------------
WRITE ops carry a ``data_seed`` — a small tuple of ints derived by the
generator from ``(workload seed, lpn, per-LPN write version)``.  Any
consumer turns it into the payload bits with :func:`payload_for`, so the
simulator writing locally and the load generator writing over TCP produce
**identical bytes** for the same op.  Including the per-LPN version keeps
repeated writes to one page from degenerating into rewrites of the same
dataword (which would flatter every rewriting scheme).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

__all__ = ["Op", "OpKind", "payload_for"]


class OpKind(enum.Enum):
    """Host operation kinds a workload can emit."""

    READ = "read"
    WRITE = "write"
    TRIM = "trim"


@dataclass(frozen=True)
class Op:
    """One host operation in a workload stream.

    ``tenant`` tags the op with the logical client that issued it (0 for
    single-tenant streams); :class:`~repro.workload.mixed.MixedWorkload`
    interleaves several tenants into one stream and the serving layer
    accounts per tenant.  ``data_seed`` is ``None`` for READ/TRIM.
    """

    kind: OpKind
    lpn: int
    tenant: int = 0
    data_seed: tuple[int, ...] | None = None


#: The backend's payload kernel and its numpy twin, resolved by the first
#: :func:`payload_for` call, not at import.
_payload: tuple | None = None


def _seed_words(seed) -> list[int] | None:
    """``seed`` as the uint32 words ``SeedSequence`` reads: each entry's,
    low word first, and 0 as one zero word.  None where an entry is not a
    non-negative int, for the numpy twin to raise or read."""
    if type(seed) is not tuple:
        return None
    words = []
    for entry in seed:
        if type(entry) is not int or entry < 0:
            return None
        words.append(entry & 0xFFFFFFFF)
        while entry > 0xFFFFFFFF:
            entry >>= 32
            words.append(entry & 0xFFFFFFFF)
    return words


def payload_for(op: Op, bits: int) -> np.ndarray:
    """The deterministic payload bits of a WRITE op.

    Every consumer of a stream derives the same bytes for the same op —
    the property that makes "same workload" mean the same thing offline
    and over the wire.  The bytes are defined by the PCG64 stream seeded
    with ``data_seed``: bit ``i`` is the top bit of byte ``i`` of that
    stream, each 64-bit word read low byte first.  That is exactly what
    ``default_rng(data_seed).integers(0, 2, bits, dtype=np.uint8)`` draws
    (numpy's uint8 path takes one stream byte per output and, for a range
    of two, never rejects one).

    The kernel backend computes them (``KernelBackend.payload``, resolved
    as a code's is, by ``REPRO_VITERBI_BACKEND``, on the first call): the
    native one seeds and steps PCG64 in C, the numpy one draws from
    ``np.random.PCG64``, and both give the same bytes.  A seed entry that
    is not a non-negative int goes to the numpy twin, which raises or reads
    it as ``SeedSequence`` does.
    """
    global _payload
    if op.data_seed is None:
        raise ValueError(f"{op.kind.value.upper()} ops carry no payload")
    if bits < 0:
        raise ValueError(f"a payload holds a non-negative bit count, not {bits}")
    if _payload is None:
        from repro.coding.kernels import _payload_numpy, resolve_backend

        _payload = resolve_backend().payload, _payload_numpy
    kernel, twin = _payload
    words = _seed_words(op.data_seed)
    return twin(op.data_seed, bits) if words is None else kernel(words, bits)
