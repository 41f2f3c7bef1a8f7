"""Pluggable kernel backends for the page codes' loops.

A backend is one implementation of the loops the page codes run per page,
each a function of the arrays the code hands it: the same results, bit for
bit, from numpy or from C.  A code resolves its backend once, when it is
built.  Every MFC write is three calls: the search's inputs (the coset
chunks, the dataword's syndrome divided by ``g1``, and the page's levels),
the minimum-cost coset search, the hottest code in the repository, and
the programming of the page; :class:`~repro.coding.viterbi.CosetViterbi`
owns the search's tables and the dispatch.  Every MFC read is one call
that forms the page's syndrome.  :class:`~repro.coding.wom.WomVCellCode`
runs the WOM code's two table walks, and
:func:`~repro.workload.payload_for` draws every host write's payload bits.

A backend is eight functions: the three stages of an MFC write, in the
order the write runs them, the MFC read, the level count of any other
page read, the WOM code's two directions, then a write's payload::

    search_inputs(code, datawords, pages) -> (chunks, levels)
    search(viterbi, reps, levels) -> (codeword_values, total_costs, writable)
    program(code, pages, levels, result) -> (new_pages, new_levels)
    decode(code, pages) -> datawords
    levels(cells) -> levels
    wom_encode(code, datawords, pages) -> (new_pages, writable)
    wom_decode(code, pages) -> datawords
    payload(seed_words, bits) -> bits

``search_inputs`` takes the
:class:`~repro.coding.coset.ConvolutionalCosetCode`, ``(B,
dataword_bits)`` datawords and ``(B, page_bits)`` pages, uint8.  It
returns the ``(B, steps)`` int64 coset chunks (stream ``j`` of the
representative at bit ``j``, ``t_1 = 0``, the guard steps' syndrome
zero) and the pages' ``(B, num_cells)`` C-order int64 levels, the ones
``program`` writes over.  Its numpy twin is the syndrome embedding,
``SyndromeFormer.representative_batch`` (so
:func:`~repro.coding.bitops.gf2_divide_causal`), ``_packed_chunks`` and
``VCellArray.levels_batch``.  A dataword byte that is not a bit is a
:class:`~repro.errors.CodingError`, and a page byte that is not a bit, in
any cell, the tail cells past ``used_cells`` too, a ``VCellError``, each
naming its lane and bit.
``search`` reads the tables of the ``CosetViterbi`` it is handed;
``reps`` is ``(B, steps)`` and ``levels`` ``(B, steps, cells)``, int64
but not necessarily contiguous.  It returns the ``(B, steps)`` int64
codeword chunks (all zeros on an unwritable lane), the ``(B,)`` float64
total costs (``inf`` on an unwritable lane) and the ``(B,)`` bool
writability.  Strict-less selects are load-bearing: a tie keeps the lower
predecessor, and the end state is the first minimum, ``argmin``'s rule,
which the historical recursion (and so every recorded result) follows.  A
backend that breaks ties differently is *wrong* even if its total costs
agree.  A lane whose every state is dead part way along is unwritable
whatever follows, so a backend may stop it there, as long as it still
refuses an out-of-range chunk or level in the steps it does not run.
``program`` takes the :class:`~repro.coding.coset.ConvolutionalCosetCode`,
its pages, their ``(B, num_cells)`` levels and the search's
``ViterbiBatchResult``, and returns new pages: each used cell of a
writable lane raised to the level that stores its codeword symbol,
lowest unset bit first, all else as it was.  It also returns their
``(B, num_cells)`` int64 levels, the ones it set and the handed ones
elsewhere, so that nothing counts the written page again.  Those may be
``levels`` itself, written over: the native kernel writes into it when it
is C-order int64, as the encode's own count of this write's pages is, and
a refused call leaves it as it was.
``decode`` takes the ``ConvolutionalCosetCode`` and ``(B, page_bits)``
uint8 pages and returns their ``(B, dataword_bits)`` uint8 datawords:
each used cell's symbol (``CellCodebook.read_table`` at its level) laid
out as the code's ``m`` streams, their syndrome, and of it the steps past
``guard_steps``.  Every cell is counted, the tail cells past
``used_cells`` too, so a byte that is not a bit in any of them is the
``VCellError`` ``levels`` raises; the tail bits past ``used_bits`` are
not read.
``levels`` is :func:`~repro.vcell.varray._popcount`: ``cells`` is
``(..., num_cells, bits_per_cell)`` uint8, the result int64
``(..., num_cells)``, and a byte that is not a bit is a ``VCellError``
naming its lane and bit.
``wom_encode`` and ``wom_decode`` take the
:class:`~repro.coding.wom.WomVCellCode` and uint8 arrays it checked the
shapes of, one page or ``(B, ...)`` of them: datawords ``(...,
dataword_bits)``, pages ``(..., page_bits)``.  Each cell's pattern (and
value) indexes the flat table the code bound; a lane with a cell no
pattern can reach keeps its bits and is not writable (``writable`` is
``(B,)`` bool, or a bool for one page), and the tail bits past
``used_bits`` pass through.  A byte that is not a bit is a
:class:`~repro.errors.CodingError` naming its lane and bit.
``payload`` takes a seed as the uint32 words ``SeedSequence`` reads (an
op's ``data_seed`` as ``payload_for`` converts it) and a bit count, and
returns that many uint8 bits: bit ``i`` the top bit of byte ``i`` of the
``PCG64`` stream the words seed, each 64-bit word read low byte first.
``tests/coding/test_viterbi_kernel.py`` pins every available backend's
``search`` to byte-identical codewords, costs and writability,
``tests/coding/test_page_kernel.py`` the other two MFC stages, the MFC
read and ``levels`` to the numpy backend's bytes and exception types, and
``tests/coding/test_wom_kernel.py`` the WOM pair to its bytes,
exceptions and messages, and ``tests/coding/test_payload_kernel.py``
``payload`` to numpy's stream.

``numpy`` (always available, the reference) vectorizes the recursion
over lanes and serves every metric and every 2-regular trellis.
``native`` is ``_viterbi.c``, one plain C pass per function, compiled on
first use into this package's ``__pycache__`` and loaded with ``ctypes``,
which releases the GIL for each call: while the device thread reads or
writes a page, the server's event loop keeps running.
Its search walks a step as ``S/2`` butterflies (states ``2j`` and
``2j+1`` both come from ``j`` and ``j + S/2``) over a uint8 branch-cost
vector ``CosetViterbi`` expanded ahead per (level row, coset chunk), a
loop the compiler vectorises; without that table it searches in int16,
gathering the same costs from the fused row as it goes.  The paper's 64
states read from that table run a second body in AVX2 intrinsics where
the CPU has AVX2, chosen per call inside the one artefact
(``search_vector_body`` says whether).  It is only ever handed the
paper's case (costs that are non-negative integers or ``inf``, a level
space small enough to tabulate, a shift-register trellis); a
``CosetViterbi`` outside it resolves to numpy, for the whole write.  Its
path metrics are uint8 or int16, clamped and renormalised so that they
stay exact, and a lane they could overflow is redone one width wider
inside the call (uint8 in int16, int16 in float64); a lane whose least
metric at a renormalisation is infeasible stops there.  Survivors are one
bit per (step, state), walked back per lane.  Its ``program`` runs a body
the compiler specialises for each Table I shape (3-bit cells with that
code's cells per step and bits per cell), a generic one for any other,
and rewrites a 3-bit cell from a table without branching on whether it
changes.  It checks every lane before it writes any, so the numpy twin
can redo a refused call from the same levels.  Where the CPU has AVX2,
3-bit cells of 1 or 2 bits each are counted and programmed sixteen at a
time, as three bit planes (``page_vector_body`` says whether).  Its
search reads each lane's levels at the row stride it is handed, so the
levels of pages with tail cells are not copied.  Its ``decode`` walks a page
once: a used cell's bytes summed, its symbol read, the symbol's bits
shifted into one 64-bit history word per stream, and each syndrome bit
the parity of two of them ANDed with a generator (a code of more than 64
taps goes to the twin).  Its ``search_inputs`` walks each dataword and
each page once.  The ``m - 1`` syndrome streams lie interleaved, so one
shift register in one word divides them as one stream by
``g1(D**(m-1))``, eight bits per lookup in a 256-entry table built from
``g1``, and writes each step's chunk once; a page's bytes are summed per
cell and each checked to be a bit.  Its WOM pair reads sixteen cells at
a time where the CPU has AVX2 (``page_vector_body(3, 2)``: 3-bit cells
of 2 bits each), as three bit planes, the next-pattern table two 16-byte
lookups blended on the pattern's top bit and the value table one; the
cells past the last sixteen, and every cell on any other CPU, go one at a
time, a lookup in the code's table each.  A byte that is not a bit fails
the call, and the numpy twin then raises what it names.  Its ``payload``
is numpy's ``SeedSequence`` mix of the words, ``generate_state(4,
uint64)`` and PCG64's seeding and XSL-RR output on a 128-bit integer,
eight payload bits per output word; a compiler with no 128-bit integer,
or a big-endian host, leaves it to the twin.
Every one of its page-code kernels takes one int64 :class:`ParameterBlock`
first, then the lane count, then the call's own arrays.  A block holds what
never changes for one code, its shapes, limits and table addresses, in the
field order ``BLOCK_LAYOUTS`` gives and ``_viterbi.c``'s enums read: the
``CosetViterbi`` binds a ``"search"`` block, the
``ConvolutionalCosetCode`` one ``"page"`` block for its other three
kernels, and the ``WomVCellCode`` a ``"wom"`` one, each once, when it is
built, and each block keeps its tables alive.  A call so converts a
pointer, the lane count and the page's arrays, up to seven arguments, and
makes one output array; a whole MFC write is 18 arguments.  The wrappers
check only the shapes of what a caller hands them, and the kernels range-
check their blocks' fields as they would arguments.  ``payload`` takes no
block: its seed words, packed into one bytes object, and the bit count.
Nothing is probed, imported or written until a code resolves its
backend: by explicit name, then the ``REPRO_VITERBI_BACKEND`` variable,
then ``"auto"`` (native when it builds, else numpy), memoized per name.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.coding.bitops import pack_values_axis, unpack_values_axis
from repro.coding.page_code import require_bits
from repro.errors import ConfigurationError
from repro.vcell.varray import _popcount

__all__ = [
    "KernelBackend",
    "ParameterBlock",
    "available_backends",
    "backend_names",
    "resolve_backend",
]

#: Environment variable naming the backend ("auto", "numpy", "native").
BACKEND_ENV = "REPRO_VITERBI_BACKEND"

#: Cost rows are gathered in chunks of roughly this many bytes so the
#: hoisted gather stays cache-friendly when batch and page are both large.
_CHUNK_BYTES = 8 << 20


@dataclass(frozen=True)
class KernelBackend:
    """One registered implementation of the page-write loops."""

    name: str
    search_inputs: Callable
    search: Callable
    program: Callable
    decode: Callable
    levels: Callable
    wom_encode: Callable
    wom_decode: Callable
    payload: Callable
    #: Reads ``CosetViterbi._fused_flat`` and the tables built from it: a
    #: searcher whose level space is too large to tabulate runs numpy instead.
    needs_fused_table: bool = False


# -- numpy backend --------------------------------------------------------------


def _packed_chunks(representative: np.ndarray) -> np.ndarray:
    """``(B, steps)`` chunks of a ``(B, steps, m)`` coset representative, the
    search's input: stream ``j`` at bit ``j``, all 0 or 1, and ``t_1 = 0``.

    Where a step's ``m`` bytes make one numpy integer they are read as one,
    little-endian, so stream ``j`` is its bit ``8j``: a contiguous read.
    Gathering stream ``j``'s column is a strided one, and costs more than
    the shifts; it stays only for the widths no integer has.
    """
    lanes, steps, m = representative.shape
    if m in (2, 4, 8):
        words = representative.reshape(lanes, steps * m).view(f"<u{m}")
        chunks = (words >> 7) & 2
        for j in range(2, m):
            chunks |= (words >> 7 * j) & (1 << j)
        return chunks
    chunks = np.left_shift(representative[:, :, 1], 1, dtype=np.int64)
    for j in range(2, m):
        chunks |= np.left_shift(representative[:, :, j], j, dtype=np.int64)
    return chunks


def _search_inputs_numpy(code, datawords, pages):
    """The dataword as the syndrome past the guard steps, its coset
    representative, that packed into chunks, and the pages' levels.  Every
    dataword byte is checked to be a bit first, every page byte by the count."""
    data = require_bits(np.asarray(datawords), "dataword")
    lanes = len(data)
    m = code.code.num_outputs
    syndrome = np.zeros((lanes, code.steps, m - 1), dtype=np.uint8)
    syndrome[:, code.guard_steps :] = data.reshape(
        lanes, code.steps - code.guard_steps, m - 1
    )
    chunks = _packed_chunks(code.former.representative_batch(syndrome))
    return chunks.astype(np.int64, copy=False), code.varray.levels_batch(pages)


def _forward_numpy(v, reps, levels, dtype):
    """One add-compare-select per trellis step, all lanes at once.

    Four ufunc calls a step (take, add, less, minimum) on ``(B, 2S)``
    arrays.  Branch costs are gathered a chunk of steps ahead: entry
    ``[i, b, k*S + s]`` of a slab is lane ``b``'s cost of reaching state
    ``s`` at the chunk's step ``i`` from its predecessor ``k``.
    """
    lanes, steps = reps.shape
    num_states = v.trellis.num_states
    path = np.zeros((lanes, num_states), dtype=dtype)
    backptr = np.empty((steps, lanes, num_states), dtype=bool)
    inc = np.empty((lanes, 2, num_states), dtype=dtype)
    inc_flat = inc.reshape(lanes, 2 * num_states)
    inc0, inc1 = inc[:, 0], inc[:, 1]
    take_path = path.take
    prev_flat = v._prev_flat
    chunk = max(1, _CHUNK_BYTES // (2 * num_states * max(lanes, 1) * 8))
    for t0 in range(0, steps, chunk):
        t1 = min(steps, t0 + chunk)
        if v._fused_flat is not None:
            # Row of the (level combos, 2**m) fused table per (lane, step):
            # the table is tiny, so every lookup is a cache hit.
            costs_flat = v._fused_flat[np.dtype(dtype)]
            row = levels[:, t0:t1, 0]
            for cell in range(1, v.cells_per_step):
                row = row * v._num_levels + levels[:, t0:t1, cell]
        else:
            # (B * span, 2**m) cost rows computed for this chunk of steps.
            costs_flat = v.step_cost_table(levels[:, t0:t1]).astype(
                dtype, copy=False
            ).reshape(-1)
            row = np.arange(lanes * (t1 - t0)).reshape(lanes, t1 - t0)
        index = v._xg_flat[reps[:, t0:t1].T]  # (span, B, 2S)
        index += (row * v.num_values).T[:, :, None]
        for costs, chosen in zip(costs_flat.take(index), backptr[t0:t1]):
            take_path(prev_flat, axis=1, out=inc_flat)
            np.add(inc_flat, costs, out=inc_flat)
            np.less(inc1, inc0, out=chosen)
            np.minimum(inc0, inc1, out=path)
    return path, backptr


def _backtrace_numpy(v, reps, end_state, backptr):
    """Walk each lane's winning branches backward, then emit every chunk.

    The walk is plain Python over a bytes object and a list.  Batched
    fancy indexing, one dispatch per step whatever the lane count, is 30x
    slower at one lane and only wins past a few dozen, where the forward
    pass dominates the search anyway.
    """
    lanes, steps = reps.shape
    num_states = v.trellis.num_states
    prev = v._prev_src.reshape(-1).tolist()
    branch = np.empty((lanes, steps), dtype=np.int64)
    walked = [0] * steps
    for lane in range(lanes):
        chosen = backptr[:, lane].tobytes()
        state = int(end_state[lane])
        for t in range(steps - 1, -1, -1):
            # Branch 2*s + k enters state s from its k-th predecessor.
            walked[t] = taken = 2 * state + chosen[t * num_states + state]
            state = prev[taken]
        branch[lane] = walked
    return v._pred_output.reshape(-1)[branch] ^ reps


def _search_numpy(v, reps, levels):
    """The forward pass, in float32 when every integer sum stays exact in it,
    then ``argmin``'s end state and the backtrace from it.  An unwritable
    lane's codeword is all zeros, as the native kernel leaves it."""
    exact = v._integral_costs and reps.shape[1] * v._max_step_cost < 2**24
    path, backptr = _forward_numpy(v, reps, levels, np.float32 if exact else np.float64)
    end_state = np.argmin(path, axis=1)
    total_costs = path[np.arange(len(path)), end_state].astype(np.float64)
    codeword_values = _backtrace_numpy(v, reps, end_state, backptr)
    writable = np.isfinite(total_costs)
    codeword_values[~writable] = 0
    return codeword_values, total_costs, writable


def _program_numpy(code, pages, levels, result):
    """Unwritable lanes and the cells past ``used_cells`` are reprogrammed to
    their current levels (a no-op), so their bits pass through unchanged.
    Every cell ends exactly at its target, so the targets are the new levels."""
    targets = levels.copy()
    targets[:, : code.used_cells] = np.where(
        result.writable[:, None],
        result.target_levels.reshape(len(levels), code.used_cells),
        levels[:, : code.used_cells],
    )
    return code.varray.program_levels_batch(pages, targets), targets


def _decode_numpy(code, pages):
    """Count the levels, read each used cell's symbol, lay the symbols' bits
    out as the ``m`` streams and form their syndrome past the guard steps."""
    lanes = len(pages)
    levels = code.varray.levels_batch(pages)[:, : code.used_cells]
    symbols = code.codebook.read_table[levels]
    codeword_bits = unpack_values_axis(symbols, code.codebook.bits_per_cell)
    streams = codeword_bits.reshape(lanes, code.steps, code.code.num_outputs)
    syndrome = code.former.syndrome_batch(streams)
    return syndrome[:, code.guard_steps :].reshape(lanes, code.dataword_bits)


def _wom_encode_numpy(code, data, pages):
    """Every byte is checked to be a bit before a table reads it.  A lane
    with a stuck cell keeps its bits; the tail bits pass through."""
    data = require_bits(data, "dataword")
    pages = require_bits(pages, "page")
    next_pattern = code._block.tables["next"]
    patterns = pack_values_axis(pages[..., : code.varray.used_bits], 3)
    targets = next_pattern.take(
        patterns << 2 | pack_values_axis(data, code.BITS_PER_VALUE)
    )
    writable = True if pages.ndim == 1 else np.ones(len(targets), dtype=bool)
    stuck = targets < 0
    if stuck.any():  # one reduction: per lane only when a lane is stuck
        if pages.ndim == 1:
            return pages.copy(), False  # one page: no new page to build
        writable = ~stuck.any(axis=1)
        targets = np.where(writable[:, None], targets, patterns)
    new_pages = pages.copy()
    new_pages[..., : code.varray.used_bits] = unpack_values_axis(targets, 3)
    return new_pages, writable


def _wom_decode_numpy(code, pages):
    pages = require_bits(pages, "page")
    value_of_pattern = code._block.tables["value_of"]
    patterns = pack_values_axis(pages[..., : code.varray.used_bits], 3)
    return unpack_values_axis(value_of_pattern.take(patterns), code.BITS_PER_VALUE)


def _payload_numpy(seed, bits):
    """Bit ``i`` is the top bit of byte ``i`` of the PCG64 stream seeded with
    ``seed``, each 64-bit word read low byte first.  ``seed`` is anything
    ``SeedSequence`` takes: its uint32 words, or the ints they came from."""
    words = np.random.PCG64(seed).random_raw((bits + 7) // 8)
    return words.astype("<u8", copy=False).view(np.uint8)[:bits] >> 7


# -- native backend -------------------------------------------------------------

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_viterbi.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
#: No -ffast-math, ever: the float64 ACS carries IEEE inf for unwritable lanes.
_CFLAGS = ("-O3", "-shared", "-fPIC")
#: ``_viterbi.c``'s BIG (each width's inf) and RENORM (steps per
#: renormalisation) of its uint8 and int16 path metrics.
UINT8_BIG, UINT8_RENORM = 255, 8
INT16_BIG, INT16_RENORM = 16383, 16
#: What ``_viterbi.c`` exports, by name: its arguments' kinds in order, ``b``
#: a parameter block, ``i`` an int64 and ``p`` an array.  Every page-code
#: kernel takes its block, then the lane count, then its arrays.
_SIGNATURES = {
    "search_inputs": "bippp", "search": "biiippp", "program": "bipppp",
    "decode": "bipp", "wom_encode": "bipppp", "wom_decode": "bipp",
    "levels": "iiiipp", "search_vector_body": "i", "page_vector_body": "ii",
    "payload": "ipip",
}
#: The fields of ``_viterbi.c``'s parameter blocks, in the order of its enums:
#: an integer has no dtype, a table the dtype its kernels read it as.
BLOCK_LAYOUTS = {
    "search": (
        ("states", None), ("cells", None), ("levels", None), ("values", None),
        ("limit8", None), ("limit", None), ("order", np.uint16),
        ("costs16", np.int16), ("expanded", np.uint8), ("costs64", np.float64),
        ("out_values", np.int32),
    ),
    "page": (
        ("page_bits", None), ("num_cells", None), ("width", None),
        ("steps", None), ("per_step", None), ("bpc", None), ("guard", None),
        ("taps", None), ("generators", np.uint64), ("target_of", np.int64),
        ("read_of", np.int64),
    ),
    "wom": (
        ("page_bits", None), ("cells", None), ("next", np.int8),
        ("value_of", np.int8),
    ),
}


class ParameterBlock:
    """What a native kernel reads of one code, bound once: the fields of
    ``BLOCK_LAYOUTS[layout]`` as one int64 array, each table as its address.

    A table is bound as a C-order array of its field's dtype (a copy only
    where it is not one already) and kept in :attr:`tables` as long as the
    block is; None binds NULL.  :attr:`pointer` is the block's address, as
    ctypes passes it, so a call converts nothing of the code's.
    """

    __slots__ = ("fields", "tables", "pointer")

    def __init__(self, layout: str, **values) -> None:
        names = [name for name, _dtype in BLOCK_LAYOUTS[layout]]
        if sorted(values) != sorted(names):
            raise TypeError(f"a {layout} block has the fields {names}, got {sorted(values)}")
        self.tables = {}
        words = []
        for name, dtype in BLOCK_LAYOUTS[layout]:
            value = values[name]
            if dtype is None:
                words.append(int(value))
                continue
            table = None if value is None else np.ascontiguousarray(value, dtype=dtype)
            self.tables[name] = table
            words.append(0 if table is None else table.ctypes.data)
        self.fields = np.array(words, dtype=np.int64)
        self.pointer = ctypes.c_void_p(self.fields.ctypes.data)


def _compiler_words() -> list[str]:
    """``$CC`` (or ``cc``) as a shell splits it: ``ccache cc``, ``gcc -m64``."""
    import shlex

    try:
        return shlex.split(os.environ.get("CC") or "cc")
    except ValueError as exc:
        raise ImportError(f"cannot parse $CC: {exc}") from exc


def _find_compiler() -> str | None:
    import shutil

    words = _compiler_words()
    return shutil.which(words[0]) if words else None


def _load_native():
    """Build ``_viterbi.c`` unless its artefact is cached, and load it.

    Raises ``ModuleNotFoundError`` when there is no compiler and plain
    ``ImportError`` when building or loading fails.
    """
    import hashlib
    import platform
    import subprocess
    import tempfile

    # Keyed by the $CC string, not the path it resolves to: a wrapper or another
    # compiler gets its own artefact, and one already built loads without $PATH.
    build = (os.environ.get("CC") or "cc", *_CFLAGS, platform.machine())
    with open(_SOURCE, "rb") as handle:
        keyed = handle.read() + " ".join(build).encode()
    name = f"_viterbi-{hashlib.sha256(keyed).hexdigest()[:16]}.so"
    library = os.path.join(_CACHE_DIR, name)
    if not os.path.exists(library):
        compiler = _find_compiler()
        if compiler is None:
            raise ModuleNotFoundError("no C compiler found ($CC or cc)")
        try:
            os.makedirs(_CACHE_DIR, exist_ok=True)
            # Build beside the target and rename: concurrent first users
            # each publish a whole file, and nothing partial is ever loaded.
            with tempfile.TemporaryDirectory(dir=_CACHE_DIR) as scratch:
                built = os.path.join(scratch, name)
                subprocess.run(
                    [compiler, *_compiler_words()[1:], *_CFLAGS, "-o", built,
                     _SOURCE],
                    check=True, capture_output=True, text=True,
                )
                os.replace(built, library)
        except subprocess.CalledProcessError as exc:
            raise ImportError(f"{compiler} failed: {exc.stderr.strip()}") from exc
        except OSError as exc:
            raise ImportError(f"cannot build {library}: {exc}") from exc
    try:
        return ctypes.CDLL(library)
    except OSError as exc:
        raise ImportError(f"cannot load {library}: {exc}") from exc


def _bind(library):
    """Set the argument types of the functions ``_SIGNATURES`` names."""
    kinds = {"b": ctypes.c_void_p, "i": ctypes.c_int64, "p": ctypes.c_void_p}
    for name, signature in _SIGNATURES.items():
        getattr(library, name).argtypes = [kinds[kind] for kind in signature]
    return library


def _make_native_backend() -> KernelBackend:
    library = _bind(_load_native())
    from_buffer, addressof = ctypes.c_char.from_buffer, ctypes.addressof

    def address(array):
        # Through the buffer protocol: a few times cheaper than
        # array.ctypes.data, which builds the array interface.
        try:
            return addressof(from_buffer(array))
        except (TypeError, ValueError):  # read-only, strided or empty
            return array.ctypes.data

    # Each wrapper hands its kernel the code's bound block, then what it
    # assumes of the call's arrays, C order and exactly that dtype, through
    # ascontiguousarray: a copy only for a strided or narrow input.  Each
    # allocates one output array, and a kernel's status only says that it
    # refused (-2) or could not allocate (-1).  A refused stage other than the
    # search is redone by its numpy twin, which raises what its checks name,
    # with the lane and the bit or cell.
    inputs_kernel, search_kernel = library.search_inputs, library.search
    levels_kernel, program_kernel = library.levels, library.program
    decode_kernel, payload_kernel = library.decode, library.payload
    wom_encode_kernel, wom_decode_kernel = library.wom_encode, library.wom_decode
    pack = struct.pack

    def search_inputs(code, datawords, pages):
        # One array: the chunks, then the levels.
        lanes, cells = len(pages), code.varray.num_cells
        size = lanes * code.steps
        out = np.empty(size + lanes * cells, dtype=np.int64)
        # Named, not inline: a copy must live until the kernel returns.
        data, bits = np.ascontiguousarray(datawords), np.ascontiguousarray(pages)
        if (
            data.dtype == bits.dtype == np.uint8
            and data.shape == (lanes, code.dataword_bits)
            and bits.shape == (lanes, code.page_bits)
            and not inputs_kernel(
                code._block.pointer, lanes, address(data), address(bits),
                address(out),
            )
        ):
            return out[:size].reshape(lanes, code.steps), out[size:].reshape(lanes, cells)
        return _search_inputs_numpy(code, datawords, pages)

    def search(v, reps, levels):
        reps = np.ascontiguousarray(reps, dtype=np.int64)
        lanes, steps = reps.shape
        if levels.shape != (lanes, steps, v.cells_per_step):
            return _search_numpy(v, reps, levels)  # search_batch checked this
        # Lanes may lie any whole number of int64 apart, as the rows of pages'
        # levels with tail cells do: the kernel reads them at that stride.
        # Anything else (a lane strided within, narrow values, lanes that
        # overlap or run backward) is copied.
        stride = steps * v.cells_per_step
        if not (
            levels.dtype == np.int64 and lanes
            and levels.strides[1:] == (8 * v.cells_per_step, 8)
            and (lanes == 1 or levels.strides[0] >= 8 * stride > 0
                 and levels.strides[0] % 8 == 0)
        ):
            levels = np.ascontiguousarray(levels, dtype=np.int64)
        elif lanes > 1:
            stride = levels.strides[0] // 8
        # One array: the codewords, then the total costs, then writability.
        # Lanes start in uint8 where the searcher bound an expanded table,
        # else in int16; a limit < 0 (costs too large for int16) skips that.
        out = np.empty(lanes * (steps + 2), dtype=np.int64)
        status = search_kernel(
            v._search_block.pointer, lanes, steps, stride, address(reps),
            address(levels), address(out),
        )
        if status == -1:
            raise MemoryError("Viterbi kernel could not allocate scratch")
        if status < 0:
            raise IndexError("Viterbi kernel input out of range")
        size = lanes * steps
        return (
            out[:size].reshape(lanes, steps),
            np.ndarray(lanes, np.float64, out, 8 * size),  # cheaper than .view
            np.ndarray(lanes, bool, out, 8 * (size + lanes)),
        )

    def count(cells):
        cells = np.asarray(cells, dtype=np.uint8)
        *lead, num_cells, width = cells.shape
        # A view where it can be; no -1, which no array of no cells resolves.
        rows = cells.reshape(math.prod(lead), num_cells, width)
        if rows.strides[1:] != (width, 1):
            rows = np.ascontiguousarray(rows)
        out = np.empty((len(rows), num_cells), dtype=np.int64)
        # Rows need not be adjacent: a batch of pages with tail bits is not.
        if levels_kernel(
            len(rows), num_cells, width, rows.strides[0], address(rows),
            address(out),
        ):
            return _popcount(cells)  # raises, naming the lane and the bit
        return out.reshape(*lead, num_cells)

    def program(code, pages, levels, result):
        lanes = len(pages)
        # The kernel's in/out page is this copy, never the caller's array.
        out = np.array(pages, dtype=np.uint8, order="C")
        # Its in/out levels are `levels` itself where that is C-order int64,
        # as the encode's own count is: no second array of them is made.
        new_levels = np.ascontiguousarray(levels, dtype=np.int64)
        codeword = np.ascontiguousarray(result.codeword_values, dtype=np.int64)
        writable = np.ascontiguousarray(result.writable, dtype=bool)
        if (out.shape, new_levels.shape, codeword.shape, writable.shape) == (
            (lanes, code.page_bits), (lanes, code.varray.num_cells),
            (lanes, code.steps), (lanes,),
        ):
            status = program_kernel(
                code._block.pointer, lanes, address(new_levels), address(codeword),
                address(writable), address(out),
            )
            if status == 0:
                return out, new_levels
            if status == -1:
                raise MemoryError("Viterbi kernel could not allocate scratch")
        # Refused before it wrote a level: the twin redoes it from `levels`.
        return _program_numpy(code, pages, levels, result)

    def decode(code, pages):
        lanes = len(pages)
        data = np.empty((lanes, code.dataword_bits), dtype=np.uint8)
        bits = np.ascontiguousarray(pages, dtype=np.uint8)
        if bits.shape == (lanes, code.page_bits) and not decode_kernel(
            code._block.pointer, lanes, address(bits), address(data)
        ):
            return data
        return _decode_numpy(code, pages)

    def wom_encode(code, data, pages):
        # One page or (lanes, page_bits) of them, one dataword a page.  One
        # page gets no mask, only the count of stuck lanes.
        lead = pages.shape[:-1]
        out = np.empty(pages.shape, dtype=np.uint8)
        writable = np.empty(lead, dtype=bool) if lead else None
        words, bits = np.ascontiguousarray(data), np.ascontiguousarray(pages)
        if (
            bits.dtype == words.dtype == np.uint8 and len(lead) <= 1
            and bits.shape == (*lead, code.page_bits)
            and words.shape == (*lead, code.dataword_bits)
        ):
            unwritable = wom_encode_kernel(
                code._block.pointer, len(pages) if lead else 1, address(words),
                address(bits), address(out),
                None if writable is None else address(writable),
            )
            if unwritable >= 0:
                return out, writable if lead else unwritable == 0
        return _wom_encode_numpy(code, data, pages)

    def wom_decode(code, pages):
        lead = pages.shape[:-1]
        data = np.empty((*lead, code.dataword_bits), dtype=np.uint8)
        bits = np.ascontiguousarray(pages)
        if (
            bits.dtype == np.uint8 and len(lead) <= 1
            and bits.shape == (*lead, code.page_bits)
            and not wom_decode_kernel(
                code._block.pointer, len(pages) if lead else 1, address(bits),
                address(data),
            )
        ):
            return data
        return _wom_decode_numpy(code, pages)

    def payload(seed_words, bits):
        out = np.empty(bits, dtype=np.uint8)
        # The words as native uint32, a bytes object ctypes passes as is.
        words = pack(f"{len(seed_words)}I", *seed_words)
        if payload_kernel(len(seed_words), words, bits, address(out)):
            return _payload_numpy(seed_words, bits)  # no __int128, or big-endian
        return out

    return KernelBackend(
        "native", search_inputs, search, program, decode, count, wom_encode,
        wom_decode, payload, needs_fused_table=True,
    )


# -- registry -------------------------------------------------------------------

#: Factories run at first resolution, so listing a backend never builds it.
#: One that raises ``ImportError`` is unavailable: ``"auto"`` skips it, naming
#: it explicitly is a :class:`~repro.errors.ConfigurationError`.
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {
    "numpy": lambda: KernelBackend(
        "numpy", _search_inputs_numpy, _search_numpy, _program_numpy,
        _decode_numpy, _popcount, _wom_encode_numpy, _wom_decode_numpy,
        _payload_numpy,
    ),
    "native": _make_native_backend,
}
#: Memoized resolutions, including the "auto" alias.
_RESOLVED: dict[str, KernelBackend] = {}
#: Why a backend's factory last failed here, by name.
unavailable: dict[str, str] = {}


def backend_names() -> list[str]:
    """Every registered backend name (available or not)."""
    return sorted(_FACTORIES)


def available_backends() -> list[str]:
    """Registered backends whose factories succeed here."""
    names = []
    for name in backend_names():
        try:
            _resolve_one(name)
        except ImportError:
            continue
        names.append(name)
    return names


def _resolve_one(name: str) -> KernelBackend:
    backend = _RESOLVED.get(name)
    if backend is None:
        factory = _FACTORIES.get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown Viterbi kernel backend {name!r}; registered: "
                f"{backend_names()} (or 'auto')"
            )
        try:
            backend = factory()
        except ImportError as exc:
            unavailable[name] = str(exc)
            raise
        unavailable.pop(name, None)
        _RESOLVED[name] = backend
    return backend


def resolve_backend(name: str | None = None) -> KernelBackend:
    """Pick the kernel backend for a new :class:`CosetViterbi`.

    Precedence: explicit ``name`` argument, then ``REPRO_VITERBI_BACKEND``,
    then ``"auto"``.  ``"auto"`` falls back from native to numpy, silently
    when there is no compiler and with one warning when a build failed (an
    order-of-magnitude slow-down should not be silent); asking for an
    unavailable backend by name raises so a missing accelerator never
    degrades quietly.
    """
    requested = (name or os.environ.get(BACKEND_ENV) or "auto").lower()
    cached = _RESOLVED.get(requested)
    if cached is not None:
        return cached
    if requested == "auto":
        try:
            backend = _resolve_one("native")
        except ImportError as exc:
            if not isinstance(exc, ModuleNotFoundError):
                warnings.warn(
                    f"native Viterbi kernel unavailable, using numpy: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            backend = _resolve_one("numpy")
        _RESOLVED["auto"] = backend
        return backend
    try:
        return _resolve_one(requested)
    except ImportError as exc:
        raise ConfigurationError(
            f"Viterbi kernel backend {requested!r} is registered but not "
            f"available here ({exc}); fix that or use 'numpy'/'auto'"
        ) from exc
