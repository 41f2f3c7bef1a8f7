"""Pluggable kernel backends for the Viterbi fast path.

Every page write runs one minimum-cost coset search, the hottest code in
the repository.  :class:`~repro.coding.viterbi.CosetViterbi` owns the
tables and the dispatch; the search sits behind this registry.

A backend is two functions reading the tables of the ``CosetViterbi``
they are handed::

    forward(viterbi, reps, levels, dtype) -> (path, backptr)
    backtrace(viterbi, reps, end_state, backptr) -> codeword_values

``reps`` is ``(B, steps)`` and ``levels`` ``(B, steps, cells)``, int64
but not necessarily contiguous; ``path`` is the ``(B, S)`` final metrics
in ``dtype`` (float32/float64), ``codeword_values`` ``(B, steps)`` int64,
and ``backptr`` is private to the backend.  Costs are non-negative
integers or ``inf``.  Strict-less selects are load-bearing: a tie keeps
the lower predecessor, ``argmin``'s first-occurrence rule, which the
historical recursion (and so every recorded result) follows.  A backend
that breaks ties differently is *wrong* even if its total costs agree;
``tests/coding/test_viterbi_kernel.py`` pins every available backend to
byte-identical codewords, costs and writability.

``numpy`` (always available, the reference) folds two steps into one
radix-4 iteration of ufunc calls.  ``native`` is ``_viterbi.c``: cost
lookup, ACS and backtrace fused into two foreign calls per search,
compiled on first use into this package's ``__pycache__`` and loaded
with ``ctypes``.  Nothing is probed, imported or written until a
``CosetViterbi`` resolves its backend: by explicit name, then the
``REPRO_VITERBI_BACKEND`` variable, then ``"auto"`` (native when it
builds, else numpy), memoized per name.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "KernelBackend",
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
    """One registered implementation of the radix-4 search."""

    name: str
    forward: Callable
    backtrace: Callable
    #: Reads ``CosetViterbi._fused_flat``: a searcher whose level space is
    #: too large to tabulate runs the numpy backend instead.
    needs_fused_table: bool = False


# -- numpy backend --------------------------------------------------------------


def _acs_radix4_numpy(path, folded, prev2_flat, sel, low01, low23, pair0):
    """One pass of ``out=`` ufuncs per step pair.  ``argmin`` is an order
    of magnitude slower on these shapes, so the four-way select is two
    pairwise minima plus a final one, the comparisons writing the planes."""
    pairs, lanes, four_s = folded.shape
    num_states = four_s // 4
    inc4 = np.empty((lanes, 4, num_states), dtype=path.dtype)
    inc4_flat = inc4.reshape(lanes, four_s)
    cand0, cand1, cand2, cand3 = (inc4[:, kk, :] for kk in range(4))
    min01 = np.empty((lanes, num_states), dtype=path.dtype)
    min23 = np.empty((lanes, num_states), dtype=path.dtype)
    take_path = path.take
    for i in range(pairs):
        take_path(prev2_flat, axis=1, out=inc4_flat)
        inc4_flat += folded[i]
        row = pair0 + i
        np.less(cand1, cand0, out=low01[row])
        np.less(cand3, cand2, out=low23[row])
        np.minimum(cand0, cand1, out=min01)
        np.minimum(cand2, cand3, out=min23)
        np.less(min23, min01, out=sel[row])
        np.minimum(min01, min23, out=path)


def _forward_numpy(v, reps, levels, dtype):
    """ACS over two trellis steps per iteration; exact for integer costs.

    Choice ``kk = 2*k1 + k0`` takes predecessor ``k1`` at the later step
    and ``k0`` at the earlier one.  The backpointers are three boolean
    planes per pair, ``kk = 2 + low23 if sel else low01``, plus the odd
    final step's radix-2 plane or None.
    """
    lanes, steps = reps.shape
    num_states = v.trellis.num_states
    n_pairs = steps // 2
    path = np.zeros((lanes, num_states), dtype=dtype)
    sel = np.empty((n_pairs, lanes, num_states), dtype=bool)
    low01 = np.empty((n_pairs, lanes, num_states), dtype=bool)
    low23 = np.empty((n_pairs, lanes, num_states), dtype=bool)
    backptr_tail = (
        np.empty((lanes, num_states), dtype=bool) if steps % 2 else None
    )
    row_bytes = 2 * num_states * lanes * 8
    chunk = max(2, _CHUNK_BYTES // max(row_bytes, 1))
    chunk -= chunk % 2
    pair = 0
    for t0 in range(0, steps, chunk):
        t1 = min(steps, t0 + chunk)
        span = t1 - t0
        chunk_pairs = span // 2
        if v._fused_flat is not None:
            # Gather straight from the (level combos, 2**m) fused table
            # — it is tiny, so every lookup is a cache hit.
            costs_flat = v._fused_flat[np.dtype(dtype)]
            level_rows = levels[:, t0:t1, 0]
            for cell in range(1, v.cells_per_step):
                level_rows = level_rows * v._num_levels + levels[:, t0:t1, cell]
            level_rows = (level_rows * v.num_values).astype(np.int32)
            late_off = level_rows[:, 1::2].T[:, :, None]
            early_off = level_rows[:, 0 : span - (span % 2) : 2].T[:, :, None]
            tail_off = level_rows[:, span - 1]
        else:
            # (B * span, 2**m) cost rows for this chunk of steps,
            # flattened so the composed gathers below index directly.
            costs_flat = np.ascontiguousarray(
                v.step_cost_table(levels[:, t0:t1]).reshape(-1, v.num_values),
                dtype=dtype,
            )
            lane_base = np.arange(lanes, dtype=np.int32) * (span * v.num_values)
            step_off = (
                np.arange(chunk_pairs, dtype=np.int32) * (2 * v.num_values)
            )[:, None] + lane_base[None, :]
            late_off = (step_off + v.num_values)[:, :, None]
            early_off = step_off[:, :, None]
            tail_off = lane_base + (span - 1) * v.num_values
        if chunk_pairs:
            # Fold the two steps of each pair at gather time: one take
            # per half-step slab, no intermediate 2S-wide branch tensor.
            late = v._xg2_late[reps[:, t0 + 1 : t1 : 2].T]
            early = v._xg2_early[reps[:, t0 : t1 - (span % 2) : 2].T]
            late += late_off
            early += early_off
            folded = costs_flat.take(late)
            folded += costs_flat.take(early)
            _acs_radix4_numpy(path, folded, v._prev2_flat, sel, low01, low23, pair)
            pair += chunk_pairs
        if span % 2:  # only the final chunk of an odd-length trellis
            inc2 = np.empty((lanes, 2, num_states), dtype=dtype)
            inc2_flat = inc2.reshape(lanes, 2 * num_states)
            tail_idx = v._xg_flat[reps[:, t1 - 1]] + tail_off[:, None]
            path.take(v._prev_flat, axis=1, out=inc2_flat)
            inc2_flat += costs_flat.take(tail_idx)
            np.less(inc2[:, 1], inc2[:, 0], out=backptr_tail)
            np.minimum(inc2[:, 0], inc2[:, 1], out=path)
    return path, (sel, low01, low23, backptr_tail)


def _backtrace_numpy(v, reps, end_state, backptr):
    """Walk states backward, then rebuild all codeword chunks at once."""
    lanes, steps = reps.shape
    sel, low01, low23, backptr_tail = backptr
    if lanes == 1:
        # A pure-Python walk over nested lists beats batched fancy
        # indexing by a wide margin at one lane.
        seq = [0] * steps
        state = int(end_state[0])
        if backptr_tail is not None:
            state = v._prev_list[state][int(backptr_tail[0, state])]
            seq[steps - 1] = state
        sel_item, low01_item, low23_item = sel.item, low01.item, low23.item
        mid_list, src_list = v._mid_list, v._src_list
        for pair in range(steps // 2 - 1, -1, -1):
            if sel_item(pair, 0, state):
                kk = 2 + low23_item(pair, 0, state)
            else:
                kk = low01_item(pair, 0, state)
            row_mid, row_src = mid_list[state], src_list[state]
            seq[2 * pair + 1] = row_mid[kk]
            state = row_src[kk]
            seq[2 * pair] = state
        before = np.array(seq, dtype=np.int64)[None, :]
    else:
        lane_index = np.arange(lanes)
        sel_u = sel.view(np.uint8)
        low01_u = low01.view(np.uint8)
        low23_u = low23.view(np.uint8)
        before = np.empty((lanes, steps), dtype=np.int64)
        state = end_state.astype(np.int64)
        if backptr_tail is not None:
            choice = backptr_tail.view(np.uint8)[lane_index, state]
            before[:, steps - 1] = state = v._prev_src[state, choice]
        for pair in range(steps // 2 - 1, -1, -1):
            t = 2 * pair
            chose23 = sel_u[pair, lane_index, state]
            kk = np.where(
                chose23,
                2 + low23_u[pair, lane_index, state],
                low01_u[pair, lane_index, state],
            )
            before[:, t + 1] = v._mid_tab[state, kk]
            before[:, t] = state = v._src_tab[state, kk]
    after = np.empty_like(before)
    after[:, :-1] = before[:, 1:]
    after[:, -1] = end_state
    # Shift-register labeling: the input consumed entering a state is
    # its low bit (validated in CosetViterbi before taking this path).
    return v._out_values[before, after & 1] ^ reps


# -- native backend -------------------------------------------------------------

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_viterbi.c")
_CACHE_DIR = os.path.join(os.path.dirname(_SOURCE), "__pycache__")
#: No -ffast-math, ever: unwritable lanes carry IEEE inf through the ACS.
_CFLAGS = ("-O2", "-shared", "-fPIC")


def _find_compiler() -> str | None:
    import shutil

    return shutil.which(os.environ.get("CC") or "cc")


def _load_native():
    """Build ``_viterbi.c`` unless its artefact is cached, and load it.

    Raises ``ModuleNotFoundError`` when there is no compiler and plain
    ``ImportError`` when building or loading fails.
    """
    import ctypes
    import hashlib
    import platform
    import subprocess
    import tempfile

    with open(_SOURCE, "rb") as handle:
        keyed = handle.read() + " ".join((*_CFLAGS, platform.machine())).encode()
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
                    [compiler, *_CFLAGS, "-o", built, _SOURCE],
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


def _make_native_backend() -> KernelBackend:
    import ctypes

    library = _load_native()
    forwards = {
        np.dtype(np.float32): library.forward_f32,
        np.dtype(np.float64): library.forward_f64,
    }
    for function in forwards.values():
        function.argtypes = [ctypes.c_int64] * 6 + [ctypes.c_void_p] * 7
    library.backtrace.argtypes = [ctypes.c_int64] * 3 + [ctypes.c_void_p] * 6

    def call(function, sizes, *arrays):
        # The kernel assumes C order and exactly these dtypes, so callers
        # pass everything through ascontiguousarray (free when it conforms);
        # `arrays` keeps the buffers alive.  Values are range-checked in C.
        status = function(*sizes, *(array.ctypes.data for array in arrays))
        if status == -1:
            raise MemoryError("Viterbi kernel could not allocate scratch")
        if status:
            raise IndexError("Viterbi kernel input out of range")

    def forward(v, reps, levels, dtype):
        lanes, steps = reps.shape
        num_states = v.trellis.num_states
        path = np.empty((lanes, num_states), dtype=dtype)
        choice = np.empty((lanes, steps, num_states), dtype=np.uint8)
        call(
            forwards[np.dtype(dtype)],
            (lanes, steps, num_states, v.cells_per_step, v._num_levels,
             v.num_values),
            np.ascontiguousarray(v._prev_src, dtype=np.int32),
            np.ascontiguousarray(v._pred_output, dtype=np.int32),
            np.ascontiguousarray(v._fused_flat[np.dtype(dtype)], dtype=dtype),
            np.ascontiguousarray(reps, dtype=np.int64),
            np.ascontiguousarray(levels, dtype=np.int64),
            path, choice,
        )
        return path, choice

    def backtrace(v, reps, end_state, backptr):
        codeword = np.empty(reps.shape, dtype=np.int64)
        call(
            library.backtrace, (*reps.shape, v.trellis.num_states),
            np.ascontiguousarray(v._prev_src, dtype=np.int32),
            np.ascontiguousarray(v._out_values, dtype=np.int32),
            np.ascontiguousarray(reps, dtype=np.int64),
            np.ascontiguousarray(end_state, dtype=np.int64),
            backptr, codeword,
        )
        return codeword

    return KernelBackend("native", forward, backtrace, needs_fused_table=True)


# -- registry -------------------------------------------------------------------

#: Factories run at first resolution, so listing a backend never builds it.
#: One that raises ``ImportError`` is unavailable: ``"auto"`` skips it, naming
#: it explicitly is a :class:`~repro.errors.ConfigurationError`.
_FACTORIES: dict[str, Callable[[], KernelBackend]] = {
    "numpy": lambda: KernelBackend("numpy", _forward_numpy, _backtrace_numpy),
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
    when there is no compiler and with one warning when a build failed (a
    5x slow-down should not be silent); asking for an unavailable backend
    by name raises so a missing accelerator never degrades quietly.
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
