"""Parallel sweep executor: experiments as independent, cacheable cells.

Every experiment driver (Table I, Figs. 1/11-16, extensions) decomposes
into independent *cells* — one ``(scheme name, page_bits, kwargs, cycles,
seed, lanes)`` tuple per simulated scheme instance.  A cell carries
everything needed to rebuild its scheme via
:func:`~repro.core.factory.make_scheme` in another process, so the fabric
can fan cells out over worker processes (``--jobs N`` / ``REPRO_JOBS``)
while the driver stays a plain list comprehension.

The parallel fabric is a **process-lifetime warm pool**: workers are
spawned once, lazily, at the first parallel :func:`run_cells` call, and
stay resident across calls (recreated only when ``jobs`` changes;
:func:`shutdown` — also registered ``atexit`` — tears them down).  Each
worker pre-imports ``repro`` and leans on the engine's scheme memo
(:func:`repro.experiments.engine.scheme_for`), so repeated cells for the
same ``(scheme, page_bits, kwargs)`` skip trellis/cost/gather-table
construction entirely.  Dispatch is **chunked**: pending cells are
grouped into at most ``4 * jobs`` contiguous chunks so each IPC
round-trip amortizes pickle and telemetry-snapshot cost over many cells.

Determinism is structural: each cell's seed is bound at decomposition
time (not derived from completion order), chunks are contiguous slices of
the submission order, and :func:`run_cells` scatters chunk results back
by index — ``--jobs 4`` output is byte-identical to ``--jobs 1``.
Telemetry snapshots are taken per chunk and merged in the parent; merging
is commutative, so ``--jobs N`` counter totals exactly equal a serial
run's no matter which worker finishes first.

Cells are also the unit of caching: :func:`cell_key` hashes the cell
together with the :func:`~repro.cache.code_fingerprint`, so warm reruns
skip simulation entirely (see :mod:`repro.cache`).
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

from repro.cache import (
    ResultCache,
    code_fingerprint,
    fingerprinted_key,
    get_default_cache,
)
from repro.experiments.config import ExperimentConfig
from repro.experiments.engine import scheme_for, simulate_lanes
from repro.obs import registry as _metrics
from repro.obs.registry import RegistrySnapshot
from repro.obs.tracing import span as _span

__all__ = [
    "SweepCell",
    "SweepCellError",
    "cell_cacheable",
    "cell_for",
    "cell_key",
    "run_cell",
    "run_cells",
    "shutdown",
]

_CELLS_RUN = _metrics.counter("sweep.cells_run")
_CELLS_CACHED = _metrics.counter("sweep.cells_cached")

#: Chunks per worker: enough slack that a straggler chunk doesn't idle
#: the other workers, small enough that per-chunk overhead stays amortized.
_CHUNKS_PER_WORKER = 4


class SweepCellError(RuntimeError):
    """A cell raised inside a sweep worker.

    The message names the failing cell (scheme, page_bits, seed, ...) and
    the original error; the original traceback is chained via the pool's
    remote-traceback machinery.
    """


@dataclass(frozen=True)
class SweepCell:
    """One independent unit of simulation work.

    Frozen and built from primitives only, so instances pickle cheaply to
    worker processes and hash stably into cache keys.
    """

    scheme: str
    page_bits: int
    cycles: int
    seed: int
    lanes: int = 1
    #: Extra ``make_scheme`` keyword arguments as sorted ``(name, value)``
    #: pairs (tuples hash; dicts don't).
    kwargs: tuple[tuple[str, object], ...] = ()


def cell_for(
    name: str,
    config: ExperimentConfig,
    page_bits: int | None = None,
    **kwargs,
) -> SweepCell:
    """A cell for ``name`` under ``config``, with optional overrides."""
    return SweepCell(
        scheme=name,
        page_bits=config.page_bits if page_bits is None else page_bits,
        cycles=config.cycles,
        seed=config.seed,
        lanes=config.lanes,
        kwargs=tuple(sorted(kwargs.items())),
    )


def cell_key(cell, fingerprint: str | None = None) -> str:
    """Content address of a cell's result (includes the code fingerprint).

    :class:`SweepCell` keeps its historical key layout; any other cell
    type provides a ``key_payload()`` dict (the generic cell protocol:
    ``key_payload()``, ``run()`` and an optional ``cacheable``).  Callers
    keying many cells pass ``fingerprint`` explicitly so the package hash
    is computed once per sweep, not once per cell.
    """
    if isinstance(cell, SweepCell):
        payload: dict = {
            "kind": "lifetime-cell",
            "scheme": cell.scheme,
            "page_bits": cell.page_bits,
            "cycles": cell.cycles,
            "seed": cell.seed,
            "lanes": cell.lanes,
            "kwargs": [[key, value] for key, value in cell.kwargs],
        }
    else:
        payload = dict(cell.key_payload())
    return fingerprinted_key(payload, fingerprint)


def cell_cacheable(cell) -> bool:
    """May this cell's result be served from the cache?

    Lifetime cells are always deterministic; generic cells opt out via a
    ``cacheable`` attribute (a cell whose outcome depends on timing).
    """
    return bool(getattr(cell, "cacheable", True))


def run_cell(cell) -> object:
    """Run one cell (module-level so it pickles to pool workers).

    ``SweepCell`` runs a lifetime simulation; any other cell type runs its
    own ``run()`` method (the generic cell protocol).  Scheme instances
    come from the engine memo, so a warm process (serial caller or pool
    worker alike) skips table construction for repeated configurations.
    """
    if not isinstance(cell, SweepCell):
        with _span("sweep.cell", kind=type(cell).__name__):
            result = cell.run()
        _CELLS_RUN.inc()
        return result
    scheme = scheme_for(cell.scheme, cell.page_bits, cell.kwargs)
    with _span(
        "sweep.cell",
        scheme=cell.scheme,
        page_bits=cell.page_bits,
        lanes=cell.lanes,
        cycles=cell.cycles,
        seed=cell.seed,
    ):
        result = simulate_lanes(
            scheme, cycles=cell.cycles, seed=cell.seed, lanes=cell.lanes
        )
    _CELLS_RUN.inc()
    return result


def _describe_cell(cell) -> str:
    if isinstance(cell, SweepCell):
        return (
            f"scheme={cell.scheme!r} page_bits={cell.page_bits} "
            f"cycles={cell.cycles} seed={cell.seed} lanes={cell.lanes}"
        )
    return f"{type(cell).__name__} cell"


def _run_one(cell) -> object:
    """Run one cell, naming it in any failure (workers re-raise this)."""
    try:
        return run_cell(cell)
    except Exception as exc:
        raise SweepCellError(
            f"sweep cell failed ({_describe_cell(cell)}): "
            f"{type(exc).__name__}: {exc}"
        ) from exc


# ---------------------------------------------------------------------------
# Worker side: chunk execution.
# ---------------------------------------------------------------------------


def _worker_init() -> None:
    """Per-worker setup, run once per worker process lifetime.

    Pre-imports the package (fork already maps it; spawn would not), and
    pins the inherited registry to a known-empty, disabled state so a
    long-lived worker never accumulates events between chunks — each
    chunk re-enables, runs, snapshots, and disables again.  The scheme
    memo is *not* cleared: inheriting the parent's warm tables is free
    under fork and exactly what the warm pool wants.
    """
    import repro.experiments  # noqa: F401  (pre-import the heavy modules)

    registry = _metrics.get_registry()
    registry.enabled = False
    registry.reset()


def _run_chunk(cells: list, telemetry: bool) -> tuple:
    """Worker entry point: run one chunk of cells, snapshot once.

    Workers are long-lived, so the telemetry protocol is explicit: force
    the registry to the parent's choice, zero it, run the whole chunk,
    snapshot once, then disable and zero again so nothing leaks into the
    next chunk.  One snapshot per *chunk* (not per cell) is what makes
    chunked dispatch cheap; merging per-chunk snapshots in the parent
    yields the same totals as per-cell ones because merge is commutative
    and associative.
    """
    registry = _metrics.get_registry()
    snapshot: RegistrySnapshot | None = None
    if telemetry:
        registry.enabled = True
        registry.reset()
    try:
        results = [_run_one(cell) for cell in cells]
        if telemetry:
            snapshot = registry.snapshot()
    finally:
        if telemetry:
            registry.enabled = False
            registry.reset()
    return results, snapshot


# ---------------------------------------------------------------------------
# Parent side: the warm pool and chunked dispatch.
# ---------------------------------------------------------------------------

_pool: ProcessPoolExecutor | None = None
_pool_jobs = 0


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The process-lifetime pool, (re)built lazily for ``jobs`` workers."""
    global _pool, _pool_jobs
    if _pool is not None and _pool_jobs != jobs:
        shutdown()
    if _pool is None:
        _pool = ProcessPoolExecutor(
            max_workers=jobs, initializer=_worker_init
        )
        _pool_jobs = jobs
    return _pool


def shutdown() -> None:
    """Tear down the warm worker pool (idempotent; registered atexit).

    Tests call this between cases so pools never leak across test
    boundaries; the CLI calls it before exiting so worker processes never
    outlive the run.  The next parallel :func:`run_cells` simply builds a
    fresh pool.
    """
    global _pool, _pool_jobs
    if _pool is not None:
        _pool.shutdown(wait=True, cancel_futures=True)
        _pool = None
        _pool_jobs = 0


atexit.register(shutdown)


def _chunk_sizes(count: int, jobs: int) -> list[int]:
    """Split ``count`` cells into at most ``4 * jobs`` contiguous chunks.

    Sizes differ by at most one and sum to ``count``; more chunks than
    cells never happens (a chunk is never empty).
    """
    target = max(1, min(count, _CHUNKS_PER_WORKER * jobs))
    base, extra = divmod(count, target)
    return [base + 1 if i < extra else base for i in range(target)]


def _run_parallel(
    cells: list, pending: list[int], results: list, jobs: int, registry
) -> None:
    """Fan pending cells out over the warm pool, chunked, in order."""
    telemetry = registry.enabled
    chunks: list[list[int]] = []
    start = 0
    for size in _chunk_sizes(len(pending), jobs):
        chunks.append(pending[start : start + size])
        start += size
    pool = _get_pool(jobs)
    futures = {}
    with _span(
        "sweep.dispatch", jobs=jobs, cells=len(pending), chunks=len(chunks)
    ):
        try:
            for chunk in chunks:
                future = pool.submit(
                    _run_chunk, [cells[index] for index in chunk], telemetry
                )
                futures[future] = chunk
            for future in as_completed(futures):
                chunk_results, snapshot = future.result()
                for index, result in zip(futures[future], chunk_results):
                    results[index] = result
                if snapshot is not None:
                    registry.merge(snapshot)
        except BaseException as exc:
            # Don't strand the rest of the sweep behind a failure: chunks
            # that haven't started are cancelled, the ones running finish
            # in their workers and their results are dropped.
            for future in futures:
                future.cancel()
            if isinstance(exc, BrokenProcessPool):
                shutdown()
            raise


def run_cells(
    cells: list,
    config: ExperimentConfig | None = None,
    *,
    jobs: int | None = None,
    cache: ResultCache | None | bool = None,
) -> list:
    """Run cells — cache-aware, optionally across the warm worker pool.

    Accepts :class:`SweepCell` lifetime cells and any generic cell
    (``key_payload()`` + ``run()``, optional ``cacheable`` flag), mixed
    freely.  Results come back in the order of ``cells`` no matter which
    worker finishes first.  ``jobs`` defaults to ``config.jobs``;
    ``cache=None`` uses the default cache when ``config.cache`` is set,
    ``cache=False`` disables it, and an explicit
    :class:`~repro.cache.ResultCache` is used as-is.  Cells whose outcome
    is not deterministic (``cacheable == False``) always run live.  Cache
    reads/writes happen only in the parent process, so workers stay
    write-free and the stats counters stay coherent.  Each cell's key is
    computed exactly once per call (probe and store share it), with the
    code fingerprint folded in exactly once.
    """
    config = config or ExperimentConfig.from_env()
    if jobs is None:
        jobs = config.jobs
    if cache is None:
        cache = get_default_cache() if config.cache else None
    elif cache is False:
        cache = None
    results: list = [None] * len(cells)
    keys: dict[int, str] = {}
    if cache is not None:
        fingerprint = code_fingerprint()
        keys = {
            index: cell_key(cell, fingerprint)
            for index, cell in enumerate(cells)
            if cell_cacheable(cell)
        }
    pending: list[int] = []
    for index in range(len(cells)):
        key = keys.get(index)
        hit = cache.get(key) if key is not None else None
        if hit is not None:
            results[index] = hit
            _CELLS_CACHED.inc()
        else:
            pending.append(index)
    registry = _metrics.get_registry()
    if jobs > 1 and len(pending) > 1:
        _run_parallel(cells, pending, results, jobs, registry)
    else:
        for index in pending:
            results[index] = _run_one(cells[index])
    if cache is not None:
        for index in pending:
            key = keys.get(index)
            if key is not None:
                cache.put(key, results[index])
    return results
