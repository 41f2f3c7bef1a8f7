"""The benchmark's own span tracer.

Spans are recorded from the benchmark's files only: :meth:`Tracer.install`
replaces the public callables at each layer boundary (``BOUNDARIES``) with
timing wrappers and :meth:`Tracer.uninstall` puts the originals back, so
nothing under ``src/`` changes and ``repro.obs`` stays off.  Every thread
keeps its own stack, spans are held in memory as plain tuples and only
summarised after the timed window ends.

A span's *self time* is its duration minus the part its child spans cover;
per layer the self times add up to the time the thread spent inside traced
code, which is what lets the per-layer table reconcile with the wall clock.
"""

from __future__ import annotations

import importlib
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

__all__ = [
    "BOUNDARIES", "Boundary", "LayerTotals", "Span", "Tracer", "span_cost_s",
]

_NO_PARENT = -1


class Span(NamedTuple):
    """One completed span (``parent`` is a span id of the same thread)."""

    sid: int
    parent: int
    name: str
    start: float
    end: float
    failed: bool
    value: object  # boundary-specific measure (lanes, bytes, ...) or None


@dataclass(frozen=True)
class Boundary:
    """One public callable to wrap: ``module:Owner.attr`` -> span ``name``.

    ``label`` appends a per-call suffix to the name (``name:suffix``);
    ``value`` extracts one measure from the call's arguments and result;
    ``after`` is called with the clock once the span is recorded.
    """

    target: str
    name: str
    label: Callable[[tuple], str] | None = None
    value: Callable[[tuple, object], object] | None = None
    after: Callable[[float], None] | None = None


def _lanes(args: tuple, _result: object) -> int:
    return len(args[1])


def _batch_unwritable(_args: tuple, result: tuple) -> tuple[int, int]:
    """(lanes, lanes that need an erase) of one ``write_batch`` call."""
    writable = result[1]
    return len(writable), len(writable) - int(writable.sum())


#: The layer boundaries of the write path, bottom to top.  Scalar and
#: batched faces of one operation share a span name.
BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("repro.coding.viterbi:CosetViterbi.search_batch",
             "coding.viterbi_search", value=_lanes),
    Boundary("repro.coding.syndrome:SyndromeFormer.representative_batch",
             "coding.syndrome_rep"),
    Boundary("repro.coding.syndrome:SyndromeFormer.syndrome_batch",
             "coding.syndrome_decode"),
    Boundary("repro.coding.coset:ConvolutionalCosetCode.encode_batch",
             "coding.coset_encode", value=_lanes),
    Boundary("repro.coding.coset:ConvolutionalCosetCode.decode_batch",
             "coding.coset_decode"),
    Boundary("repro.coding.wom:WomVCellCode.encode", "coding.wom_encode"),
    Boundary("repro.coding.wom:WomVCellCode.encode_batch", "coding.wom_encode"),
    Boundary("repro.coding.wom:WomVCellCode.decode", "coding.wom_decode"),
    Boundary("repro.coding.wom:WomVCellCode.decode_batch", "coding.wom_decode"),
    Boundary("repro.vcell.varray:VCellArray.levels", "vcell.levels"),
    Boundary("repro.vcell.varray:VCellArray.levels_batch", "vcell.levels"),
    Boundary("repro.vcell.varray:VCellArray.program_levels",
             "vcell.program_levels"),
    Boundary("repro.vcell.varray:VCellArray.program_levels_batch",
             "vcell.program_levels"),
    Boundary("repro.core.scheme:PageCodeScheme.write", "core.scheme_write",
             label=lambda args: args[0].name),
    Boundary("repro.core.scheme:PageCodeScheme.write_batch",
             "core.scheme_write", value=_batch_unwritable),
    Boundary("repro.core.scheme:PageCodeScheme.read", "core.scheme_read"),
    Boundary("repro.core.scheme:PageCodeScheme.read_batch", "core.scheme_read"),
    Boundary("repro.core.uncoded:UncodedScheme.write", "core.scheme_write"),
    Boundary("repro.core.redundancy:RedundancyScheme.write",
             "core.scheme_write"),
    Boundary("repro.core.lifetime:LifetimeSimulator.run", "core.lifetime_sim",
             label=lambda args: args[0].scheme.name),
    Boundary("repro.experiments.table1:run_table1", "experiments.run_table1"),
    Boundary("repro.ftl.ftl:BasicFTL.write", "ftl.write"),
    Boundary("repro.ftl.ftl:BasicFTL.read", "ftl.read"),
    Boundary("repro.ftl.rewriting_ftl:RewritingFTL.write", "ftl.write"),
    Boundary("repro.ftl.rewriting_ftl:RewritingFTL.write_batch", "ftl.write"),
    Boundary("repro.flash.chip:FlashChip.read_page", "flash.read"),
    Boundary("repro.flash.chip:FlashChip.program_page", "flash.program"),
    Boundary("repro.flash.chip:FlashChip.erase_block", "flash.erase"),
    Boundary("repro.ssd.device:SSD.write", "ssd.write"),
    Boundary("repro.ssd.device:SSD.write_batch", "ssd.write_batch",
             value=_lanes),
    Boundary("repro.ssd.device:SSD.read", "ssd.read"),
    Boundary("repro.ssd.device:SSD.checkpoint", "ssd.checkpoint"),
    Boundary("repro.durability.store:DurableStore.journal_write",
             "durability.journal_append"),
    Boundary("repro.durability.journal:encode_record",
             "durability.encode_record",
             value=lambda _args, result: len(result)),
    Boundary("repro.durability.store:DurableStore.commit", "durability.commit",
             value=lambda _args, result: result),
    Boundary("repro.durability.store:DurableStore.checkpoint",
             "durability.checkpoint"),
    Boundary("repro.durability.store:DurableStore.recover",
             "durability.recover"),
    Boundary("repro.server.protocol:encode_request", "server.encode_request"),
    Boundary("repro.server.protocol:decode_request", "server.decode_request"),
    Boundary("repro.server.protocol:encode_response",
             "server.encode_response"),
    Boundary("repro.server.protocol:decode_response",
             "server.decode_response"),
)


class _ThreadLog:
    """One thread's spans plus the id of its innermost open span."""

    __slots__ = ("thread", "spans", "current", "next_id")

    def __init__(self, thread: str) -> None:
        self.thread = thread
        self.spans: list[Span] = []
        self.current = _NO_PARENT
        self.next_id = 0


@dataclass
class LayerTotals:
    """What one span name added up to inside a time window."""

    count: int = 0
    failed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: list[float] = field(default_factory=list)
    values: list = field(default_factory=list)  # one per duration; may be None


class Tracer:
    """Per-thread span stacks behind wrappers the benchmark installs."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._patched: list[tuple[object, str, object]] = []
        #: Whether :meth:`span` records; off in the untraced pass, where the
        #: benchmark's own spans would only cost time.
        self.active = False

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
        return log

    def wrap(self, fn: Callable, boundary: Boundary) -> Callable:
        """``fn`` with a span named after ``boundary`` around every call."""
        name, label, value = boundary.name, boundary.label, boundary.value
        after = boundary.after
        get_log = self._log
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log = get_log()
            sid = log.next_id
            log.next_id = sid + 1
            parent = log.current
            log.current = sid
            failed = True
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = clock()
                log.current = parent
                log.spans.append(Span(
                    sid, parent,
                    name if label is None else f"{name}:{label(args)}",
                    start, end, failed,
                    value(args, result)
                    if value is not None and not failed else None,
                ))
                if after is not None:
                    after(end)

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around benchmark-side code (workload draws, checks)."""
        if not self.active:
            yield
            return
        log = self._log()
        sid = log.next_id
        log.next_id = sid + 1
        parent = log.current
        log.current = sid
        failed = True
        start = time.perf_counter()
        try:
            yield
            failed = False
        finally:
            end = time.perf_counter()
            log.current = parent
            log.spans.append(Span(sid, parent, name, start, end, failed, None))

    # -- installing ----------------------------------------------------------

    def install(self, boundaries: tuple[Boundary, ...] = BOUNDARIES) -> None:
        """Replace every boundary callable with its traced wrapper."""
        for boundary in boundaries:
            module_name, _, path = boundary.target.partition(":")
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            setattr(owner, attr, self.wrap(original, boundary))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        """Put every replaced callable back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reading -------------------------------------------------------------

    def threads(self) -> list[tuple[str, list[Span]]]:
        """Every thread's ``(name, spans)``, spans in completion order.

        Names repeat (each server start makes a new ``repro-device_0``),
        so this is a list, not a mapping.
        """
        with self._lock:
            return [(log.thread, log.spans) for log in self._logs]

    def _inside(self, start: float, end: float, thread_prefix: str):
        """Per thread, the spans that lie wholly inside the window."""
        for name, spans in self.threads():
            if name.startswith(thread_prefix):
                yield [s for s in spans if s.start >= start and s.end <= end]

    def totals(
        self, start: float, end: float, thread_prefix: str = ""
    ) -> dict[str, LayerTotals]:
        """Per-name totals over the window, for threads named with the prefix."""
        totals: dict[str, LayerTotals] = defaultdict(LayerTotals)
        for inside in self._inside(start, end, thread_prefix):
            child_s: dict[int, float] = defaultdict(float)
            for span in inside:
                if span.parent != _NO_PARENT:
                    child_s[span.parent] += span.end - span.start
            for span in inside:
                duration = span.end - span.start
                layer = totals[span.name]
                layer.count += 1
                layer.failed += span.failed
                layer.total_s += duration
                layer.self_s += duration - child_s.get(span.sid, 0.0)
                layer.durations.append(duration)
                layer.values.append(span.value)
        return totals

    def spans(self, name: str, start: float, end: float) -> list[Span]:
        """The ``name`` spans (labelled forms included) inside the window."""
        return [
            span
            for inside in self._inside(start, end, "")
            for span in inside
            if span.name == name or span.name.partition(":")[0] == name
        ]

    def top_level_s(self, start: float, end: float, thread_prefix: str) -> float:
        """Time those threads spent inside any span during the window."""
        return sum(
            span.end - span.start
            for inside in self._inside(start, end, thread_prefix)
            for span in inside
            if span.parent == _NO_PARENT
        )


def span_cost_s(calls: int = 20000) -> float:
    """What one wrapper costs per call, measured on a throw-away tracer."""
    def nothing():
        return None

    traced = Tracer().wrap(nothing, Boundary("", "probe"))
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        nothing()
    bare = clock() - start
    start = clock()
    for _ in range(calls):
        traced()
    return max(0.0, (clock() - start - bare) / calls)
