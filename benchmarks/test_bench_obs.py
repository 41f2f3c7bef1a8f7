"""Telemetry overhead guard: disabled instrumentation must stay near-free.

The registry is off by default, and every instrument call gates on one
attribute load + branch.  This bench times a full 4 KB-page encode twice —
once through the normal (disabled-telemetry) code path, once with the obs
hooks in the coding modules monkeypatched to inert stubs (the "no-obs"
baseline) — and asserts the disabled path costs < 5% extra.

The two variants are timed interleaved (one round each per repetition) and
compared on min-of-reps, so CPU frequency drift and scheduler noise hit
both sides equally instead of biasing whichever ran last.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from repro.coding import coset as coset_mod
from repro.coding import syndrome as syndrome_mod
from repro.coding import viterbi as viterbi_mod
from repro.coding.coset import ConvolutionalCosetCode
from repro.obs import registry as obs

#: The paper's page size — the acceptance criterion is about real encodes.
PAGE_BITS = 4096 * 8
LANES = 2
REPS = 9
MAX_OVERHEAD = 0.05


def _null_span(name, registry=None, **attrs):
    return contextlib.nullcontext()


class _NullInstrument:
    def inc(self, amount=1):
        pass

    def observe(self, value):
        pass

    def observe_many(self, values):
        pass


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_bench_disabled_telemetry_overhead(monkeypatch, perf_recorder) -> None:
    obs.set_enabled(False)
    code = ConvolutionalCosetCode(page_bits=PAGE_BITS, constraint_length=4)
    rng = np.random.default_rng(0)
    datawords = rng.integers(0, 2, (LANES, code.dataword_bits), dtype=np.uint8)
    pages = np.zeros((LANES, PAGE_BITS), dtype=np.uint8)

    def encode():
        code.encode_batch(datawords, pages)

    # Inert-stub baseline: the span factories and counters the encode path
    # touches are replaced with do-nothings, approximating code compiled
    # with no instrumentation at all.
    null = _NullInstrument()

    def patch_hooks(patcher):
        for module in (coset_mod, syndrome_mod, viterbi_mod):
            patcher.setattr(module, "_span", _null_span)
        patcher.setattr(syndrome_mod, "_DIVISIONS", null)
        patcher.setattr(syndrome_mod, "_SYNDROMES", null)
        patcher.setattr(viterbi_mod, "_SEARCHES", null)
        patcher.setattr(viterbi_mod, "_LANES", null)
        patcher.setattr(viterbi_mod, "_UNWRITABLE", null)

    encode()  # warm up cached tables (trellis, fused cost tables)
    disabled = baseline = float("inf")
    for _ in range(REPS):
        disabled = min(disabled, _time_once(encode))
        with monkeypatch.context() as patcher:
            patch_hooks(patcher)
            baseline = min(baseline, _time_once(encode))

    overhead = disabled / baseline - 1.0
    perf_recorder.record(
        "obs_disabled_overhead",
        page_bits=PAGE_BITS,
        lanes=LANES,
        disabled_s=disabled,
        baseline_s=baseline,
        overhead_fraction=overhead,
    )
    print(
        f"\n4 KB encode: no-obs {baseline * 1e3:.2f} ms, disabled-telemetry "
        f"{disabled * 1e3:.2f} ms, overhead {overhead * 100:+.2f}%"
    )
    assert overhead < MAX_OVERHEAD, (
        f"disabled telemetry costs {overhead * 100:.2f}% on a 4 KB encode "
        f"(budget {MAX_OVERHEAD * 100:.0f}%)"
    )
