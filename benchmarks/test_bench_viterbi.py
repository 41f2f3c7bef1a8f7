"""Raw coding-path performance: encode/decode throughput.

Not a paper figure — this tracks the implementation's own hot path so
regressions in the Viterbi search or the syndrome former are visible.
Everything here runs one lane on the paper's 4 KB page (32 768 bits) at
K=7, once per available kernel backend, and every record says so.
"""

from __future__ import annotations

import os
import time

import numpy as np
import pytest

from repro.coding import ConvolutionalCosetCode
from repro.coding.kernels import BACKEND_ENV, available_backends, resolve_backend

PAGE_BITS = 32768
CONSTRAINT_LENGTH = 7


def _machine() -> dict:
    """What every record here states next to its code parameters."""
    return {
        "constraint_length": CONSTRAINT_LENGTH,
        "cpus": os.cpu_count() or 1,
    }


def _make_code(backend: str) -> ConvolutionalCosetCode:
    """A code whose whole write and read (search inputs, search, program,
    decode) run on ``backend``: the code binds all of them from one
    backend, chosen by the environment when it is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(BACKEND_ENV, backend)
        code = ConvolutionalCosetCode(
            page_bits=PAGE_BITS, rate_denominator=2,
            constraint_length=CONSTRAINT_LENGTH,
        )
    kernel = resolve_backend(backend)
    assert code.viterbi.backend is kernel
    assert code.varray._popcount is kernel.levels
    assert code.viterbi.backend.search_inputs is kernel.search_inputs
    return code


def _warm_page(code) -> np.ndarray:
    """A half-worn page (realistic mid-life Viterbi input)."""
    rng = np.random.default_rng(0)
    page = np.zeros(code.page_bits, np.uint8)
    for _ in range(6):
        page = code.encode(
            rng.integers(0, 2, code.dataword_bits, dtype=np.uint8), page
        )
    return page


@pytest.fixture(scope="module", params=available_backends())
def code(request):
    return _make_code(request.param)


def test_bench_viterbi_encode(benchmark, perf_recorder, code) -> None:
    warm_page = _warm_page(code)
    rng = np.random.default_rng(1)
    datawords = [
        rng.integers(0, 2, code.dataword_bits, dtype=np.uint8)
        for _ in range(8)
    ]
    counter = {"i": 0}

    def encode_once():
        data = datawords[counter["i"] % len(datawords)]
        counter["i"] += 1
        return code.encode(data, warm_page)

    result = benchmark(encode_once)
    assert result.shape == (code.page_bits,)
    mean = benchmark.stats.stats.mean
    backend = code.viterbi.backend.name
    perf_recorder.record(
        f"viterbi-encode-4KB[{backend}]",
        page_bits=code.page_bits,
        backend=backend,
        **_machine(),
        mean_seconds=mean,
        writes_per_sec=1 / mean,
        cells_per_sec=code.varray.num_cells / mean,
    )


def _reference_search_batch(viterbi, reps, levels):
    """The pre-optimization kernel (radix-2 float64 ACS), kept as the yardstick."""
    trellis = viterbi.trellis
    lanes, steps = reps.shape
    step_costs = viterbi.step_cost_table(levels)
    lane_index = np.arange(lanes)
    lane_grid = lane_index[:, None, None]
    path = np.zeros((lanes, trellis.num_states))
    backptr = np.empty((lanes, steps, trellis.num_states), dtype=np.uint8)
    for t in range(steps):
        gather = viterbi._xor_gather[reps[:, t]]
        branch = step_costs[:, t][lane_grid, gather]
        incoming = path[:, trellis.prev_state] + branch
        lower = incoming[:, :, 1] < incoming[:, :, 0]
        path = np.where(lower, incoming[:, :, 1], incoming[:, :, 0])
        backptr[:, t] = lower
    end_state = np.argmin(path, axis=1)
    total_costs = path[lane_index, end_state]
    codeword_values = np.empty((lanes, steps), dtype=np.int64)
    state = end_state.astype(np.int64)
    for t in range(steps - 1, -1, -1):
        choice = backptr[lane_index, t, state]
        source = trellis.prev_state[state, choice].astype(np.int64)
        u = trellis.prev_input[state, choice]
        codeword_values[:, t] = trellis.output_values[source, u] ^ reps[:, t]
        state = source
    return codeword_values, total_costs


def test_bench_viterbi_kernel_speedup(perf_recorder, code) -> None:
    """Every backend must hold >= 2x over the historical kernel.

    Ratio-based (both kernels timed on this machine) so the bar is
    meaningful regardless of CI hardware; bit-identity of the outputs is
    asserted on the same inputs.
    """
    viterbi = code.viterbi
    rng = np.random.default_rng(7)
    steps = code.steps
    reps = rng.integers(0, viterbi.num_values, (1, steps))
    levels = rng.integers(
        0, viterbi.codebook.num_levels - 1, (1, steps, viterbi.cells_per_step)
    )

    def best_of(fn, rounds: int = 3) -> float:
        times = []
        for _ in range(rounds):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    new_result = viterbi.search_batch(reps, levels)  # warm-up + output
    ref_values, ref_costs = _reference_search_batch(viterbi, reps, levels)
    assert np.array_equal(new_result.codeword_values, ref_values)
    assert np.array_equal(new_result.total_costs, ref_costs)
    new_seconds = best_of(lambda: viterbi.search_batch(reps, levels))
    ref_seconds = best_of(lambda: _reference_search_batch(viterbi, reps, levels))
    speedup = ref_seconds / new_seconds
    backend = viterbi.backend.name
    perf_recorder.record(
        f"viterbi-kernel-speedup-4KB[{backend}]",
        steps=steps,
        num_states=viterbi.trellis.num_states,
        backend=backend,
        **_machine(),
        reference_seconds=ref_seconds,
        kernel_seconds=new_seconds,
        speedup=speedup,
    )
    assert speedup >= 2.0, (
        f"{backend} kernel only {speedup:.2f}x the historical kernel "
        f"(required 2x)"
    )


def test_bench_syndrome_decode(benchmark, perf_recorder, code) -> None:
    # A page read is one call of the backend's decode, as a write's program is.
    warm_page = _warm_page(code)
    result = benchmark(lambda: code.decode(warm_page))
    assert result.shape == (code.dataword_bits,)
    mean = benchmark.stats.stats.mean
    perf_recorder.record(
        f"syndrome-decode-4KB[{code.viterbi.backend.name}]",
        page_bits=code.page_bits,
        **_machine(),
        mean_seconds=mean,
        reads_per_sec=1 / mean,
        cells_per_sec=code.varray.num_cells / mean,
    )
