"""Section VI's mitigation quantified: channel parallelism vs coding cost.

The paper: a rate-r code touches 1/r times more flash per host access, but
"the overhead of these extra accesses could be mitigated by exploiting
parallelism within and across Flash chips".  This bench measures device
time per host write for the headline MFC as channels scale.
"""

from __future__ import annotations

from repro.flash import FlashGeometry
from repro.ssd import StripedDevice
from repro.workload import UniformWorkload, payload_for

GEOM = FlashGeometry(blocks=4, pages_per_block=4, page_bits=384,
                     erase_limit=5000)


def _time_per_write(channels: int, scheme: str) -> float:
    kwargs = {"constraint_length": 4} if scheme.startswith("mfc") else {}
    device = StripedDevice(channels=channels, geometry=GEOM, scheme=scheme,
                           utilization=0.5, **kwargs)
    workload = UniformWorkload(device.logical_pages, seed=5)
    for _ in range(160 * channels):
        op = next(workload)
        device.write(op.lpn, payload_for(op, device.logical_page_bits))
    return device.parallel_time_per_write_us()


def test_bench_parallelism(benchmark) -> None:
    channel_counts = (1, 2, 4)

    def sweep():
        return {
            scheme: {n: _time_per_write(n, scheme) for n in channel_counts}
            for scheme in ("uncoded", "mfc-1/2-1bpc")
        }

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print(f"{'scheme':<14}" + "".join(f"{f'{n}ch us/wr':>12}"
                                      for n in channel_counts))
    for scheme, times in results.items():
        print(f"{scheme:<14}" + "".join(f"{times[n]:>12.1f}"
                                        for n in channel_counts))

    for scheme, times in results.items():
        # Near-linear mitigation with channel count.
        assert times[4] < times[1] / 2.5, scheme
        assert times[2] < times[1], scheme

    # With enough channels, the coded device's per-write time drops below
    # the single-channel uncoded device's — coding overhead fully hidden.
    assert results["mfc-1/2-1bpc"][4] < results["uncoded"][1]
