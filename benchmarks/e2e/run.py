"""Entry point of the benchmark (see ``BENCHMARK.json`` and ``README.md``).

Run from the root of a checkout:
``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1``.
"""

import os
import sys
import time

_START = time.perf_counter()
_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(os.path.dirname(_HERE))


def pin_environment() -> None:
    """What every measuring interpreter sets before numpy and repro load:
    one BLAS/OpenMP thread, telemetry off, kernel backend auto, and the
    checkout and its ``src/`` first on the module path."""
    for variable in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[variable] = "1"
    os.environ["REPRO_METRICS"] = "0"
    os.environ.pop("REPRO_VITERBI_BACKEND", None)
    # This file's own directory must not shadow top-level modules.
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
    sys.path[:0] = [_ROOT, os.path.join(_ROOT, "src")]


if __name__ == "__main__":
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        sys.exit(f"run.py: no src/repro under {_ROOT}; nothing to benchmark")
    pin_environment()
    from benchmarks.e2e.once import main

    sys.exit(main(sys.argv[1:], import_s=time.perf_counter() - _START))
