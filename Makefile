# Convenience targets for the Methuselah Flash reproduction.

.PHONY: install test ci bench bench-smoke bench-e2e-quick bench-full kernel-equivalence kernel-sanitize ftl-oracle experiments experiments-full examples clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

# Every gate of .github/workflows/ci.yml that needs no extra install: the
# tier-1 suite, lint, then the e2e smoke, the FTL oracle, the kernel
# equivalence and the examples in CI's order.  Not here: kernel-sanitize
# (needs libasan) and bench-smoke (needs pytest-benchmark).  ruff is
# optional locally; CI always installs it.
ci:
	PYTHONPATH=src python -m pytest -x -q
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples benchmarks; \
	else \
		echo "ruff not installed; skipping lint (CI runs it)"; \
	fi
	$(MAKE) bench-e2e-quick
	$(MAKE) ftl-oracle
	$(MAKE) kernel-equivalence
	$(MAKE) examples

bench:
	pytest benchmarks/ --benchmark-only

# Fast coding-path throughput check (batched vs scalar engine, Viterbi
# kernel); writes BENCH_coding.json at the repo root.  CI runs this and
# uploads the JSON.
# benchmarks/test_bench_server.py is not in the gate: its three ratio bars
# do not hold on a 2-CPU box since the device write got short, so it runs
# under `make bench` only until a benchmark PR re-bars or ports it.
bench-smoke:
	PYTHONPATH=src python -m pytest benchmarks/test_bench_batch.py benchmarks/test_bench_viterbi.py -q

# Every benchmarks/e2e workload once with 3 s windows (~30 s): exits non-zero
# when a workload's oracle does not say "correct", so a renamed tracer
# boundary or stats field fails here and not in the next benchmark run.
bench-e2e-quick:
	python -m benchmarks.e2e run --quick

# What pins a kernel backend: the search against the reference kernel (the
# native one in both its bodies: the plain one, and at K=7 the AVX2 one where
# the CPU has AVX2, which test_viterbi_kernel.py also asserts it takes), the
# page program, the level count and the g1 division against their numpy
# twins, the WOM encode and decode against theirs, a write's payload bits
# against numpy's PCG64 stream, and a small-page Table I lifetime run against
# its recorded counts.  CI runs the two targets below, so this is the only
# list of them.
KERNEL_TESTS = tests/coding/test_viterbi_kernel.py tests/coding/test_page_kernel.py tests/coding/test_wom_kernel.py tests/coding/test_payload_kernel.py tests/experiments/test_small_page_golden.py

# Bit-identity of both kernel backends: once forced to numpy, once forced to
# native (which fails, not skips, when the C kernel does not build here).
kernel-equivalence:
	REPRO_VITERBI_BACKEND=numpy PYTHONPATH=src python -m pytest $(KERNEL_TESTS) -q
	REPRO_VITERBI_BACKEND=native PYTHONPATH=src python -m pytest $(KERNEL_TESTS) -q

# The native kernel's tests once more under AddressSanitizer + UBSan: it is
# handed raw pointers, so its index arithmetic is a trust boundary.  $CC is
# part of the artefact key, so the sanitized library never stands in for the
# plain one.  -s because a sanitizer report goes to fd 2 and the process then
# dies with whatever pytest had captured.  Without the sanitizer runtime this
# says so and passes; CI checks for the runtime first, so there it fails.
kernel-sanitize:
	@asan=$$(cc -print-file-name=libasan.so); \
	if [ ! -f "$$asan" ]; then \
		echo "kernel-sanitize skipped: cc has no libasan.so here (CI runs it)"; \
	else \
		CC=$(CURDIR)/tests/coding/cc-sanitize.sh LD_PRELOAD=$$asan \
		ASAN_OPTIONS=detect_leaks=0 REPRO_VITERBI_BACKEND=native PYTHONPATH=src \
		python -m pytest $(KERNEL_TESTS) -q -s; \
	fi

# The FTL's standing oracle (a naive reference FTL run in lockstep with the
# SSD under program faults, scheduled kills and scrubs, which also checks
# when the device may die; batched == sequential) under three fixed
# hypothesis seeds, so it explores more than tier-1's one draw; the chip's
# program legality check against its per-cell reference, on which the
# oracle's chip-image equality rests; then,
# once (it draws from a fixed seed, not hypothesis), the crash-replay check
# that host records alone rebuild the FTL and chip.
ftl-oracle:
	for seed in 1 2017 65537; do \
		PYTHONPATH=src python -m pytest tests/ftl/test_model_based.py tests/ftl/test_ftl_batch.py tests/flash/test_wordline.py -q --hypothesis-seed=$$seed || exit 1; \
	done
	PYTHONPATH=src python -m pytest tests/durability/test_store.py::TestReplayRebuildsInternalState -q

# Paper-fidelity benchmark run (4 KB pages, several minutes).
bench-full:
	REPRO_PAGE_BYTES=4096 REPRO_CYCLES=3 pytest benchmarks/ --benchmark-only

experiments:
	python -m repro.experiments all

experiments-full:
	python -m repro.experiments all --page-bytes 4096 --cycles 3

# Runs every example script; the first one that fails fails the target.
examples:
	for script in examples/*.py; do echo "== $$script"; PYTHONPATH=src python $$script || exit 1; done

# The native Viterbi kernel is built into src/repro/coding/__pycache__, so
# removing every __pycache__ removes it too (it is rebuilt on next use).
clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
