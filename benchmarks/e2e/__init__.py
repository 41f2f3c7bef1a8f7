"""The repo's end-to-end benchmark: Table I down to the journaled server.

Four workloads, one code-parameter set (``mfc-1/2-1bpc``, K=7), end-to-end
metrics from an untraced pass and a per-layer budget from a traced pass.
``README.md`` beside this file is the reference; ``run.py`` is the entry
point ``BENCHMARK.json`` names.
"""
