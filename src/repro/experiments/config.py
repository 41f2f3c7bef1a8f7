"""Shared experiment configuration.

The paper simulates a 4 KB flash page.  The defaults are a smaller page
and fewer erase cycles, so a quick run stays quick; every knob is
overridable (``all --page-bytes 4096 --cycles 5``, the paper artefact,
takes about a second on the native kernel):

* ``REPRO_PAGE_BYTES`` — page size in bytes (paper: 4096),
* ``REPRO_CYCLES`` — erase cycles averaged per scheme,
* ``REPRO_CONSTRAINT_LENGTH`` — trellis size for the MFC coset codes,
* ``REPRO_LANES`` — concurrent pages per simulation (batched engine),
* ``REPRO_METRICS`` — set to ``1`` to collect telemetry (metrics + traces)
  even without ``--metrics-out``/``--trace-out``,
* ``REPRO_VITERBI_BACKEND`` — Viterbi kernel backend for the MFC coset codes
  (``auto``/``numpy``/``native``; see :mod:`repro.coding.kernels`).

``lanes=1`` (the default) reproduces the historical scalar numbers bit for
bit; larger lane counts run ``lanes`` independently seeded pages through
the vectorized batch engine, multiplying the cycle sample size at far less
than proportional cost.

Fig. 14 shows lifetime gain depends (mildly) on page size, so numbers from
small-page runs sit slightly above the paper's 4 KB figures; EXPERIMENTS.md
records both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ConfigurationError

__all__ = ["ExperimentConfig"]


def _env_int(name: str, default: int) -> int:
    """Integer environment variable ``name``; a non-integer is a user error."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs shared by all experiments."""

    page_bytes: int = 512
    cycles: int = 3
    seed: int = 2016  # the paper's year; any fixed seed works
    constraint_length: int = 7
    lanes: int = 1  # concurrent pages; lane i is seeded seed + i
    #: Inert: spelled by ``benchmarks/e2e/inprocess.py``, which only a
    #: benchmark PR may edit; that PR deletes this field and its check.
    jobs: int = 1
    #: Inert for the same reason: the on-disk result cache is gone.
    cache: bool = False
    metrics: bool = False  # collect telemetry (registry counters + traces)
    viterbi_backend: str = "auto"  # Viterbi kernel backend (auto/numpy/native)

    def __post_init__(self) -> None:
        for knob in ("page_bytes", "cycles", "lanes"):
            if getattr(self, knob) < 1:
                raise ConfigurationError(
                    f"{knob} must be >= 1, got {getattr(self, knob)}"
                )
        if self.jobs != 1:
            raise ConfigurationError(
                f"jobs={self.jobs}: the sweep runs in one process"
            )
        if self.cache:
            raise ConfigurationError("cache=True: there is no result cache")

    @classmethod
    def from_env(cls) -> "ExperimentConfig":
        """Build a config from the REPRO_* environment variables."""
        return cls(
            page_bytes=_env_int("REPRO_PAGE_BYTES", 512),
            cycles=_env_int("REPRO_CYCLES", 3),
            seed=_env_int("REPRO_SEED", 2016),
            constraint_length=_env_int("REPRO_CONSTRAINT_LENGTH", 7),
            lanes=_env_int("REPRO_LANES", 1),
            metrics=os.environ.get("REPRO_METRICS", "0").lower()
            in ("1", "true", "yes", "on"),
            viterbi_backend=os.environ.get(
                "REPRO_VITERBI_BACKEND", "auto"
            ).lower(),
        )

    @property
    def page_bits(self) -> int:
        """Page size in bits (the codeword size of every scheme)."""
        return self.page_bytes * 8
