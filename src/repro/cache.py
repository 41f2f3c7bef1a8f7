"""Content-addressed on-disk cache for simulation results.

Lifetime simulations are deterministic functions of (scheme parameters,
simulation knobs, code version), so their results can be memoized across
processes and sessions.  Keys are SHA-256 hashes over a canonical JSON
payload that includes a fingerprint of every Python source file in the
installed ``repro`` package — editing any simulation code silently
invalidates all previously cached results, which makes stale hits
impossible without any mtime bookkeeping.

The store lives under the platform user-cache directory by default
(``~/.cache/methuselah-repro`` on Linux) and never inside the repository
tree; ``REPRO_CACHE_DIR`` overrides the location.  Values are pickled
:class:`~repro.core.lifetime.LifetimeResult` objects (or anything else
picklable); writes are atomic (``os.replace``) so a killed run never
leaves a truncated entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Any

from repro.obs import registry as _metrics

__all__ = [
    "CacheStats",
    "ResultCache",
    "cache_key",
    "code_fingerprint",
    "default_cache_dir",
    "fingerprinted_key",
    "get_default_cache",
]

#: Subdirectory name under the platform cache root.
_CACHE_NAME = "methuselah-repro"

_HITS = _metrics.counter("cache.hits")
_MISSES = _metrics.counter("cache.misses")
_STORES = _metrics.counter("cache.stores")


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` and ``.c`` file of the installed ``repro``
    package (the Viterbi kernel's C source computes results too).

    Folding this into every cache key makes source edits invalidate the
    whole cache — conservative (a docs-only change also invalidates) but
    guaranteed never to serve a result computed by different code.
    """
    import repro

    package_root = Path(repro.__file__).resolve().parent
    digest = hashlib.sha256()
    sources = (*package_root.rglob("*.py"), *package_root.rglob("*.c"))
    for path in sorted(sources):
        digest.update(str(path.relative_to(package_root)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def default_cache_dir() -> Path:
    """Resolve the cache directory.

    ``REPRO_CACHE_DIR`` wins; otherwise the platform user-cache dir
    (``XDG_CACHE_HOME``/``~/.cache`` on Linux, ``~/Library/Caches`` on
    macOS, ``LOCALAPPDATA`` on Windows).  Never inside the repo tree.
    """
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override).expanduser()
    if sys.platform == "darwin":
        base = Path.home() / "Library" / "Caches"
    elif os.name == "nt":
        base = Path(
            os.environ.get("LOCALAPPDATA", str(Path.home() / "AppData" / "Local"))
        )
    else:
        base = Path(os.environ.get("XDG_CACHE_HOME", str(Path.home() / ".cache")))
    return base / _CACHE_NAME


def cache_key(payload: dict[str, Any]) -> str:
    """Stable content address of a JSON-serializable payload."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def fingerprinted_key(
    payload: dict[str, Any], fingerprint: str | None = None
) -> str:
    """:func:`cache_key` with :func:`code_fingerprint` folded in once.

    Callers hashing many payloads in a loop can pass ``fingerprint``
    explicitly (hoisting the lookup); either way the payload dict is not
    mutated and ``"code"`` appears in the hashed payload exactly once.
    """
    if "code" in payload:
        raise ValueError(
            "payload already carries a 'code' entry; the fingerprint "
            "must be folded in exactly once"
        )
    if fingerprint is None:
        fingerprint = code_fingerprint()
    return cache_key({**payload, "code": fingerprint})


@dataclass
class CacheStats:
    """Hit/miss/store counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.stores)

    def since(self, earlier: "CacheStats") -> "CacheStats":
        """The delta accumulated after ``earlier`` was snapshotted."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            stores=self.stores - earlier.stores,
        )


@dataclass
class ResultCache:
    """Pickle store addressed by :func:`cache_key` digests."""

    root: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def get(self, key: str) -> Any | None:
        """The cached value, or None on a miss (or a corrupt entry)."""
        path = self._path(key)
        try:
            payload = path.read_bytes()
            value = pickle.loads(payload)
        except (OSError, pickle.PickleError, EOFError, AttributeError):
            self.stats.misses += 1
            _MISSES.inc()
            return None
        self.stats.hits += 1
        _HITS.inc()
        return value

    def put(self, key: str, value: Any) -> None:
        """Atomically store a value (a torn write never corrupts the entry)."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp_name = tempfile.mkstemp(
            dir=path.parent, suffix=".tmp"
        )
        try:
            with os.fdopen(handle, "wb") as stream:
                pickle.dump(value, stream, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(temp_name, path)
        except BaseException:
            try:
                os.unlink(temp_name)
            except OSError:
                pass
            raise
        self.stats.stores += 1
        _STORES.inc()

    def entry_count(self) -> int:
        """Number of stored entries on disk."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.rglob("*.pkl"))

    def clear(self) -> None:
        """Delete every entry (the directory itself is recreated on demand)."""
        if self.root.is_dir():
            shutil.rmtree(self.root, ignore_errors=True)


_instances: dict[str, ResultCache] = {}


def get_default_cache() -> ResultCache:
    """The process-wide cache for the current cache directory.

    Memoized per resolved directory, so pointing ``REPRO_CACHE_DIR``
    somewhere new (tests do) yields a fresh instance with fresh stats.
    """
    root = default_cache_dir()
    key = str(root)
    cache = _instances.get(key)
    if cache is None:
        cache = ResultCache(root=root)
        _instances[key] = cache
    return cache
