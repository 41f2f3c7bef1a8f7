"""The correctness oracle for page reads and crash recovery.

One logical page holds the payload of its last write.  With one caller that
is a plain shadow map; with pipelined callers two writes to one page can be
in flight together and the device may apply them in either order, so the
oracle keeps, per page, every write that could still be the last one:

* a write stops being a candidate once another write to the page was
  *issued after it was acknowledged* and has itself been acknowledged;
* a read may return any candidate at its issue time, or any write issued
  while the read was in flight;
* a write that failed may or may not have been applied, so it stays a
  candidate and never displaces one.

Order comes from a counter bumped at every event, not from the clock, so
there are no ties.
"""

from __future__ import annotations

__all__ = ["PageOracle"]


class _Write:
    __slots__ = ("issued", "acked", "payload")

    def __init__(self, issued: int, payload: bytes) -> None:
        self.issued = issued
        self.acked: int | None = None
        self.payload = payload


class _Read:
    __slots__ = ("lpn", "candidates")

    def __init__(self, lpn: int, candidates: list[_Write]) -> None:
        self.lpn = lpn
        self.candidates = candidates


class PageOracle:
    """Tracks which payloads each logical page may legally hold."""

    def __init__(self, blank: bytes) -> None:
        self._blank = blank  # what a never-written page reads as
        self._events = 0
        self._live: dict[int, list[_Write]] = {}
        self._open_reads: dict[int, list[_Read]] = {}

    def _tick(self) -> int:
        self._events += 1
        return self._events

    def write_issued(self, lpn: int, payload: bytes) -> tuple[int, _Write]:
        write = _Write(self._tick(), payload)
        self._live.setdefault(lpn, []).append(write)
        for read in self._open_reads.get(lpn, ()):
            read.candidates.append(write)
        return lpn, write

    def write_acked(self, token: tuple[int, _Write]) -> None:
        lpn, write = token
        write.acked = self._tick()
        # Every write acknowledged before the newest acknowledged write was
        # issued can no longer be the page's last write.
        newest = max(w.issued for w in self._live[lpn] if w.acked is not None)
        self._live[lpn] = [
            w for w in self._live[lpn] if w.acked is None or w.acked > newest
        ]

    def read_issued(self, lpn: int) -> _Read:
        read = _Read(lpn, list(self._live.get(lpn, ())))
        self._open_reads.setdefault(lpn, []).append(read)
        return read

    def read_matches(self, read: _Read, payload: bytes | None) -> bool:
        """Close ``read``; was ``payload`` one the page could have held?
        ``None`` stands for a read that failed, which never matches."""
        self._open_reads[read.lpn].remove(read)
        if not read.candidates:
            return payload == self._blank
        return any(payload == write.payload for write in read.candidates)

    def final_matches(self, lpn: int, payload: bytes) -> bool:
        """With nothing in flight: is ``payload`` an allowed final value?"""
        live = self._live.get(lpn)
        if not live:
            return payload == self._blank
        return any(payload == write.payload for write in live)

    def pages(self) -> list[int]:
        """Every page that was ever written."""
        return sorted(self._live)
