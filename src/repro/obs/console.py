"""Live console dashboard: poll ``/metrics`` and render deltas.

``python -m repro.obs watch http://127.0.0.1:7641`` polls a running
sidecar (:mod:`repro.obs.http`) and renders a refreshing terminal frame:
IOPS and interval latency quantiles (p50/p95/p99 from histogram-bucket
deltas between polls), queue depth, per-tenant shed rates and GC/wear
counters.  Everything derives from two consecutive
Prometheus text scrapes — the dashboard holds no state beyond the previous
frame, so it can attach to and detach from a long-running server freely.

The parser handles exactly the subset the exporter emits (see
:func:`parse_prometheus`): ``# TYPE`` lines, scalar series with optional
label sets, and ``_bucket``/``_sum``/``_count`` histogram series.
"""

from __future__ import annotations

import math
import re
import time
import urllib.request
from dataclasses import dataclass, field

from repro.errors import ConfigurationError

__all__ = ["Dashboard", "Scrape", "parse_prometheus", "watch"]

_SERIES_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>[^"]*)"')


def _parse_value(text: str) -> float:
    if text == "+Inf":
        return math.inf
    if text == "-Inf":
        return -math.inf
    return float(text)


@dataclass
class Scrape:
    """One parsed ``/metrics`` payload.

    ``scalars`` maps ``(name, labels)`` — labels as a sorted tuple of
    ``(key, value)`` pairs — to the sample value.  ``histograms`` maps the
    base metric name (no ``_bucket`` suffix) and non-``le`` labels to a
    ``{upper_bound: cumulative_count}`` dict.
    """

    t: float = 0.0
    scalars: dict[tuple[str, tuple], float] = field(default_factory=dict)
    histograms: dict[tuple[str, tuple], dict[float, float]] = field(
        default_factory=dict
    )

    def value(self, name: str, default: float = 0.0, **labels) -> float:
        return self.scalars.get(
            (name, tuple(sorted(labels.items()))), default
        )

    def labelled(self, name: str) -> dict[tuple, float]:
        """All series of one metric, keyed by their label tuples."""
        return {
            labels: value
            for (metric, labels), value in self.scalars.items()
            if metric == name
        }

    def buckets(self, name: str, **labels) -> dict[float, float]:
        return self.histograms.get(
            (name, tuple(sorted(labels.items()))), {}
        )


def parse_prometheus(text: str) -> Scrape:
    """Parse the exporter's Prometheus text format into a :class:`Scrape`."""
    scrape = Scrape(t=time.monotonic())
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _SERIES_RE.match(line)
        if match is None:
            raise ConfigurationError(f"unparseable metrics line: {line!r}")
        name = match.group("name")
        labels = {
            m.group("key"): m.group("value")
            for m in _LABEL_RE.finditer(match.group("labels") or "")
        }
        value = _parse_value(match.group("value"))
        if name.endswith("_bucket") and "le" in labels:
            upper = _parse_value(labels.pop("le"))
            key = (name[: -len("_bucket")], tuple(sorted(labels.items())))
            scrape.histograms.setdefault(key, {})[upper] = value
        else:
            scrape.scalars[(name, tuple(sorted(labels.items())))] = value
    return scrape


def quantile_from_buckets(
    buckets: dict[float, float], q: float
) -> float:
    """Quantile estimate from cumulative ``{upper: count}`` buckets.

    Returns the upper bound of the bucket containing the q-rank — the same
    resolution Prometheus' ``histogram_quantile`` has, without the linear
    interpolation (our bucket grid is log-spaced, so interpolating would
    suggest precision the data lacks).  Returns 0.0 for empty buckets.
    """
    if not buckets:
        return 0.0
    total = max(buckets.values())
    if total <= 0:
        return 0.0
    rank = q * total
    for upper in sorted(buckets):
        if buckets[upper] >= rank:
            return upper
    return max(buckets)


def _delta_buckets(
    now: dict[float, float], before: dict[float, float]
) -> dict[float, float]:
    return {
        upper: count - before.get(upper, 0.0)
        for upper, count in now.items()
    }


def _fmt_seconds(seconds: float) -> str:
    if seconds == 0:
        return "    -"
    if seconds == math.inf:
        return " +Inf"
    if seconds >= 1:
        return f"{seconds:4.3g}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:4.3g}ms"
    return f"{seconds * 1e6:4.3g}us"


def _fmt_rate(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.2f}M"
    if value >= 1e3:
        return f"{value / 1e3:.2f}k"
    return f"{value:.1f}"


class Dashboard:
    """Renders one frame per scrape, diffing against the previous scrape."""

    def __init__(self, url: str) -> None:
        self.url = url.rstrip("/")
        self._previous: Scrape | None = None
        self.frames_rendered = 0

    # -- data ---------------------------------------------------------------

    def fetch(self, timeout: float = 5.0) -> Scrape:
        with urllib.request.urlopen(
            f"{self.url}/metrics", timeout=timeout
        ) as response:
            return parse_prometheus(response.read().decode("utf-8"))

    # -- rendering ----------------------------------------------------------

    def render(self, scrape: Scrape) -> str:
        before = self._previous
        self._previous = scrape
        elapsed = (scrape.t - before.t) if before else 0.0

        def rate(name: str, **labels) -> float:
            if before is None or elapsed <= 0:
                return 0.0
            delta = scrape.value(name, **labels) - before.value(
                name, **labels
            )
            return max(0.0, delta) / elapsed

        lines = [
            f"repro obs watch — {self.url}  "
            f"(frame {self.frames_rendered + 1}, "
            f"interval {elapsed:.1f}s)" if before else
            f"repro obs watch — {self.url}  (first frame: rates warm up "
            "on the next poll)",
            "",
        ]

        # Throughput and interval latency quantiles.
        iops = rate("repro_server_requests")
        lines.append(
            f"  IOPS        {_fmt_rate(iops):>8}    "
            f"errors/s {_fmt_rate(rate('repro_server_errors')):>8}    "
            f"rejected/s {_fmt_rate(rate('repro_server_rejected')):>8}"
        )
        now_buckets = scrape.buckets("repro_server_request_seconds")
        window = (
            _delta_buckets(
                now_buckets, before.buckets("repro_server_request_seconds")
            )
            if before
            else now_buckets
        )
        lines.append(
            "  latency     "
            f"p50 {_fmt_seconds(quantile_from_buckets(window, 0.50)):>7}   "
            f"p95 {_fmt_seconds(quantile_from_buckets(window, 0.95)):>7}   "
            f"p99 {_fmt_seconds(quantile_from_buckets(window, 0.99)):>7}"
        )
        lines.append(
            f"  queue depth {scrape.value('repro_server_queue_depth'):>8.0f}"
            f"    batches/s "
            f"{_fmt_rate(rate('repro_server_batches')):>8}"
        )

        # Per-tenant shed rates from the labelled families.
        shed = scrape.labelled("repro_server_tenant_busy_rejected")
        served = scrape.labelled("repro_server_tenant_requests")
        if served or shed:
            lines.append("")
            lines.append("  tenant      req/s     shed/s")
            tenants = sorted(
                {dict(labels).get("tenant") for labels in (*served, *shed)}
                - {None},
                key=int,
            )
            for tenant in tenants:
                lines.append(
                    f"    {tenant:>6}  "
                    f"{_fmt_rate(rate('repro_server_tenant_requests', tenant=tenant)):>8} "
                    f"{_fmt_rate(rate('repro_server_tenant_busy_rejected', tenant=tenant)):>9}"
                )

        # Device wear / GC.
        lines.append("")
        lines.append(
            f"  gc/s {_fmt_rate(rate('repro_ftl_gc_runs')):>8}    "
            f"erases/s {_fmt_rate(rate('repro_flash_block_erases')):>8}    "
            f"events dropped "
            f"{scrape.value('repro_obs_events_dropped'):>8.0f}"
        )

        self.frames_rendered += 1
        return "\n".join(lines) + "\n"


def watch(
    url: str,
    interval: float = 2.0,
    once: bool = False,
    frames: int | None = None,
    out=None,
) -> int:
    """Poll ``url`` and render frames until interrupted (or ``frames``).

    ``once`` renders a single frame without clearing the screen (useful in
    CI); otherwise each frame repaints via ANSI clear.  Returns the number
    of frames rendered.
    """
    import sys

    stream = out if out is not None else sys.stdout
    dashboard = Dashboard(url)
    limit = 1 if once else frames
    try:
        while True:
            frame = dashboard.render(dashboard.fetch())
            if not once:
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame)
            stream.flush()
            if limit is not None and dashboard.frames_rendered >= limit:
                break
            time.sleep(interval)
    except KeyboardInterrupt:
        pass
    return dashboard.frames_rendered
