"""``repro.obs`` — the unified observability layer.

One import point for the three observability primitives threaded
through the stack:

* **Tracing spans** — ``obs.span("layout.build", combo="all")``
  times a region (wall/CPU/peak-RSS), nests per thread, and, when
  tracing is enabled, appends one JSONL event per span to a thread-
  and fork-safe sink.  :mod:`repro.obs.chrome` exports the sink file
  for ``chrome://tracing`` / Perfetto.
* **Metric instruments** — counters, gauges, histograms, and
  per-window series in a process-global registry
  (``obs.counter("icache.misses").inc(...)``); snapshots land in the
  ``metrics`` section of every ``BENCH_*.json``.
* **Run artifacts** — :mod:`repro.obs.report` renders a results
  directory into one Markdown/HTML report; :mod:`repro.obs.benchdiff`
  compares fresh ``BENCH_*.json`` against committed baselines (the CI
  perf-regression gate).

Metrics are always on (they cost a few Python ops at stream/window
granularity).  Tracing is off by default; enable it with
:func:`enable` or the ``REPRO_TRACE`` environment variable (a
``.jsonl`` path).  ``REPRO_OBS_WINDOW`` sets the simulator series
window (accesses per miss-rate sample; 0 disables the series).

See ``docs/OBSERVABILITY.md`` for schemas and workflows.
"""

from __future__ import annotations

import os
import time
from typing import Dict, Optional, Union

from repro.obs.chrome import chrome_trace, export_chrome_trace, spans_from_chrome
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricRegistry,
    Series,
    SERIES_CAPACITY,
)
from repro.obs.sink import JsonlSink, iter_events, read_events
from repro.obs.span import NULL_SPAN, Span, Tracer, peak_rss_kb

#: Default per-window sample size (simulator accesses per miss-rate
#: point) used when tracing is enabled without an explicit window.
DEFAULT_WINDOW = 8192

_REGISTRY = MetricRegistry()
_TRACER = Tracer()
_WINDOW = 0


def registry() -> MetricRegistry:
    """The process-global metric registry."""
    return _REGISTRY


def tracer() -> Tracer:
    """The process-global tracer."""
    return _TRACER


def counter(name: str) -> Counter:
    """Shorthand for ``registry().counter(name)``."""
    return _REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    """Shorthand for ``registry().gauge(name)``."""
    return _REGISTRY.gauge(name)


def histogram(name: str) -> Histogram:
    """Shorthand for ``registry().histogram(name)``."""
    return _REGISTRY.histogram(name)


def series(name: str) -> Series:
    """Shorthand for ``registry().series(name)``."""
    return _REGISTRY.series(name)


def span(name: str, **attrs):
    """Open a traced span on the global tracer (no-op when disabled)."""
    return _TRACER.span(name, **attrs)


def enabled() -> bool:
    """True when span tracing is capturing (sink or in-memory)."""
    return _TRACER.active


def series_window() -> int:
    """Simulator accesses per miss-rate series point (0 = series off)."""
    return _WINDOW


def enable(
    trace_path: Optional[Union[str, "os.PathLike[str]"]] = None,
    *,
    record: bool = False,
    window: Optional[int] = None,
) -> Tracer:
    """Turn tracing on.

    ``trace_path`` opens a JSONL sink (events appended, fork-safe);
    ``record=True`` additionally keeps finished spans in memory on
    :attr:`Tracer.finished`.  ``window`` sets the simulator series
    window (defaults to :data:`DEFAULT_WINDOW` when tracing turns on
    and no window was configured).  Returns the global tracer.
    """
    global _WINDOW
    if trace_path is not None:
        if _TRACER.sink is not None:
            _TRACER.sink.close()
        _TRACER.sink = JsonlSink(trace_path)
    _TRACER.record = record or _TRACER.record
    if window is not None:
        _WINDOW = max(0, int(window))
    elif _WINDOW == 0:
        _WINDOW = DEFAULT_WINDOW
    return _TRACER


def disable() -> None:
    """Turn tracing off and close the sink (metrics stay on)."""
    global _WINDOW
    if _TRACER.sink is not None:
        _TRACER.sink.close()
        _TRACER.sink = None
    _TRACER.record = False
    _TRACER.finished.clear()
    _WINDOW = 0


def reset_metrics() -> None:
    """Clear every instrument in the global registry."""
    _REGISTRY.reset()


def flush_metrics() -> Optional[Dict]:
    """Emit a ``metrics`` snapshot event to the trace sink.

    Returns the snapshot (or None when empty / no sink attached).
    """
    snapshot = _REGISTRY.snapshot()
    if not snapshot or _TRACER.sink is None:
        return snapshot or None
    _TRACER.sink.emit(
        {
            "type": "metrics",
            "pid": os.getpid(),
            "ts": round(time.time(), 6),
            "metrics": snapshot,
        }
    )
    return snapshot


def _init_from_env() -> None:
    """Honor ``REPRO_TRACE`` / ``REPRO_OBS_WINDOW`` at import time, so
    pytest runs and forked workers trace without code changes."""
    global _WINDOW
    window = os.environ.get("REPRO_OBS_WINDOW")
    if window:
        try:
            _WINDOW = max(0, int(window))
        except ValueError:
            pass
    path = os.environ.get("REPRO_TRACE")
    if path:
        enable(path)


_init_from_env()

__all__ = [
    "Counter",
    "DEFAULT_WINDOW",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricRegistry",
    "NULL_SPAN",
    "SERIES_CAPACITY",
    "Series",
    "Span",
    "Tracer",
    "chrome_trace",
    "counter",
    "disable",
    "enable",
    "enabled",
    "export_chrome_trace",
    "flush_metrics",
    "gauge",
    "histogram",
    "iter_events",
    "peak_rss_kb",
    "read_events",
    "registry",
    "reset_metrics",
    "series",
    "series_window",
    "span",
    "spans_from_chrome",
    "tracer",
]
