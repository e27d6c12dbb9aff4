"""Observability: tracing, metrics, live telemetry, and trace export.

The subsystem behind the paper's quantitative motivation (§2.4): a
span-based tracer for transaction lifecycles
(:mod:`repro.obs.trace`), a metrics registry with percentile
histograms (:mod:`repro.obs.metrics`), and JSONL exporters plus a
timeline renderer (:mod:`repro.obs.export`).  The no-op
:data:`NULL_TRACER` is the default on every instrumented path.

The live layer serves a *running* service rather than a finished run:
:mod:`repro.obs.live` streams completed spans through a bounded ring
buffer (:class:`SpanRing` + :class:`LiveTracer`) with slow-transaction
capture, :mod:`repro.obs.prom` renders the registry in Prometheus text
format for the server's ``/metrics`` endpoint, and
:mod:`repro.obs.top` is the ``repro top`` dashboard over the ``stats``
protocol command.
"""

from .export import (
    filter_spans,
    load_jsonl,
    render_timeline,
    timeline_stats,
    transactions_of,
    write_jsonl,
)
from .live import LiveTracer, RecordingTracer, RingSubscriber, SpanRing
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .prom import render_prometheus
from .top import render_top
from .trace import NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LiveTracer",
    "MetricsRegistry",
    "NULL_TRACER",
    "RecordingTracer",
    "RingSubscriber",
    "Span",
    "SpanRing",
    "Tracer",
    "filter_spans",
    "load_jsonl",
    "render_prometheus",
    "render_timeline",
    "render_top",
    "timeline_stats",
    "transactions_of",
    "write_jsonl",
]
