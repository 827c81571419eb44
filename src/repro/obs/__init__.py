"""Engine-wide observability: metrics, phase tracing and logging.

A dependency-free layer the hot paths report into:

* :class:`MetricsRegistry` — named counters and histograms, activated
  per-block with :func:`metrics_scope` (isolated registries for tests
  and benchmarks) or process-wide with :func:`set_global_metrics`;
* nested span tracing with monotonic phase timers (``parse``,
  ``index-load``, ``lattice-build``, ``stream-scan``, ``rank``),
  rendered as a human tree (:func:`format_report`) or JSON
  (:meth:`MetricsRegistry.snapshot`);
* a no-op fast path — :func:`get_metrics` returns the
  :data:`NULL_METRICS` singleton when nothing is activated, so
  instrumentation costs near zero by default;
* :func:`configure_logging` / :func:`get_logger` for the stdlib
  ``repro.*`` logger hierarchy (no handlers installed on import);
* query-scoped distributed tracing (:mod:`repro.obs.tracing`) — one
  :class:`TraceSpan` tree per logical query, propagated across
  process-pool workers and exported as Perfetto-loadable Chrome
  trace-event JSON (:func:`to_chrome_trace`).

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and which
paper figure each counter validates.
"""

from repro.obs.export import (CHROME_TRACE_CATEGORY, EVENT_SCHEMA_VERSION,
                              JsonlSink, merge_jsonl, parse_openmetrics,
                              read_jsonl, sanitize_metric_name,
                              to_chrome_trace, to_openmetrics,
                              to_speedscope, write_chrome_trace,
                              write_speedscope)
from repro.obs.console import (SPARK_CHARS, render_frame, run_top,
                               sparkline)
from repro.obs.flight import (FLIGHT_BUNDLE_FIELDS, FLIGHT_REASONS,
                              FLIGHT_SCHEMA_VERSION, FlightRecorder)
from repro.obs.logconfig import configure_logging, get_logger
from repro.obs.metrics import (NULL_METRICS, AnyMetrics, Gauge, Histogram,
                               MetricsRegistry, NullMetrics, get_metrics,
                               metrics_scope, set_global_metrics)
from repro.obs.profile import (PROFILE_SCHEMA_VERSION, QueryProfile,
                               SlowQueryLog)
from repro.obs.report import format_report
from repro.obs.sampler import StackSampler
from repro.obs.slo import (DEFAULT_OBJECTIVES, SLO_GAUGES,
                           SLO_SCHEMA_VERSION, SLO_STATES, Objective,
                           SLOEngine, parse_objective)
from repro.obs.timeseries import (ANOMALY_EVENT_FIELDS, SERIES_FIELDS,
                                  SERIES_SCHEMA_VERSION,
                                  WATCHDOG_GAUGES, AnomalyDetector,
                                  TimeSeriesStore, counter_rates)
from repro.obs.trace import Span, aggregate_phases, render_spans
from repro.obs.tracing import (NULL_TRACER, TRACE_ATTRIBUTES, NullTracer,
                               Tracer, TraceSpan, activate_wire,
                               current_trace_wire, get_tracer,
                               recent_traces, set_global_tracer,
                               trace_scope)
from repro.obs.wideevent import (WIDE_EVENT_FIELDS, WIDE_EVENT_OUTCOMES,
                                 WIDE_EVENT_SCHEMA_VERSION, EventRing,
                                 wide_event)

__all__ = [
    "ANOMALY_EVENT_FIELDS",
    "AnomalyDetector",
    "AnyMetrics",
    "CHROME_TRACE_CATEGORY",
    "DEFAULT_OBJECTIVES",
    "EVENT_SCHEMA_VERSION",
    "EventRing",
    "FLIGHT_BUNDLE_FIELDS",
    "FLIGHT_REASONS",
    "FLIGHT_SCHEMA_VERSION",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "NullTracer",
    "NULL_TRACER",
    "Objective",
    "PROFILE_SCHEMA_VERSION",
    "QueryProfile",
    "SERIES_FIELDS",
    "SERIES_SCHEMA_VERSION",
    "SLOEngine",
    "SLO_GAUGES",
    "SLO_SCHEMA_VERSION",
    "SLO_STATES",
    "SPARK_CHARS",
    "SlowQueryLog",
    "Span",
    "StackSampler",
    "TimeSeriesStore",
    "TraceSpan",
    "Tracer",
    "TRACE_ATTRIBUTES",
    "WATCHDOG_GAUGES",
    "WIDE_EVENT_FIELDS",
    "WIDE_EVENT_OUTCOMES",
    "WIDE_EVENT_SCHEMA_VERSION",
    "activate_wire",
    "aggregate_phases",
    "configure_logging",
    "counter_rates",
    "current_trace_wire",
    "format_report",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "merge_jsonl",
    "metrics_scope",
    "parse_objective",
    "parse_openmetrics",
    "read_jsonl",
    "recent_traces",
    "render_frame",
    "render_spans",
    "run_top",
    "sanitize_metric_name",
    "set_global_metrics",
    "set_global_tracer",
    "sparkline",
    "to_chrome_trace",
    "to_openmetrics",
    "to_speedscope",
    "trace_scope",
    "wide_event",
    "write_chrome_trace",
    "write_speedscope",
]
