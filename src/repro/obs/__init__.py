"""``repro.obs`` — always-available, near-zero-cost observability.

Its layers (see ``docs/OBSERVABILITY.md`` for the full catalog):

* :mod:`repro.obs.metrics` — a deterministic registry of counters,
  gauges, and fixed-bucket histograms with labeled series and JSON
  snapshot sinks;
* :mod:`repro.obs.observer` — :class:`RunObserver`, the probe driver
  that samples detector state on virtual time into ``timeline.jsonl``
  and collects spans;
* :mod:`repro.obs.perfetto` — Chrome trace-event / Perfetto JSON export
  (``repro profile`` writes a file loadable in ``ui.perfetto.dev``),
  including race flow arrows linking the two accesses of each report;
* :mod:`repro.obs.provenance` — the per-thread flight recorder and the
  happens-before witness extractor behind race provenance;
* :mod:`repro.obs.reports` — the versioned structured race-report
  artifact (``repro/race-report/v1``) with deterministic merging,
  validation, and table/Markdown rendering;
* :mod:`repro.obs.quality` — the detection-quality coverage artifact
  (``repro/coverage-report/v1``): effective sampling rate, sampling-period
  attribution of races, and the extrapolated true-race estimate;
* :mod:`repro.obs.tracing` and :mod:`repro.obs.prom` — the telemetry
  service's cross-process span trace and its Prometheus exposition.

Every run's documents come from one builder each: :func:`build_report`
and :func:`build_coverage`, folded by :func:`merge_reports` and
:func:`merge_coverage`, with sampling periods from one walk over the
``(vt, entering)`` marks (:func:`repro.obs.provenance.mark_periods`).

Disabled-path contract: every hook site in the detectors, scheduler, and
runtime guards on ``observer is None`` with a single branch, and the
differential tests pin that an attached observer never changes races,
counters, or metadata.  Flight recording is opt-in on top of that
(``RunObserver(recorder=FlightRecorder())``) and leaves the disabled
path untouched.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry, merge_metric_dicts
from .observer import RunObserver
from .perfetto import (
    chrome_trace,
    matrix_trace_events,
    race_flow_events,
    validate_chrome_trace,
    write_chrome_trace,
)
from .prom import render_prometheus
from .tracing import SpanRecorder, assemble_service_trace, chunk_flow_id
from .provenance import FlightRecorder, SyncIndex, SyncIndexBuilder, extract_witness
from .quality import (
    COVERAGE_SCHEMA,
    build_coverage,
    merge_coverage,
    render_coverage,
    validate_coverage,
    write_coverage,
)
from .reports import (
    REPORT_SCHEMA,
    build_report,
    merge_reports,
    render_report_markdown,
    render_report_table,
    validate_report,
    write_report,
)

__all__ = [
    "COVERAGE_SCHEMA",
    "Counter",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REPORT_SCHEMA",
    "RunObserver",
    "SpanRecorder",
    "SyncIndex",
    "SyncIndexBuilder",
    "assemble_service_trace",
    "build_coverage",
    "build_report",
    "chunk_flow_id",
    "render_prometheus",
    "chrome_trace",
    "extract_witness",
    "matrix_trace_events",
    "merge_coverage",
    "merge_metric_dicts",
    "merge_reports",
    "race_flow_events",
    "render_coverage",
    "render_report_markdown",
    "render_report_table",
    "validate_chrome_trace",
    "validate_coverage",
    "validate_report",
    "write_chrome_trace",
    "write_coverage",
    "write_report",
]
