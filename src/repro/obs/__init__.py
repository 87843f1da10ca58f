"""Observability for the synthesis pipeline: tracing, metrics, profiles.

Three layers, all zero-dependency:

* **tracing** (:func:`trace_span`) — nested, monotonic-clock spans
  around every pipeline stage, transform pass, verify contract and
  DSE evaluation.  Off by default; enable with
  ``SynthesisOptions(trace=True)``, the :func:`tracing` scope, or
  env ``REPRO_TRACE=1``.  Export with :func:`chrome_trace` /
  :func:`write_chrome_trace` (``chrome://tracing`` / Perfetto).
* **metrics** (:func:`metrics`) — always-on counters, gauges and
  fixed-bucket histograms: cache hits/misses/evictions, per-scheduler
  invocations and latencies, fuzz seeds/violations, DSE points.
  Worker processes :meth:`~MetricsRegistry.snapshot` their registry
  and the parent :meth:`~MetricsRegistry.merge`\\ s it back.
* **reporting** (:func:`profile_table`, :func:`telemetry_summary`) —
  the ``repro profile`` per-stage table and sweep telemetry text.

Two durable layers build on these and are imported as submodules to
keep the engine's import graph acyclic: :mod:`repro.obs.ledger` (the
persistent QoR run history behind ``repro history``/``repro report``)
and :mod:`repro.obs.regression` (the median-of-N baseline verdicts).
:func:`to_prometheus` renders the registry as the ``/metrics`` payload
and :mod:`repro.obs.resource` adds opt-in per-stage heap-peak gauges.
"""

from typing import TYPE_CHECKING

from .._lazy import lazy_exports
from .coverage import (
    EXCLUDED_COUNTER_PREFIXES,
    coverage_atoms,
    coverage_fingerprint,
    pow2_bucket,
)
from .metrics import (
    DEFAULT_LATENCY_BUCKETS_MS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    histogram_deltas,
    metrics,
    reset_metrics,
)
from .resource import (
    disable_memory,
    enable_memory,
    maybe_memory,
    memory_enabled,
    memory_profiling,
    memory_span,
    reset_memory,
)
from .tracer import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    maybe_tracing,
    reset_tracing,
    trace_span,
    tracer,
    tracing,
    tracing_enabled,
)

# Exporters and the profile tables load with their first use.
if TYPE_CHECKING:  # pragma: no cover
    from .export import chrome_trace, to_prometheus, write_chrome_trace
    from .report import (
        CORE_STAGES,
        PIPELINE_STAGES,
        profile_json,
        profile_table,
        stage_totals,
        telemetry_summary,
    )

__getattr__ = lazy_exports(__name__, {
    "export": ("chrome_trace", "to_prometheus", "write_chrome_trace"),
    "report": ("CORE_STAGES", "PIPELINE_STAGES", "profile_json",
               "profile_table", "stage_totals", "telemetry_summary"),
})

__all__ = [
    "CORE_STAGES",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "EXCLUDED_COUNTER_PREFIXES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "PIPELINE_STAGES",
    "SpanRecord",
    "Tracer",
    "chrome_trace",
    "coverage_atoms",
    "coverage_fingerprint",
    "disable_memory",
    "enable_memory",
    "histogram_deltas",
    "maybe_memory",
    "maybe_tracing",
    "memory_enabled",
    "memory_profiling",
    "memory_span",
    "metrics",
    "pow2_bucket",
    "profile_json",
    "profile_table",
    "reset_memory",
    "reset_metrics",
    "reset_tracing",
    "stage_totals",
    "telemetry_summary",
    "to_prometheus",
    "trace_span",
    "tracer",
    "tracing",
    "tracing_enabled",
    "write_chrome_trace",
]
