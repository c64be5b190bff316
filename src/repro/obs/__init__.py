"""Observability for the serving stack: tracing and bench regression.

Two deterministic building blocks, both keyed to the *simulated* clock so
observing a run never perturbs (or varies with) wall time:

* :mod:`repro.obs.tracer` — :class:`Tracer` records structured span /
  instant / counter events, one per scheduling decision, emitted by the
  serving planner; ``tracer=None`` keeps the hot path at ~zero cost.
  Exports land in Chrome-trace/Perfetto JSON or JSONL
  (:mod:`repro.obs.export`) and reduce to queue-depth / batch-occupancy /
  per-tenant breakdowns (:mod:`repro.obs.summary`).
* :mod:`repro.obs.bench` — the shared benchmark-artifact schema and the
  ``repro bench compare`` regression comparator CI runs across PRs.

>>> from repro.obs import Tracer, chrome_trace
>>> tracer = Tracer()
>>> tracer.instant("job.arrival", 0, job_id="t0-j0")
>>> len(chrome_trace(tracer)["traceEvents"])
1
"""

from __future__ import annotations

from repro.obs.bench import (
    SCHEMA_KEYS,
    SCHEMA_VERSION,
    FailOn,
    MetricDelta,
    bench_artifact,
    compare_metrics,
    flatten_metrics,
    format_compare,
    infer_direction,
    load_artifact,
    normalize_artifact,
    parse_fail_on,
)
from repro.obs.export import (
    chrome_trace,
    events_from_dicts,
    load_trace_events,
    write_chrome_trace,
    write_jsonl_trace,
    write_trace,
)
from repro.obs.summary import format_trace_summary, summarize_trace
from repro.obs.tracer import TraceEvent, Tracer

__all__ = [
    "FailOn",
    "MetricDelta",
    "SCHEMA_KEYS",
    "SCHEMA_VERSION",
    "TraceEvent",
    "Tracer",
    "bench_artifact",
    "chrome_trace",
    "compare_metrics",
    "events_from_dicts",
    "flatten_metrics",
    "format_compare",
    "format_trace_summary",
    "infer_direction",
    "load_artifact",
    "load_trace_events",
    "normalize_artifact",
    "parse_fail_on",
    "summarize_trace",
    "write_chrome_trace",
    "write_jsonl_trace",
    "write_trace",
]
