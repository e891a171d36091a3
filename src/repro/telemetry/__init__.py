"""repro.telemetry — structured tracing and metrics for instrumented runs.

The paper's contribution is *observability of energy behaviour*:
per-function, per-device measurement through SPH-EXA's hook points
(§III-B) plus NVML clock instrumentation (§III-D). This package turns
those point measurements into analyzable runs, Score-P-style:

* :mod:`~repro.telemetry.events` — typed trace events (spans, instants,
  counter samples) with per-rank/per-track identity and monotonic
  simulated timestamps, plus the shared ``{"schema": 1}`` file header;
* :mod:`~repro.telemetry.metrics` — labeled counters/gauges/histograms
  with a ``snapshot()`` API;
* :mod:`~repro.telemetry.collector` — the bounded ring-buffer
  :class:`TraceCollector`, a drop-in ``FunctionHook`` plus explicit
  emit APIs for the frequency controller, PMT sampler and Slurm
  scheduler;
* :mod:`~repro.telemetry.chrome_trace` — lossless export to Chrome
  ``trace_event`` JSON (Perfetto / ``chrome://tracing``) and compact
  JSONL for programmatic diffing;
* :mod:`~repro.telemetry.summary` — roll-ups and the
  trace-vs-:class:`EnergyReport` reconciliation check;
* :mod:`~repro.telemetry.context` — W3C-traceparent-style
  :class:`TraceContext` correlating spans across process boundaries
  (service request → campaign lane → rank), deterministically
  derived so traces stay bit-stable;
* :mod:`~repro.telemetry.profile` — per-rank trace shards, the
  merged clock-aligned trace, and the analysis layer (critical path,
  per-kernel × per-rank attribution, flamegraph export, run diffs).

Telemetry is strictly opt-in: without a collector no extra hooks are
registered and a run's reported numbers are bit-for-bit unchanged.

Quickstart::

    from repro.systems import Cluster, mini_hpc
    from repro.sph import run_instrumented
    from repro.telemetry import TraceCollector, write_chrome_trace

    cluster = Cluster(mini_hpc(), n_ranks=1)
    trace = TraceCollector.for_cluster(cluster)
    result = run_instrumented(
        cluster, "SedovBlast", 1e6, n_steps=4, telemetry=trace
    )
    write_chrome_trace("run.json", trace.events)  # open in Perfetto
"""

from .chrome_trace import (
    atomic_write_lines,
    read_trace_jsonl,
    to_chrome_trace,
    write_chrome_trace,
    write_trace_jsonl,
)
from .collector import DEFAULT_MAX_EVENTS, TraceCollector
from .context import TraceContext, mint_context
from .events import (
    SCHEMA_VERSION,
    TRACK_CLOCKS,
    TRACK_COUNTERS,
    TRACK_FAULTS,
    TRACK_FUNCTIONS,
    TRACK_JOB,
    TRACKS,
    CounterEvent,
    InstantEvent,
    SpanEvent,
    TraceEvent,
    check_schema_header,
    from_record,
    schema_header,
    to_record,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    MERGED_TRACE_NAME,
    SHARD_KIND,
    StepCritical,
    attribution_table,
    collapsed_stacks,
    collect_trace,
    critical_path,
    diff_traces,
    gating_consistent_with_waits,
    merge_shards,
    merged_trace_path,
    read_trace_shard,
    render_attribution,
    write_merged_trace,
)
from .summary import (
    RECONCILE_TOL_S,
    FunctionTraceSummary,
    ReconciliationRow,
    max_drift_s,
    reconcile_with_report,
    render_summary,
    summarize_functions,
)

__all__ = [
    "SCHEMA_VERSION",
    "TRACKS",
    "TRACK_FUNCTIONS",
    "TRACK_CLOCKS",
    "TRACK_COUNTERS",
    "TRACK_JOB",
    "TRACK_FAULTS",
    "SpanEvent",
    "InstantEvent",
    "CounterEvent",
    "TraceEvent",
    "to_record",
    "from_record",
    "schema_header",
    "check_schema_header",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceCollector",
    "DEFAULT_MAX_EVENTS",
    "to_chrome_trace",
    "write_chrome_trace",
    "write_trace_jsonl",
    "read_trace_jsonl",
    "atomic_write_lines",
    "TraceContext",
    "mint_context",
    "SHARD_KIND",
    "MERGED_TRACE_NAME",
    "StepCritical",
    "read_trace_shard",
    "merge_shards",
    "merged_trace_path",
    "collect_trace",
    "write_merged_trace",
    "critical_path",
    "gating_consistent_with_waits",
    "attribution_table",
    "render_attribution",
    "collapsed_stacks",
    "diff_traces",
    "FunctionTraceSummary",
    "ReconciliationRow",
    "RECONCILE_TOL_S",
    "summarize_functions",
    "reconcile_with_report",
    "max_drift_s",
    "render_summary",
]
