"""Observability for the campaign runtime: metrics, span tracing, probes.

The paper's evaluation is, at heart, an accounting exercise — where does
campaign time go, which stage finds bugs, how many queries does each tester
push through each engine (§5.4, Tables 3–6).  This package gives the
runtime that accounting as a first-class subsystem:

* :mod:`repro.obs.metrics` — counters/gauges/histograms with **fixed
  bucket edges** (so per-worker merges are deterministic) and a snapshot
  algebra (:func:`merge_snapshots`, :func:`deterministic_view`);
* :mod:`repro.obs.trace` — ``with tracer.span("synthesize")`` spans over
  both the real (``perf_counter``) and simulated campaign clocks;
* :mod:`repro.obs.probe` — the process-wide :data:`PROBE` switch the hot
  paths guard on; **no-op by default**, scoped enable via
  :func:`observed`;
* :mod:`repro.obs.view` — :class:`~repro.obs.view.RunView`, the one
  fold over a recorded or growing event log that every view renders
  (imported on first use, so the runtime does not load it);
* :mod:`repro.obs.render` — ``repro stats`` / ``repro trace`` renderers
  that turn any recorded event log into a profile.

A second tier answers the paper's *evaluation* questions — what did the
synthesized queries exercise, and which discrepancies are the same bug:

* :mod:`repro.obs.coverage` — per-query feature vectors (clauses,
  functions, operators, pattern shapes, nesting depth) accumulated into
  per-cell coverage sets and coverage-over-time curves (§5.3 lens);
* :mod:`repro.obs.triage` — bug signatures (``engine:fault_id`` with
  injection on, normalized failure fingerprints with it off) that
  deduplicate the discrepancy stream into distinct bugs;
* :mod:`repro.obs.recorder` — the flight recorder: one self-contained,
  replayable repro bundle per newly-seen signature (``repro replay``).

A third tier makes the telemetry *live* and *portable*:

* :mod:`repro.obs.follow` — :class:`EventFollower`, an incremental
  torn-line-tolerant tailer that feeds a ``RunView``, plus the
  ``repro watch`` rolling view (the read side of the event-stream wire
  protocol);
* :mod:`repro.obs.profile` — the PROBE-gated per-operator profile of the
  compiled execution core (wall time, invocations, evaluation steps),
  rendered as the ``repro stats`` ``== profile ==`` table;
* :mod:`repro.obs.export` — portable exports: Chrome trace-event JSON
  (``repro trace --export chrome``), machine-readable stats/bugs/compare
  JSON (``--format json``), and the self-contained static HTML report
  (``repro report``).

The contract with the runtime: instrumentation never draws randomness and
never changes control flow, so campaign results are byte-identical with
observability on or off; the deterministic snapshot sections are identical
for any worker count.
"""

from repro.obs.coverage import (
    COVERAGE_SCHEMA_VERSION,
    CellCoverage,
    CoverageSchemaError,
    coverage_curve,
    merge_coverage_snapshots,
    query_feature_tags,
)
from repro.obs.metrics import (
    DEFAULT_COUNT_EDGES,
    DEFAULT_TIME_EDGES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    deterministic_view,
    merge_snapshots,
    metric_key,
    split_metric_key,
)
from repro.obs.probe import PROBE, Probe, disable, enable, observed

# export/follow (below) transitively import repro.obs.render → triage →
# runtime → engine, and the engine reads PROBE back out of this package —
# so they must load after the probe import above.
from repro.obs.export import (
    EXPORT_SCHEMA_VERSION,
    bugs_json,
    chrome_trace,
    compare_json,
    html_report,
    stats_json,
)
from repro.obs.follow import EventFollower, render_watch
from repro.obs.profile import (
    PROFILE_STEP_CEILING,
    OperatorProfile,
    profile_rows,
    render_profile,
)
from repro.obs.recorder import (
    BUNDLE_FORMAT,
    FlightRecorder,
    ReplayOutcome,
    load_bundle,
    replay_bundle,
)
from repro.obs.render import (
    render_bugs,
    render_coverage,
    render_stats,
    render_trace,
)
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer
from repro.obs.triage import (
    CellTriage,
    distinct_signatures,
    merge_triage_snapshots,
    normalize_detail,
    signature_for,
)

__all__ = [
    "BUNDLE_FORMAT",
    "COVERAGE_SCHEMA_VERSION",
    "CellCoverage",
    "CellTriage",
    "CoverageSchemaError",
    "EXPORT_SCHEMA_VERSION",
    "EventFollower",
    "OperatorProfile",
    "PROFILE_STEP_CEILING",
    "bugs_json",
    "chrome_trace",
    "compare_json",
    "html_report",
    "profile_rows",
    "render_profile",
    "render_watch",
    "stats_json",
    "FlightRecorder",
    "ReplayOutcome",
    "coverage_curve",
    "distinct_signatures",
    "load_bundle",
    "merge_coverage_snapshots",
    "merge_triage_snapshots",
    "normalize_detail",
    "query_feature_tags",
    "render_bugs",
    "render_coverage",
    "replay_bundle",
    "signature_for",
    "DEFAULT_COUNT_EDGES",
    "DEFAULT_TIME_EDGES",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullTracer",
    "PROBE",
    "Probe",
    "Tracer",
    "deterministic_view",
    "disable",
    "enable",
    "merge_snapshots",
    "metric_key",
    "observed",
    "render_stats",
    "render_trace",
    "split_metric_key",
]
