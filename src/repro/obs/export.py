"""Portable exports of a recorded event log: trace, JSON, HTML.

Everything ``repro stats``/``trace``/``bugs``/``compare`` can render as
text, this module serializes for machines and browsers, from the same
:class:`repro.obs.view.RunView`:

* :func:`chrome_trace` — the span samples as Chrome trace-event JSON
  (``chrome://tracing`` / Perfetto).  Spans deliberately carry no absolute
  wall-clock timestamps (the determinism contract strips them), so the
  trace is laid out on the **simulated campaign clock** in microseconds —
  one thread per grid cell, the measured ``perf_counter`` duration
  attached in ``args``.  Events are emitted sorted per thread, so ``ts``
  is monotone within each ``tid``.
* :func:`stats_json` / :func:`bugs_json` / :func:`compare_json` — the
  machine-readable twins of the text renderers, all plain
  ``json.dumps``-able dicts with a ``schema`` version.
* :func:`html_report` — a self-contained static HTML report (inline CSS,
  inline SVG coverage curve, zero external requests) covering stats,
  coverage, triage and the operator profile.
"""

from __future__ import annotations

import html as _html
from typing import TYPE_CHECKING, Any, Dict, List

from repro.obs.profile import profile_rows
from repro.obs.render import render_bugs, render_stats, render_trace

if TYPE_CHECKING:
    from repro.obs.view import RunView

__all__ = [
    "EXPORT_SCHEMA_VERSION",
    "chrome_trace",
    "stats_json",
    "bugs_json",
    "compare_json",
    "html_report",
]

Event = Dict[str, Any]

EXPORT_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# Chrome trace-event JSON
# ---------------------------------------------------------------------------


def chrome_trace(view: "RunView") -> Dict[str, Any]:
    """Span events as a Chrome trace-event JSON object.

    One ``pid`` (the campaign), one ``tid`` per grid cell, complete
    (``ph="X"``) events on the simulated clock in µs.  A log without span
    events yields an empty (but valid) trace.
    """
    spans = view.spans
    cells = sorted({str(span.get("cell", "?")) for span in spans})
    tid_for = {cell: index + 1 for index, cell in enumerate(cells)}
    trace_events: List[Dict[str, Any]] = []
    if spans:
        trace_events.append({
            "ph": "M", "name": "process_name", "pid": 1, "tid": 0,
            "args": {"name": "repro campaign (simulated clock)"},
        })
    for cell in cells:
        trace_events.append({
            "ph": "M", "name": "thread_name", "pid": 1,
            "tid": tid_for[cell], "args": {"name": cell},
        })

    def timeline_key(span: Event) -> Any:
        return (
            tid_for[str(span.get("cell", "?"))],
            float(span.get("sim0") or 0.0),
            int(span.get("id", 0)),
        )

    for span in sorted(spans, key=timeline_key):
        sim0 = float(span.get("sim0") or 0.0)
        sim1 = span.get("sim1")
        duration = max(float(sim1) - sim0, 0.0) if sim1 is not None else 0.0
        trace_events.append({
            "ph": "X",
            "name": str(span.get("name", "?")),
            "cat": "campaign",
            "pid": 1,
            "tid": tid_for[str(span.get("cell", "?"))],
            "ts": round(sim0 * 1e6, 3),
            "dur": round(duration * 1e6, 3),
            "args": {
                "perf_seconds": span.get("perf"),
                "span_id": span.get("id"),
                "parent": span.get("parent"),
            },
        })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "clock": "simulated campaign seconds (×1e6 = ts µs)",
            "generator": "repro trace --export chrome",
            "schema": EXPORT_SCHEMA_VERSION,
        },
    }


# ---------------------------------------------------------------------------
# JSON twins of the text renderers
# ---------------------------------------------------------------------------


def stats_json(view: "RunView") -> Dict[str, Any]:
    """The machine-readable twin of ``repro stats``.

    ``torn_lines`` pins each undecodable journal line to its byte
    ``offset`` and ``length`` so consumers can audit exactly where a log
    lost data.
    """
    snapshot = view.metrics
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "events": view.events,
        "skipped_lines": view.skipped,
        "torn_lines": list(view.torn),
        "queries": view.matrix("campaign.queries"),
        "faults": view.matrix("campaign.faults"),
        "counters": snapshot["counters"],
        "gauges": snapshot["gauges"],
        "histograms": snapshot["histograms"],
        "timings": snapshot["timings"],
        "profile": profile_rows(snapshot),
        "supervisor": view.supervisor,
    }


def bugs_json(view: "RunView") -> Dict[str, Any]:
    """The machine-readable twin of ``repro bugs``."""
    merged = view.triage or {"occurrences": 0, "bugs": {}}
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "distinct": len(view.distinct_bugs),
        "occurrences": merged["occurrences"],
        "bugs": merged["bugs"],
        "bundles": [{"path": event.get("path"),
                     "signature": event.get("signature")}
                    for event in view.bundles],
    }


def compare_json(
    engine: str, rows: List[Dict[str, Any]], *, seed: int = 0
) -> Dict[str, Any]:
    """``repro compare`` rows as JSON (one dict per tester, table order)."""
    return {
        "schema": EXPORT_SCHEMA_VERSION,
        "engine": engine,
        "seed": seed,
        "rows": rows,
    }


# ---------------------------------------------------------------------------
# Static HTML report
# ---------------------------------------------------------------------------

_REPORT_CSS = """
body { font-family: -apple-system, 'Segoe UI', sans-serif; margin: 2rem;
       color: #1b1f24; max-width: 72rem; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem;
border-bottom: 1px solid #d0d7de; padding-bottom: .3rem; }
table { border-collapse: collapse; margin: .6rem 0; }
th, td { border: 1px solid #d0d7de; padding: .25rem .6rem;
         font-size: .85rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
pre { background: #f6f8fa; padding: .8rem; overflow-x: auto;
      font-size: .8rem; line-height: 1.35; }
.summary span { display: inline-block; margin-right: 1.6rem;
                font-size: .95rem; }
.summary b { font-size: 1.2rem; }
svg { background: #f6f8fa; }
.warn { color: #9a6700; }
"""


def _esc(value: Any) -> str:
    return _html.escape(str(value))


def _curve_svg(curve: List[Any], width: int = 640, height: int = 180) -> str:
    """The coverage-vs-queries curve as an inline SVG polyline."""
    points = [(int(q), int(n)) for q, n in curve]
    if len(points) < 2:
        return ""
    max_q = max(q for q, _n in points) or 1
    max_n = max(n for _q, n in points) or 1
    pad = 36
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    coords = " ".join(
        f"{pad + plot_w * q / max_q:.1f},{height - pad - plot_h * n / max_n:.1f}"
        for q, n in points
    )
    return (
        f'<svg viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="coverage curve">'
        f'<polyline points="{coords}" fill="none" stroke="#0969da" '
        f'stroke-width="2"/>'
        f'<text x="{pad}" y="{height - 8}" font-size="11">0</text>'
        f'<text x="{width - pad}" y="{height - 8}" font-size="11" '
        f'text-anchor="end">{max_q} queries</text>'
        f'<text x="4" y="{pad}" font-size="11">{max_n} features</text>'
        "</svg>"
    )


def _table(headers: List[str], rows: List[List[Any]]) -> str:
    head = "".join(f"<th>{_esc(h)}</th>" for h in headers)
    body = "".join(
        "<tr>" + "".join(f"<td>{_esc(cell)}</td>" for cell in row) + "</tr>"
        for row in rows
    )
    return f"<table><thead><tr>{head}</tr></thead><tbody>{body}</tbody></table>"


def html_report(view: "RunView", *, title: str = "repro campaign report") -> str:
    """A self-contained static HTML report for one event log.

    Works on any log — sections without data are simply omitted.  The
    output references no external resources, so the file can be archived
    or attached to a bug report as-is.
    """
    bugs = bugs_json(view)

    parts: List[str] = [
        "<!DOCTYPE html>",
        '<html lang="en"><head><meta charset="utf-8">',
        f"<title>{_esc(title)}</title>",
        f"<style>{_REPORT_CSS}</style></head><body>",
        f"<h1>{_esc(title)}</h1>",
        '<div class="summary">'
        f"<span><b>{view.events}</b> events</span>"
        f"<span><b>{view.cells_done}</b> campaign(s)</span>"
        f"<span><b>{view.queries}</b> queries</span>"
        f"<span><b>{bugs['distinct']}</b> distinct bug(s)</span>"
        "</div>",
    ]
    if view.skipped:
        parts.append(
            f'<p class="warn">warning: {view.skipped} torn/undecodable line(s) '
            "skipped while reading the log</p>"
        )

    queries = view.matrix("campaign.queries")
    if queries:
        engines = sorted({e for row in queries.values() for e in row})
        parts.append("<h2>Queries per tester × engine</h2>")
        parts.append(_table(
            ["tester", *engines],
            [[tester, *[queries[tester].get(e, "-") for e in engines]]
             for tester in queries],
        ))

    merged = view.coverage
    if merged is not None:
        parts.append("<h2>Coverage</h2>")
        parts.append(
            f"<p>{len(merged['features'])} distinct features over "
            f"{merged['queries']} queries</p>"
        )
        svg = _curve_svg(merged.get("curve", []))
        if svg:
            parts.append(svg)

    if bugs["bugs"]:
        parts.append("<h2>Distinct bugs</h2>")
        parts.append(_table(
            ["signature", "count", "kind", "first seed", "first query",
             "testers"],
            [
                [
                    sig, entry.get("count", 0), entry.get("kind", "?"),
                    entry.get("first_seen", {}).get("seed", "-"),
                    entry.get("first_seen", {}).get("query", "-"),
                    ",".join(entry.get("testers", [])),
                ]
                for sig, entry in bugs["bugs"].items()
            ],
        ))
        if bugs["bundles"]:
            parts.append("<h2>Repro bundles</h2>")
            parts.append(_table(
                ["path", "signature"],
                [[b["path"], b["signature"]] for b in bugs["bundles"]],
            ))

    profile = [r for r in profile_rows(view.metrics)
               if r["invocations"] or r["steps"] or r["seconds"] is not None]
    if profile:
        parts.append("<h2>Operator profile (compiled engine)</h2>")
        parts.append(_table(
            ["operator", "calls", "rows", "steps", "seconds"],
            [
                [
                    r["operator"], r["invocations"], r["rows"], r["steps"],
                    "-" if r["seconds"] is None else f"{r['seconds']:.4f}",
                ]
                for r in profile
            ],
        ))

    stats_text = render_stats(view)
    if "no metrics events" not in stats_text:
        parts.append("<h2>Full stats</h2>")
        parts.append(f"<pre>{_esc(stats_text)}</pre>")
    trace_text = render_trace(view)
    if "no span events" not in trace_text:
        parts.append("<h2>Span tree</h2>")
        parts.append(f"<pre>{_esc(trace_text)}</pre>")
    bugs_text = render_bugs(view)
    if "no triage events" not in bugs_text:
        parts.append("<h2>Triage</h2>")
        parts.append(f"<pre>{_esc(bugs_text)}</pre>")

    parts.append("</body></html>")
    return "\n".join(parts)
