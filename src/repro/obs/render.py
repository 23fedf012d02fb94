"""Text renderers of a recorded campaign event log.

``repro stats`` renders per-stage time histograms plus the per-tester×engine
query accounting; ``repro trace`` the span tree aggregated by stage name;
``repro coverage`` and ``repro bugs`` the second observability tier —
query-feature coverage (:mod:`repro.obs.coverage`) and distinct-bug
signatures (:mod:`repro.obs.triage`).

Each renders a :class:`repro.obs.view.RunView`, the one fold over the
events, so it works on *any* past run and agrees with every other view.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.coverage import feature_kind, merge_coverage_snapshots
from repro.obs.metrics import split_metric_key

if TYPE_CHECKING:
    from repro.obs.view import RunView

Event = Dict[str, Any]

__all__ = [
    "render_stats",
    "render_trace",
    "render_coverage",
    "render_bugs",
]


def _format_seconds(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value >= 1.0:
        return f"{value:.2f}s"
    if value >= 1e-3:
        return f"{value * 1e3:.2f}ms"
    return f"{value * 1e6:.0f}µs"


# ---------------------------------------------------------------------------
# repro stats
# ---------------------------------------------------------------------------


def _render_histogram(title: str, item: Dict[str, Any], unit: str) -> List[str]:
    lines = [
        f"{title}  (n={item['count']}, total {_format_seconds(item['sum'])}, "
        f"min {_format_seconds(item['min'])}, max {_format_seconds(item['max'])})"
        if unit == "s"
        else f"{title}  (n={item['count']}, total {item['sum']:g}, "
             f"min {item['min']:g}, max {item['max']:g})"
    ]
    peak = max(item["counts"]) or 1
    bounds = [*item["edges"], None]
    for edge, count in zip(bounds, item["counts"]):
        if count == 0:
            continue
        label = (
            f"  ≤{_format_seconds(edge)}" if unit == "s" and edge is not None
            else f"  ≤{edge:g}" if edge is not None
            else "  >last"
        )
        bar = "█" * max(1, round(24 * count / peak))
        lines.append(f"{label:>12s} {count:8d} {bar}")
    return lines


def _matrix_table(matrix: Dict[str, Dict[str, int]]) -> List[str]:
    """A ``{row: {col: value}}`` matrix as aligned text (``-`` = absent)."""
    if not matrix:
        return []
    cols = sorted({col for row in matrix.values() for col in row})
    width = max(len(c) for c in cols) + 2
    row_width = max(len(r) for r in matrix) + 2
    lines = [" " * row_width + "".join(f"{c:>{width}s}" for c in cols)]
    for row, values in matrix.items():
        lines.append(f"{row:<{row_width}s}" + "".join(
            f"{values.get(col, '-'):>{width}}" for col in cols
        ))
    return lines


def _render_supervisor(counts: Dict[str, Any]) -> List[str]:
    """The ``== supervisor ==`` lines (empty for a healthy log)."""
    lines: List[str] = []
    for failure_kind, n in counts["failed_by_kind"].items():
        lines.append(f"  failed attempts ({failure_kind}):{n:>9d}")
    if counts["retries"]:
        lines.append(f"  retries scheduled: {counts['retries']:>15d}")
    if counts["quarantined"]:
        lines.append(f"  cells quarantined: {counts['quarantined']:>15d}")
    if counts["harness_errors"]:
        lines.append(
            f"  harness errors (budget): {counts['harness_errors']:>9d}"
        )
    if counts["chaos_truncations"]:
        lines.append(
            f"  chaos log truncations: {counts['chaos_truncations']:>11d}"
        )
    return lines


def _render_plans(counters: Dict[str, Any]) -> List[str]:
    """The ``== plans ==`` section: compiled-core cache and row counters.

    Plan counters exist only when some cell ran with
    ``--engine-mode compiled`` (dual mode deliberately flushes none, so
    its stream matches an interpreted run's byte-for-byte); an
    interpreted-only log gets an explicit no-data line instead of a
    silently absent section.
    """
    plan: Dict[str, Any] = {}
    rows_by_operator: Dict[str, int] = {}
    for key, value in counters.items():
        base, labels = split_metric_key(key)
        if base == "plan.rows":
            operator = labels.get("operator", "?")
            rows_by_operator[operator] = (
                rows_by_operator.get(operator, 0) + value
            )
        elif base.startswith("plan.") and not labels:
            # Unlabelled plan.* counters are the cache scalars; labelled
            # ones (plan.invocations|operator=..., plan.steps|...) belong
            # to the per-operator profile section, not here.
            plan[base[len("plan."):]] = plan.get(base[len("plan."):], 0) + value
    if not plan and not rows_by_operator:
        return [
            "  no plan counters in log (campaign ran interpreted or dual; "
            "re-run with --engine-mode compiled)"
        ]
    hits = plan.get("cache_hits", 0)
    misses = plan.get("cache_misses", 0)
    lookups = hits + misses
    lines = [
        f"  plan cache hits:   {hits:>12d}",
        f"  plan cache misses: {misses:>12d}",
    ]
    if lookups:
        lines.append(f"  hit ratio:         {hits / lookups:>12.3f}")
    lines.append(f"  plans compiled:    {plan.get('compiles', 0):>12d}")
    lines.append(f"  divergences:       {plan.get('divergences', 0):>12d}")
    if plan.get("write_fallbacks"):
        # Writes are deliberately unplannable; visible, not an error.
        lines.append(f"  write fallbacks:   {plan['write_fallbacks']:>12d}")
    if rows_by_operator:
        lines.append("  rows by operator:")
        width = max(len(op) for op in rows_by_operator) + 2
        for operator in sorted(rows_by_operator):
            lines.append(
                f"    {operator:<{width}s} {rows_by_operator[operator]:>10d}"
            )
    return lines


def render_stats(view: "RunView") -> str:
    """Per-stage time/sim histograms + query accounting for an event log."""
    from repro.obs.profile import render_profile

    snapshot = view.metrics
    counters = snapshot["counters"]
    sections: List[Tuple[str, List[str]]] = []
    for title, section, name, suffix in (
        ("per-stage wall time", "timings", "stage.seconds", ""),
        ("per-stage simulated time", "histograms", "stage.sim_seconds",
         " (sim)"),
    ):
        store = snapshot[section]
        sections.append((title, [
            line
            for key in sorted(store) if split_metric_key(key)[0] == name
            for line in _render_histogram(
                f"stage {split_metric_key(key)[1].get('stage', '?')}{suffix}",
                store[key], "s",
            )
        ]))
    sections.append(("queries per tester × engine",
                     _matrix_table(view.matrix("campaign.queries"))))
    sections.append(("distinct faults per tester × engine",
                     _matrix_table(view.matrix("campaign.faults"))))
    if counters or snapshot["timings"] or snapshot["histograms"]:
        sections.append(("plans", _render_plans(counters)))
    sections.append(("profile", render_profile(snapshot)))
    sections.append(("counters", [
        f"  {key:<44s} {counters[key]}" for key in sorted(counters)
        if split_metric_key(key)[0] not in ("campaign.queries",
                                            "campaign.faults")
        and not key.startswith("plan.")
    ]))
    sections.append(("supervisor", _render_supervisor(view.supervisor)))
    lines = [line for title, body in sections if body
             for line in (f"== {title} ==", *body, "")]
    if not lines:
        return (
            "no metrics events in log "
            "(re-run with --metrics / observed() around the campaign)"
        )
    return "\n".join(lines).rstrip()


# ---------------------------------------------------------------------------
# repro trace
# ---------------------------------------------------------------------------


class _Agg:
    __slots__ = ("count", "perf", "sim", "children")

    def __init__(self) -> None:
        self.count = 0
        self.perf = 0.0
        self.sim = 0.0
        self.children: Dict[str, _Agg] = {}


def _aggregate_spans(spans: List[Event]) -> Dict[str, _Agg]:
    by_id = {span["id"]: span for span in spans}
    children: Dict[Optional[int], List[Event]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None and parent not in by_id:
            parent = None
        children.setdefault(parent, []).append(span)

    roots: Dict[str, _Agg] = {}

    def visit(span: Event, bucket: Dict[str, _Agg]) -> None:
        agg = bucket.setdefault(span["name"], _Agg())
        agg.count += 1
        agg.perf += span.get("perf", 0.0)
        if span.get("sim1") is not None and span.get("sim0") is not None:
            agg.sim += span["sim1"] - span["sim0"]
        for child in children.get(span["id"], []):
            visit(child, agg.children)

    for span in sorted(children.get(None, []), key=lambda s: s["id"]):
        visit(span, roots)
    return roots


def render_trace(view: "RunView") -> str:
    """Render the span tree of an event log, aggregated by stage name.

    Spans are grouped per grid cell (``cell`` attribute) and, within a
    cell, merged by name at each tree depth — a campaign's thousands of
    ``judge`` spans render as one line with count and totals.
    """
    spans = view.spans
    if not spans:
        return (
            "no span events in log "
            "(re-run with --metrics / EventLog(record_spans=True))"
        )

    by_cell: Dict[str, List[Event]] = {}
    for span in spans:
        by_cell.setdefault(span.get("cell", "?"), []).append(span)

    lines: List[str] = []
    for cell in sorted(by_cell):
        lines.append(f"[{cell}]")

        def emit(bucket: Dict[str, _Agg], depth: int) -> None:
            for name, agg in bucket.items():
                label = "  " * depth + name
                line = (
                    f"  {label:<28s} {agg.count:6d}×  "
                    f"perf {_format_seconds(agg.perf):>9s}"
                )
                if agg.sim:
                    line += f"  sim {agg.sim:9.2f}s"
                lines.append(line)
                emit(agg.children, depth + 1)

        emit(_aggregate_spans(by_cell[cell]), 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# repro coverage
# ---------------------------------------------------------------------------


def _feature_family_rows(features: Dict[str, Any]) -> List[Tuple[str, int, int]]:
    """(family, distinct features, total occurrences) rows, sorted."""
    distinct: Dict[str, int] = {}
    occurrences: Dict[str, int] = {}
    for tag, (count, _first) in features.items():
        family = feature_kind(tag)
        distinct[family] = distinct.get(family, 0) + 1
        occurrences[family] = occurrences.get(family, 0) + count
    return [(family, distinct[family], occurrences[family])
            for family in sorted(distinct)]


def _render_curve(curve: List[Any], width: int = 48) -> List[str]:
    """The coverage-vs-queries curve as an ASCII bar series (downsampled)."""
    points = [(int(q), int(n)) for q, n in curve]
    if not points:
        return []
    if len(points) > 12:
        step = len(points) / 12.0
        picked = {int(i * step) for i in range(12)} | {len(points) - 1}
        points = [points[i] for i in sorted(picked)]
    peak = max(n for _q, n in points) or 1
    lines = []
    for queries, n_features in points:
        bar = "█" * max(1, round(width * n_features / peak))
        lines.append(f"  {queries:8d} q {n_features:6d} {bar}")
    return lines


def render_coverage(view: "RunView") -> str:
    """Per-tester feature-coverage tables + the coverage-vs-queries curve."""
    snapshots = view.snapshots("coverage")
    if not snapshots:
        return (
            "no coverage events in log "
            "(re-run with --coverage / CampaignKernel(record_coverage=True))"
        )

    by_tester: Dict[str, List[Dict[str, Any]]] = {}
    for event in snapshots:
        by_tester.setdefault(str(event.get("tester", "?")), []).append(
            event["snapshot"]
        )

    lines: List[str] = []
    for tester in sorted(by_tester):
        merged = merge_coverage_snapshots(by_tester[tester])
        lines.append(
            f"== {tester}: feature coverage "
            f"({len(merged['features'])} features / "
            f"{merged['queries']} queries) =="
        )
        lines.append(f"  {'family':<10s} {'distinct':>9s} {'occurrences':>12s}")
        for family, n_distinct, n_occ in _feature_family_rows(
            merged["features"]
        ):
            lines.append(f"  {family:<10s} {n_distinct:>9d} {n_occ:>12d}")
        lines.append("")

    overall = view.coverage
    lines.append(
        f"== coverage over time ({len(overall['features'])} features / "
        f"{overall['queries']} queries) =="
    )
    lines.extend(_render_curve(overall.get("curve", [])))
    return "\n".join(lines).rstrip()


# ---------------------------------------------------------------------------
# repro bugs
# ---------------------------------------------------------------------------


def render_bugs(view: "RunView") -> str:
    """The distinct-bug table of an event log, one row per signature."""
    merged = view.triage
    if merged is None:
        return (
            "no triage events in log "
            "(re-run with --triage / CampaignKernel(record_triage=True))"
        )
    bugs = merged["bugs"]
    lines = [
        f"{merged['distinct']} distinct bug(s), "
        f"{merged['occurrences']} occurrence(s)"
    ]
    if bugs:
        sig_width = max(max(len(sig) for sig in bugs), len("signature")) + 2
        lines.append(
            f"{'signature':<{sig_width}s} {'count':>6s} {'kind':>6s} "
            f"{'first seed':>10s} {'first query':>12s}  testers"
        )
        for sig in sorted(bugs):
            entry = bugs[sig]
            first = entry.get("first_seen", {})
            lines.append(
                f"{sig:<{sig_width}s} {entry.get('count', 0):>6d} "
                f"{str(entry.get('kind', '?')):>6s} "
                f"{str(first.get('seed', '-')):>10s} "
                f"{str(first.get('query', '-')):>12s}  "
                + ",".join(entry.get("testers", []))
            )
    bundles = view.bundles
    if bundles:
        lines.append("")
        lines.append(f"{len(bundles)} repro bundle(s):")
        for event in bundles:
            lines.append(
                f"  {event.get('path', '?')}  [{event.get('signature', '?')}]"
            )
            shrink = _reduction_note(event.get("path"))
            if shrink:
                lines.append(f"    {shrink}")
    return "\n".join(lines)


def _reduction_note(path: Optional[str]) -> Optional[str]:
    """Original vs. reduced sizes for a bundle whose ``*.min.json`` exists.

    Renders from the minimized bundle's embedded ``reduction`` stats; any
    missing or unreadable sibling (bundle moved, reduction never ran) just
    drops the note — ``repro bugs`` must keep working on bare logs.
    """
    if not path:
        return None
    import json
    from pathlib import Path

    source = Path(path)
    min_path = source.with_name(source.stem + ".min.json")
    try:
        stats = json.loads(min_path.read_text(encoding="utf-8"))["reduction"]
        before, after = stats["original"], stats["reduced"]
        return (
            f"reduced: nodes {before['nodes']}->{after['nodes']}, "
            f"rels {before['relationships']}->{after['relationships']}, "
            f"query {before['query_bytes']}B->{after['query_bytes']}B "
            f"({min_path.name})"
        )
    except (OSError, KeyError, ValueError):
        return None
