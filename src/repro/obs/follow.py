"""Follow a growing JSONL event log: live campaign telemetry.

The post-hoc renderers (:mod:`repro.obs.render`) read a *finished* log;
this module is the live half.  :class:`EventFollower` incrementally tails
the JSONL event stream every campaign/grid run can append to, tolerating
the same torn lines the loader does, and folds each event into rolling
per-cell state — ``repro watch LOG`` renders it as a refresh-in-place
terminal view (or once, for scripting, with ``--once``).

Design constraints:

* **Incremental.**  Each :meth:`EventFollower.poll` reads only the bytes
  appended since the previous poll.  A trailing line without a newline is
  a write in progress: it is buffered and re-examined next poll, never
  half-parsed.  A *terminated* line that fails to decode (a torn record
  from a crash or chaos truncation) is counted in ``skipped`` — the same
  tolerance contract as
  :func:`repro.core.reporting.load_event_stream`.
* **Parity with post-hoc rendering.**  The follower accumulates the full
  parsed event list (``follower.events``); at every poll it equals what
  ``load_event_stream`` would return for the file's current contents, so
  ``render_stats(follower.events)`` is *definitionally* byte-identical to
  re-reading the log.  The rolling per-cell state is derived purely from
  folded events and carries no wall-clock of its own.
* **Wire-protocol read side.**  The ROADMAP's distributed campaign
  service streams this very JSONL format; the follower is its client-side
  decoder, usable against a file today and a socket-backed spool later.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

__all__ = ["EventFollower", "render_watch", "watch_json"]

Event = Dict[str, Any]


class EventFollower:
    """Incrementally tail a JSONL event stream, tolerating torn lines.

    The file may not exist yet (a campaign about to start); polls are
    no-ops until it appears.  A file that *shrinks* (rotated or truncated
    underneath us) resets the follower and is re-read from the start.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self.events: List[Event] = []
        self.skipped = 0
        #: Byte-accurate account of every torn line:
        #: ``[{"offset": byte_offset, "length": bytes}, ...]``.
        self.skipped_lines: List[Dict[str, int]] = []
        self.counts: Dict[str, int] = {}
        #: ``"tester/engine/seed" -> {"status", "queries", "sim", "faults"}``
        self.cells: Dict[str, Dict[str, Any]] = {}
        self.finished = False
        self._offset = 0
        self._partial = b""
        self._current: Optional[str] = None
        self._open_grids = 0
        self._open_campaigns = 0
        self._service = False
        self._service_open = False

    # -- polling -----------------------------------------------------------

    def poll(self) -> List[Event]:
        """Parse newly appended events, fold them, and return them."""
        # Imported here: repro.core imports the runtime layer, which
        # imports repro.obs.
        from repro.core.reporting import decode_event_line

        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self._offset:
            self._reset()
        if size == self._offset:
            return []
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        position = self._offset - len(self._partial)
        self._offset += len(chunk)
        data = self._partial + chunk
        lines = data.split(b"\n")
        # Empty when the data ended in a newline; otherwise the in-progress
        # tail of the next record.
        self._partial = lines.pop()
        fresh: List[Event] = []
        for raw in lines:
            line = raw.strip()
            if line:
                event = decode_event_line(line)
                if event is None:
                    self.skipped += 1
                    self.skipped_lines.append(
                        {"offset": position, "length": len(raw)}
                    )
                else:
                    self.events.append(event)
                    self._fold(event)
                    fresh.append(event)
            position += len(raw) + 1
        return fresh

    def _reset(self) -> None:
        self.events = []
        self.skipped = 0
        self.skipped_lines = []
        self.counts = {}
        self.cells = {}
        self.finished = False
        self._offset = 0
        self._partial = b""
        self._current = None
        self._open_grids = 0
        self._open_campaigns = 0
        self._service = False
        self._service_open = False

    # -- rolling state -----------------------------------------------------

    @property
    def total_queries(self) -> int:
        return sum(cell.get("queries", 0) for cell in self.cells.values())

    @property
    def total_sim_seconds(self) -> float:
        return sum(cell.get("sim", 0.0) for cell in self.cells.values())

    def _cell(self, label: str) -> Dict[str, Any]:
        cell = self.cells.get(label)
        if cell is None:
            cell = self.cells[label] = {
                "status": "pending", "queries": 0, "sim": 0.0, "faults": 0,
            }
        return cell

    def _fold(self, event: Event) -> None:
        kind = event.get("event", "?")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        if kind == "grid_start":
            self._open_grids += 1
            # Newer logs carry the full cell list, letting the view show
            # pending cells before any of them report.
            for key in event.get("grid") or ():
                self._cell("/".join(str(part) for part in key))
        elif kind == "grid_end":
            self._open_grids -= 1
        elif kind == "campaign_start":
            self._open_campaigns += 1
            label = (f"{event.get('tester', '?')}/{event.get('engine', '?')}"
                     f"/{event.get('seed', '?')}")
            self._current = label
            cell = self._cell(label)
            cell.update(status="running", queries=0, sim=0.0, faults=0)
        elif kind in ("graph", "query") and self._current is not None:
            cell = self.cells[self._current]
            cell["sim"] = float(event.get("sim_time", cell["sim"]))
            if kind == "graph":
                cell["queries"] = int(event.get("queries", cell["queries"]))
            else:
                cell["queries"] = int(event.get("n", cell["queries"]))
        elif kind == "fault" and self._current is not None:
            self.cells[self._current]["faults"] += 1
        elif kind == "campaign_end":
            self._open_campaigns -= 1
            if self._current is not None:
                cell = self.cells[self._current]
                cell.update(
                    status="done",
                    queries=int(event.get("queries_run", cell["queries"])),
                    sim=float(event.get("sim_seconds", cell["sim"])),
                    faults=len(event.get("detected_faults") or ())
                    or cell["faults"],
                )
                self._current = None
        elif kind == "cell_complete":
            label = (f"{event.get('tester', '?')}/{event.get('engine', '?')}"
                     f"/{event.get('seed', '?')}")
            campaign = event.get("campaign") or {}
            cell = self._cell(label)
            cell.update(
                status="done",
                queries=int(campaign.get("queries_run", cell["queries"])),
                sim=float(campaign.get("sim_seconds", cell["sim"])),
                faults=len(campaign.get("timeline") or ()) or cell["faults"],
            )
        elif kind in ("cell_failed", "cell_retry", "cell_quarantined"):
            label = (f"{event.get('tester', '?')}/{event.get('engine', '?')}"
                     f"/{event.get('seed', '?')}")
            cell = self._cell(label)
            if kind == "cell_failed":
                cell["status"] = f"failed ({event.get('kind', '?')})"
            elif kind == "cell_retry":
                cell["status"] = "retrying"
            else:
                cell["status"] = "quarantined"
        elif kind == "service_start":
            # A (re)started campaign service owns this log: completion is
            # now governed by service_stop, not campaign balance.
            self._service = True
            self._service_open = True
        elif kind == "service_stop":
            self._service_open = False
        elif kind == "job_submitted":
            for key in event.get("cells") or ():
                self._cell("/".join(str(part) for part in key))
        elif kind == "lease":
            label = (f"{event.get('tester', '?')}/{event.get('engine', '?')}"
                     f"/{event.get('seed', '?')}")
            self._cell(label)["status"] = "leased"
        elif kind == "lease_revoked":
            label = (f"{event.get('tester', '?')}/{event.get('engine', '?')}"
                     f"/{event.get('seed', '?')}")
            self._cell(label)["status"] = (
                f"revoked ({event.get('reason', '?')})"
            )
        # Completion: every opened grid and campaign has closed.  Between a
        # grid's cells the grid itself is still open, so a live grid never
        # reads as finished early; a bare single-campaign log closes on its
        # campaign_end.  A service log instead finishes on service_stop —
        # between a service's cells nothing is "open" in the grid sense.
        if self._service:
            self.finished = not self._service_open
        else:
            self.finished = (
                bool(self.counts.get("grid_end")
                     or self.counts.get("campaign_end"))
                and self._open_grids <= 0
                and self._open_campaigns <= 0
            )

    def distinct_signatures(self) -> List[str]:
        """Distinct bug signatures seen so far.

        Prefers triage snapshots (the deduplicated signature stream); a log
        recorded without ``--triage`` falls back to the union of detected
        fault ids from campaign summaries.
        """
        from repro.obs.render import triage_snapshots_in
        from repro.obs.triage import merge_triage_snapshots

        snaps = triage_snapshots_in(self.events)
        if snaps:
            merged = merge_triage_snapshots(
                [event["snapshot"] for event in snaps]
            )
            return sorted(merged["bugs"])
        faults: Dict[str, None] = {}
        for event in self.events:
            if event.get("event") == "campaign_end":
                for fault_id in event.get("detected_faults") or ():
                    faults[str(fault_id)] = None
            elif event.get("event") == "cell_complete":
                campaign = event.get("campaign") or {}
                for _when, fault_id in campaign.get("timeline") or ():
                    faults[str(fault_id)] = None
        return sorted(faults)


def render_watch(
    follower: EventFollower, *, rate: Optional[float] = None
) -> str:
    """One frame of the ``repro watch`` view, built from rolling state.

    Pure text over the follower's folded state — the caller owns screen
    refresh and pacing.  *rate* is the caller-measured live queries/sec
    (wall clock between polls); ``None`` renders as ``-`` so scripted
    ``--once`` output stays deterministic.
    """
    lines = ["== live campaign telemetry =="]
    lines.append(
        f"log: {follower.path}   events: {len(follower.events)}"
        + (f"   torn lines skipped: {follower.skipped}"
           if follower.skipped else "")
    )
    done = sum(1 for cell in follower.cells.values()
               if cell["status"] == "done")
    status = "complete" if follower.finished else (
        "waiting for events" if not follower.events else "running"
    )
    lines.append(
        f"status: {status}   cells: {done}/{len(follower.cells)} done"
    )
    rate_text = "-" if rate is None else f"{rate:.1f}"
    lines.append(
        f"queries: {follower.total_queries}   "
        f"sim time: {follower.total_sim_seconds:.1f}s   "
        f"queries/sec: {rate_text}"
    )
    if follower.cells:
        lines.append("")
        lines.append("== cells ==")
        width = max(max(len(label) for label in follower.cells),
                    len("cell")) + 2
        lines.append(
            f"  {'cell':<{width}s} {'status':<16s} {'queries':>8s} "
            f"{'sim(s)':>9s} {'faults':>7s}"
        )
        for label in sorted(follower.cells):
            cell = follower.cells[label]
            lines.append(
                f"  {label:<{width}s} {cell['status']:<16s} "
                f"{cell['queries']:>8d} {cell['sim']:>9.1f} "
                f"{cell['faults']:>7d}"
            )
    signatures = follower.distinct_signatures()
    if signatures:
        lines.append("")
        lines.append(f"== distinct signatures ({len(signatures)}) ==")
        shown = signatures[:12]
        for signature in shown:
            lines.append(f"  {signature}")
        if len(signatures) > len(shown):
            lines.append(f"  ... and {len(signatures) - len(shown)} more")
    from repro.obs.render import _render_adaptation

    adaptation = _render_adaptation(follower.events)
    if adaptation:
        lines.append("")
        lines.append("== adaptation ==")
        lines.extend(adaptation)
    supervisor = _supervisor_line(follower.counts)
    service = _service_line(follower.counts)
    if supervisor or service:
        lines.append("")
        if service:
            lines.append(service)
        if supervisor:
            lines.append(supervisor)
    return "\n".join(lines)


def watch_json(
    follower: EventFollower, *, rate: Optional[float] = None
) -> Dict[str, Any]:
    """One machine-readable frame of the watch view.

    The payload *is* :func:`repro.obs.export.stats_json` over the events
    folded so far — same schema version, same counter matrices — so
    scripted consumers can share one decoder between ``repro stats
    --format json`` and ``repro watch --once --format json``.  The live
    rolling state rides along under the ``"watch"`` key.
    """
    from repro.obs.export import stats_json

    data = stats_json(
        follower.events,
        skipped=follower.skipped,
        torn=follower.skipped_lines,
    )
    done = sum(1 for cell in follower.cells.values()
               if cell["status"] == "done")
    data["watch"] = {
        "status": "complete" if follower.finished else (
            "waiting for events" if not follower.events else "running"
        ),
        "finished": follower.finished,
        "cells": {label: dict(cell)
                  for label, cell in sorted(follower.cells.items())},
        "cells_done": done,
        "counts": dict(sorted(follower.counts.items())),
        "queries": follower.total_queries,
        "sim_seconds": follower.total_sim_seconds,
        "rate": rate,
        "distinct_signatures": follower.distinct_signatures(),
    }
    return data


def _service_line(counts: Dict[str, int]) -> Optional[str]:
    if not counts.get("service_start"):
        return None
    parts = [f"leases {counts.get('lease', 0)}"]
    if counts.get("lease_revoked"):
        parts.append(f"revoked {counts['lease_revoked']}")
    if counts.get("heartbeat"):
        parts.append(f"heartbeats {counts['heartbeat']}")
    if counts.get("job_submitted"):
        parts.append(
            f"jobs {counts.get('job_complete', 0)}"
            f"/{counts['job_submitted']} complete"
        )
    if counts.get("job_cancelled"):
        parts.append(f"cancelled {counts['job_cancelled']}")
    if counts.get("service_start", 0) > 1:
        parts.append(f"restarts {counts['service_start'] - 1}")
    return "service: " + ", ".join(parts)


def _supervisor_line(counts: Dict[str, int]) -> Optional[str]:
    parts = []
    for kind, label in (("cell_failed", "failed"), ("cell_retry", "retried"),
                        ("cell_quarantined", "quarantined"),
                        ("harness_error", "harness errors"),
                        ("chaos", "chaos truncations")):
        if counts.get(kind):
            parts.append(f"{label} {counts[kind]}")
    if not parts:
        return None
    return "supervisor: " + ", ".join(parts)
