"""Follow a growing JSONL event log: live campaign telemetry.

:class:`EventFollower` incrementally tails the JSONL event stream every
campaign/grid run can append to and feeds each event to a
:class:`repro.obs.view.RunView` — the same fold the post-hoc renderers
read — so ``repro watch LOG`` (a refresh-in-place terminal view, or one
frame with ``--once``) always agrees with ``repro stats`` on the same
bytes.

* **Incremental.**  Each :meth:`EventFollower.poll` reads only the bytes
  appended since the previous poll.  A trailing line without a newline is
  a write in progress: it is buffered and re-examined next poll, never
  half-parsed.  A *terminated* line that fails to decode (a torn record
  from a crash or chaos truncation) is accounted as torn — the same
  tolerance contract as :func:`repro.core.reporting.load_event_stream`.
* **Journal read side.**  The campaign scheduler journals this very
  JSONL format; the follower decodes it while it grows.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.export import stats_json

__all__ = ["EventFollower", "render_watch", "watch_json"]


class EventFollower:
    """Incrementally tail a JSONL event stream into a :class:`RunView`.

    The file may not exist yet (a campaign about to start); polls are
    no-ops until it appears.  A file that *shrinks* (rotated or truncated
    underneath us) starts a fresh view and is re-read from the start.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = Path(path)
        self._restart()

    def _restart(self) -> None:
        from repro.obs.view import RunView

        self.view = RunView()
        self._offset = 0
        self._partial = b""

    def poll(self) -> List[Dict[str, Any]]:
        """Fold newly appended events into :attr:`view`; return them."""
        # Imported here: repro.core imports the runtime layer, which
        # imports repro.obs.
        from repro.core.reporting import decode_event_line

        try:
            size = self.path.stat().st_size
        except OSError:
            return []
        if size < self._offset:
            self._restart()
        if size == self._offset:
            return []
        with self.path.open("rb") as handle:
            handle.seek(self._offset)
            chunk = handle.read()
        position = self._offset - len(self._partial)
        self._offset += len(chunk)
        lines = (self._partial + chunk).split(b"\n")
        # Empty when the data ended in a newline; otherwise the in-progress
        # tail of the next record.
        self._partial = lines.pop()
        fresh: List[Dict[str, Any]] = []
        for raw in lines:
            if raw.strip():
                event = decode_event_line(raw.strip())
                if event is None:
                    self.view.add_torn(position, len(raw))
                else:
                    self.view.add(event)
                    fresh.append(event)
            position += len(raw) + 1
        return fresh


def render_watch(view, *, path: Union[str, Path],
                 rate: Optional[float] = None) -> str:
    """One frame of the ``repro watch`` view of the log at *path*.

    Pure text over the view — the caller owns screen refresh and pacing.
    *rate* is the caller-measured live queries/sec (wall clock between
    polls); ``None`` renders as ``-`` so scripted ``--once`` output stays
    deterministic.
    """
    lines = [
        "== live campaign telemetry ==",
        f"log: {path}   events: {view.events}"
        + (f"   torn lines skipped: {view.skipped}" if view.skipped else ""),
        f"status: {view.status}   "
        f"cells: {view.cells_done}/{len(view.cells)} done",
        f"queries: {view.queries}   sim time: {view.sim_seconds:.1f}s   "
        f"queries/sec: {'-' if rate is None else f'{rate:.1f}'}",
    ]
    cells = view.cells
    if cells:
        width = max(max(len(label) for label in cells), len("cell")) + 2
        lines += ["", "== cells ==",
                  f"  {'cell':<{width}s} {'status':<16s} {'queries':>8s} "
                  f"{'sim(s)':>9s} {'faults':>7s}"]
        lines += [
            f"  {label:<{width}s} {cell['status']:<16s} "
            f"{cell['queries']:>8d} {cell['sim']:>9.1f} {cell['faults']:>7d}"
            for label, cell in cells.items()
        ]
    signatures = view.distinct_bugs
    if signatures:
        lines += ["", f"== distinct signatures ({len(signatures)}) =="]
        lines += [f"  {signature}" for signature in signatures[:12]]
        if len(signatures) > 12:
            lines.append(f"  ... and {len(signatures) - 12} more")
    footer = [line for line in (_service_line(view.service),
                                _supervisor_line(view.supervisor)) if line]
    if footer:
        lines += ["", *footer]
    return "\n".join(lines)


def watch_json(view, *, rate: Optional[float] = None) -> Dict[str, Any]:
    """One machine-readable frame of the watch view.

    The payload *is* :func:`repro.obs.export.stats_json` of the view —
    same schema version, same counter matrices — so scripted consumers
    can share one decoder between ``repro stats --format json`` and
    ``repro watch --once --format json``.  The live rolling state rides
    along under the ``"watch"`` key.
    """
    data = stats_json(view)
    data["watch"] = {
        "status": view.status,
        "finished": view.finished,
        "cells": {label: dict(cell) for label, cell in view.cells.items()},
        "cells_done": view.cells_done,
        "counts": dict(sorted(view.counts.items())),
        "queries": view.queries,
        "sim_seconds": view.sim_seconds,
        "rate": rate,
        "distinct_signatures": view.distinct_bugs,
    }
    return data


def _service_line(service: Optional[Dict[str, int]]) -> Optional[str]:
    if service is None:
        return None
    parts = [f"leases {service['leases']}"]
    for key in ("revoked", "jobs", "restarts"):
        if service[key]:
            parts.append(
                f"jobs {service['jobs_complete']}/{service['jobs']} complete"
                if key == "jobs" else f"{key} {service[key]}"
            )
    return "service: " + ", ".join(parts)


def _supervisor_line(counts: Dict[str, Any]) -> Optional[str]:
    parts = [
        f"{label} {n}" for label, n in (
            ("failed", sum(counts["failed_by_kind"].values())),
            ("retried", counts["retries"]),
            ("quarantined", counts["quarantined"]),
            ("harness errors", counts["harness_errors"]),
            ("chaos truncations", counts["chaos_truncations"]),
        ) if n
    ]
    return "supervisor: " + ", ".join(parts) if parts else None
