"""The campaign event stream.

Every campaign run through :class:`repro.runtime.CampaignKernel` narrates
itself as a sequence of plain-dict events (campaign started, graph loaded,
query issued, fault detected, crash, cell checkpoint).  Events serve two
purposes:

* **observability** — a grid run can be tailed live from its JSONL log;
* **checkpoint/resume** — :class:`repro.runtime.ParallelCampaignRunner`
  appends a ``cell_complete`` event (carrying the full serialized
  :class:`~repro.runtime.results.CampaignResult`) after every finished grid
  cell, so an interrupted grid resumes from the last completed cell via
  :func:`repro.core.reporting.completed_cells_from_events`;
* **profiling** — with observability enabled (:mod:`repro.obs`), campaigns
  additionally append ``span`` events (the trace tree) and ``metrics``
  events (instrument snapshots); ``repro stats`` / ``repro trace`` turn any
  such log into a profile;
* **evaluation** — the second observability tier appends ``coverage``
  events (query-feature coverage snapshots, rendered by ``repro
  coverage``), ``triage`` events (distinct-bug signature snapshots,
  ``repro bugs``) and ``bundle`` events (one per flight-recorder repro
  bundle written).  Resume tolerates every kind — unknown events are
  carried, never choked on.

The JSONL (de)serialization itself lives in :mod:`repro.core.reporting`
alongside the campaign persistence format; this module only owns the
in-memory log and its write-through policy.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Any, Dict, List, Optional, TextIO, Union

__all__ = ["EventLog"]

Event = Dict[str, Any]


class EventLog:
    """An append-only event sink, optionally written through to JSONL.

    Events are buffered in memory (grid workers return them to the parent
    process) and, when *path* is given, appended to the file one JSON line
    per event, flushed immediately — so a killed run leaves a usable log.

    ``query`` events are high-volume (one per test query) and are dropped
    unless ``record_queries`` is set; likewise ``span`` events (several per
    test query, produced by the :mod:`repro.obs` tracer) require
    ``record_spans``.  Everything else — including the per-campaign
    ``metrics`` snapshots — is always kept.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        record_queries: bool = False,
        record_spans: bool = False,
        append: bool = True,
    ):
        self.path = Path(path) if path is not None else None
        self.record_queries = record_queries
        self.record_spans = record_spans
        self._append = append
        self._events: List[Event] = []
        self._handle: Optional[TextIO] = None

    # -- emission ---------------------------------------------------------

    def emit(self, kind: str, /, **payload: Any) -> Optional[Event]:
        """Record one event; returns it (or None when filtered out)."""
        if kind == "query" and not self.record_queries:
            return None
        if kind == "span" and not self.record_spans:
            return None
        event: Event = {"event": kind, **payload}
        self._events.append(event)
        if self.path is not None:
            from repro.core.reporting import event_to_json_line

            if self._handle is None:
                self._open()
            self._handle.write(event_to_json_line(event) + "\n")
            self._handle.flush()
        return event

    def _open(self) -> None:
        """Open the file; an append first ends a torn final line, so the
        stump of a killed write never swallows the next record."""
        torn = False
        if self._append and self.path.exists():
            with self.path.open("rb") as handle:
                if handle.seek(0, os.SEEK_END):
                    handle.seek(-1, os.SEEK_END)
                    torn = handle.read(1) != b"\n"
        self._handle = self.path.open("a" if self._append else "w",
                                      encoding="utf-8")
        if torn:
            self._handle.write("\n")

    def extend(self, events: List[Event]) -> None:
        """Re-emit *events* (e.g. forwarded from a worker process)."""
        for event in events:
            self.emit(event["event"], **{k: v for k, v in event.items()
                                         if k != "event"})

    # -- access -----------------------------------------------------------

    @property
    def events(self) -> List[Event]:
        return list(self._events)

    def of_kind(self, kind: str) -> List[Event]:
        return [event for event in self._events if event["event"] == kind]

    def sync(self) -> None:
        """Durability barrier: flush and ``fsync`` the backing file.

        The campaign service calls this at cell-completion boundaries so a
        ``kill -9`` of the scheduler can never lose a checkpointed result —
        anything acknowledged before :meth:`sync` returned survives the
        crash; at most the torn tail of a later, unsynced line is lost (and
        skipped by :func:`repro.core.reporting.load_event_stream`).
        """
        if self._handle is not None:
            self._handle.flush()
            os.fsync(self._handle.fileno())

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._events)
