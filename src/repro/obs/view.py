"""One fold over a campaign event log, behind every view of it.

``repro stats``/``trace``/``coverage``/``bugs``, their ``--format json``
twins, ``repro watch``, ``repro report`` and the Chrome trace all read a
:class:`RunView`: the events are folded once, and each view only renders
the result, so no two views can disagree about which events count.

* **Counting rule.**  An attempt counts only if its checkpoint is in the
  log.  A cell's campaign-scope snapshots, spans, faults and bundles
  belong to the attempt opened by its last ``campaign_start``; its next
  ``cell_complete`` seals them, and only the attempt sealed by a cell's
  last ``cell_complete`` counts.  An attempt whose checkpoint was torn is
  abandoned — the resume that re-ran it is what counts.  A log with no
  ``cell_complete`` at all (a bare ``repro run``) counts every campaign.
  Snapshots, spans, faults, bundles and ``harness_error`` events follow
  this rule; failures, retries, quarantines and chaos truncations describe
  attempts and are all counted.  Only campaign-scope snapshots are read
  (older grid logs also carry grid-scope rollups; they are ignored), and
  they merge in sorted (tester, engine, seed) order, so a grid's merges do
  not depend on the order its cells completed in.
* **Finish rule.**  A service log has finished on ``service_stop``; a grid
  log when its last ``grid_start`` is closed by a ``grid_end``; a bare
  campaign log when its campaigns balance.
* **Distinct bugs** are the triage signatures, else the detected fault
  ids, else none.

:meth:`RunView.add` folds one event, so a follower of a growing log
(:class:`repro.obs.follow.EventFollower`) and a post-hoc reader
(:meth:`RunView.of`) build the same object.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.coverage import merge_coverage_snapshots
from repro.obs.metrics import merge_snapshots, split_metric_key
from repro.obs.triage import merge_triage_snapshots

__all__ = ["RunView"]

Event = Dict[str, Any]
CellKey = Tuple[Any, Any, Any]

#: Snapshot-carrying event kinds (one campaign-scope snapshot per cell).
SNAPSHOT_KINDS = ("metrics", "coverage", "triage")
#: Per-attempt event kinds that count only when their attempt does.
_ATTEMPT_KINDS = ("span", "fault", "bundle", "harness_error")


def _key(event: Event) -> CellKey:
    return (event.get("tester", "?"), event.get("engine", "?"),
            event.get("seed", "?"))


def _cell_order(event: Event) -> Tuple[str, str, Tuple[int, Any]]:
    """Sort key of an event's cell; integer seeds sort numerically and
    before non-integer ones (``"?"`` on hand-written logs)."""
    tester, engine, seed = _key(event)
    rank = (0, seed) if isinstance(seed, int) else (1, str(seed))
    return (str(tester), str(engine), rank)


def _label(key: Iterable[Any]) -> str:
    return "/".join(str(part) for part in key)


class RunView:
    """Everything the views show about one event log, folded once."""

    def __init__(self) -> None:
        self.events = 0
        #: Torn lines: their number, and each one's byte offset and length.
        self.skipped = 0
        self.torn: List[Dict[str, int]] = []
        self.counts: Dict[str, int] = {}
        #: ``"tester/engine/seed" -> {"status", "queries", "sim", "faults"}``
        self._cells: Dict[str, Dict[str, Any]] = {}
        #: ``"tester/engine/seed" ->`` highest attempt number on record.
        self.attempts: Dict[str, int] = {}
        self.failed_by_kind: Dict[str, int] = {}
        self._current: Optional[str] = None
        self._open_campaigns = 0
        self._grid_open: Optional[bool] = None
        self._service_open: Optional[bool] = None
        # Counting rule: per-attempt events in log order (``_loose``), the
        # open attempt of each cell, and the attempt each cell's last
        # checkpoint sealed (re-inserted on re-seal, so log-ordered too).
        self._loose: Dict[str, List[Event]] = {}
        self._open: Dict[CellKey, Dict[str, List[Event]]] = {}
        self._sealed: Dict[CellKey, Dict[str, List[Event]]] = {}
        self._owner: Optional[CellKey] = None
        self._merged: Dict[str, Any] = {}

    @classmethod
    def of(
        cls,
        events: Iterable[Event],
        *,
        skipped: int = 0,
        torn: Optional[List[Dict[str, int]]] = None,
    ) -> "RunView":
        """Fold a loaded log (torn lines as ``load_event_stream`` counts
        them: ``skipped`` and its ``skipped_lines``)."""
        view = cls()
        for event in events:
            view.add(event)
        view.skipped = skipped
        view.torn = list(torn or ())
        return view

    def add_torn(self, offset: int, length: int) -> None:
        """Account one undecodable line of the log."""
        self.skipped += 1
        self.torn.append({"offset": offset, "length": length})

    # -- the fold ----------------------------------------------------------

    def _cell(self, label: str) -> Dict[str, Any]:
        cell = self._cells.get(label)
        if cell is None:
            cell = self._cells[label] = {
                "status": "pending", "queries": 0, "sim": 0.0, "faults": 0,
            }
        return cell

    def _attempt(self, label: str, number: Any) -> None:
        self.attempts[label] = max(self.attempts.get(label, 0),
                                   int(number or 1))

    def add(self, event: Event) -> None:
        """Fold one event."""
        kind = event.get("event", "?")
        self.events += 1
        self.counts[kind] = self.counts.get(kind, 0) + 1
        self._merged.clear()
        if kind in _ATTEMPT_KINDS or (kind in SNAPSHOT_KINDS
                                      and event.get("scope") == "campaign"):
            self._loose.setdefault(kind, []).append(event)
            if self._owner is not None:
                self._open[self._owner].setdefault(kind, []).append(event)
        if kind == "fault" and self._current is not None:
            self._cells[self._current]["faults"] += 1
        elif kind == "grid_start":
            self._grid_open = True
            # Newer logs carry the full cell list, letting the view show
            # pending cells before any of them report.
            for key in event.get("grid") or ():
                self._cell(_label(key))
        elif kind == "grid_end":
            self._grid_open = False
        elif kind == "campaign_start":
            self._open_campaigns += 1
            self._owner = _key(event)
            self._open[self._owner] = {}
            self._current = _label(self._owner)
            self._cell(self._current).update(
                status="running", queries=0, sim=0.0, faults=0
            )
        elif kind in ("graph", "query") and self._current is not None:
            cell = self._cells[self._current]
            cell["sim"] = float(event.get("sim_time", cell["sim"]))
            field = "queries" if kind == "graph" else "n"
            cell["queries"] = int(event.get(field, cell["queries"]))
        elif kind == "campaign_end":
            self._open_campaigns -= 1
            if self._current is not None:
                cell = self._cells[self._current]
                cell.update(
                    status="done",
                    queries=int(event.get("queries_run", cell["queries"])),
                    sim=float(event.get("sim_seconds", cell["sim"])),
                    faults=len(event.get("detected_faults") or ())
                    or cell["faults"],
                )
                self._current = None
        elif kind == "cell_complete":
            key = _key(event)
            label = _label(key)
            self._sealed.pop(key, None)
            self._sealed[key] = self._open.pop(key, {})
            self._owner = None
            self._attempt(label, event.get("attempts"))
            campaign = event.get("campaign") or {}
            cell = self._cell(label)
            cell.update(
                status="done",
                queries=int(campaign.get("queries_run", cell["queries"])),
                sim=float(campaign.get("sim_seconds", cell["sim"])),
                faults=len(campaign.get("timeline") or ()) or cell["faults"],
            )
        elif kind in ("cell_failed", "cell_retry", "cell_quarantined",
                      "lease", "lease_revoked"):
            label = _label(_key(event))
            status = {
                "cell_failed": f"failed ({event.get('kind', '?')})",
                "cell_retry": "retrying",
                "cell_quarantined": "quarantined",
                "lease": "leased",
                "lease_revoked": f"revoked ({event.get('reason', '?')})",
            }[kind]
            self._cell(label)["status"] = status
            if kind in ("cell_failed", "lease"):
                self._attempt(label, event.get("attempt"))
            if kind == "cell_failed":
                failure = event.get("kind", "exception")
                self.failed_by_kind[failure] = (
                    self.failed_by_kind.get(failure, 0) + 1
                )
        elif kind == "job_submitted":
            for key in event.get("cells") or ():
                self._cell(_label(key))
        elif kind == "service_start":
            # A (re)started campaign service owns this log: completion is
            # governed by service_stop, not grid or campaign balance.
            self._service_open = True
        elif kind == "service_stop":
            self._service_open = False

    # -- cells -------------------------------------------------------------

    def _unsealed(self) -> set:
        """Cells whose last attempt has no checkpoint in a checkpointed log."""
        if not self.counts.get("cell_complete"):
            return set()
        return {_label(key) for key in self._open}

    @property
    def cells(self) -> Dict[str, Dict[str, Any]]:
        """Per-cell records, label-sorted; a finished attempt whose
        checkpoint is not in the log reads ``unsealed``."""
        unsealed = self._unsealed()
        return {
            label: (dict(cell, status="unsealed")
                    if cell["status"] == "done" and label in unsealed
                    else cell)
            for label, cell in sorted(self._cells.items())
        }

    def _counted_cells(self) -> List[Dict[str, Any]]:
        unsealed = self._unsealed()
        return [cell for label, cell in self._cells.items()
                if label not in unsealed]

    @property
    def queries(self) -> int:
        return sum(cell["queries"] for cell in self._counted_cells())

    @property
    def sim_seconds(self) -> float:
        return sum(cell["sim"] for cell in self._counted_cells())

    @property
    def cells_done(self) -> int:
        return sum(1 for cell in self.cells.values()
                   if cell["status"] == "done")

    @property
    def finished(self) -> bool:
        if self._service_open is not None:
            return not self._service_open
        if self._grid_open is not None:
            return not self._grid_open
        return bool(self.counts.get("campaign_end")) and (
            self._open_campaigns <= 0
        )

    @property
    def status(self) -> str:
        if self.finished:
            return "complete"
        return "running" if self.events else "waiting for events"

    # -- counted events ----------------------------------------------------

    def _counted(self, kind: str) -> List[Event]:
        """The counted per-attempt events of *kind*, in log order."""
        if not self.counts.get("cell_complete"):
            return list(self._loose.get(kind, ()))
        return [event for attempt in self._sealed.values()
                for event in attempt.get(kind, ())]

    def snapshots(self, kind: str) -> List[Event]:
        """Counted campaign-scope snapshot events, in cell order."""
        return sorted(self._counted(kind), key=_cell_order)

    @property
    def spans(self) -> List[Event]:
        return self._counted("span")

    @property
    def bundles(self) -> List[Event]:
        return sorted(self._counted("bundle"),
                      key=lambda event: str(event.get("path", "")))

    def _merge(self, kind: str, merge) -> Optional[Dict[str, Any]]:
        if kind not in self._merged:
            events = self.snapshots(kind)
            self._merged[kind] = (
                merge([event.get("snapshot") or {} for event in events])
                if events else None
            )
        return self._merged[kind]

    @property
    def metrics(self) -> Dict[str, Any]:
        """The merged metrics snapshot (empty sections without metrics)."""
        return self._merge("metrics", merge_snapshots) or merge_snapshots(())

    @property
    def coverage(self) -> Optional[Dict[str, Any]]:
        return self._merge("coverage", merge_coverage_snapshots)

    @property
    def triage(self) -> Optional[Dict[str, Any]]:
        return self._merge("triage", merge_triage_snapshots)

    def matrix(self, name: str) -> Dict[str, Dict[str, int]]:
        """``name|tester=..,engine=..`` counters as ``{tester: {engine:
        value}}``, both levels sorted."""
        matrix: Dict[str, Dict[str, int]] = {}
        for key, value in self.metrics.get("counters", {}).items():
            base, labels = split_metric_key(key)
            if base == name and "tester" in labels and "engine" in labels:
                matrix.setdefault(labels["tester"], {})[labels["engine"]] = (
                    value
                )
        return {row: dict(sorted(cols.items()))
                for row, cols in sorted(matrix.items())}

    @property
    def distinct_bugs(self) -> List[str]:
        """Triage signatures, else detected fault ids, else none."""
        if self.triage is not None:
            return sorted(self.triage["bugs"])
        return sorted({str(event.get("fault_id"))
                       for event in self._counted("fault")})

    @property
    def service(self) -> Optional[Dict[str, int]]:
        """Lease, job and restart accounting of a service journal."""
        if not self.counts.get("service_start"):
            return None
        count = self.counts.get
        return {
            "leases": count("lease", 0),
            "revoked": count("lease_revoked", 0),
            "jobs": count("job_submitted", 0),
            "jobs_complete": count("job_complete", 0),
            "restarts": count("service_start") - 1,
        }

    @property
    def supervisor(self) -> Dict[str, Any]:
        """Failure, retry and quarantine accounting: every attempt's
        failures, the counted attempts' harness errors."""
        return {
            "failed_by_kind": dict(sorted(self.failed_by_kind.items())),
            "retries": self.counts.get("cell_retry", 0),
            "quarantined": self.counts.get("cell_quarantined", 0),
            "harness_errors": len(self._counted("harness_error")),
            "chaos_truncations": self.counts.get("chaos", 0),
        }
