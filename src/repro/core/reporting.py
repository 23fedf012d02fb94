"""Campaign persistence: bug reports, campaign results, event streams.

The paper's artifact ships its bug reports (query, expected result, actual
result, affected engine) as the unit of communication with developers; this
module provides the same artifact as JSON, plus round-tripping so stored
campaigns can be re-analyzed (e.g. re-rendering the §5.3 figures without
re-running the campaign).

It also owns the JSONL serialization of the :mod:`repro.runtime` event
stream.  A grid run appends one ``cell_complete`` event (embedding the full
campaign via :func:`campaign_to_dict`) per finished (tester, engine, seed)
cell; :func:`completed_cells_from_events` recovers those checkpoints so an
interrupted grid resumes from the last completed cell.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.runtime.results import BugReport, CampaignResult

__all__ = [
    "report_to_dict",
    "report_from_dict",
    "campaign_to_dict",
    "campaign_from_dict",
    "save_campaign",
    "load_campaign",
    "event_to_json_line",
    "save_event_stream",
    "EventStream",
    "load_event_stream",
    "decode_event_line",
    "completed_cells_from_events",
]


def report_to_dict(report: BugReport) -> Dict[str, Any]:
    """JSON-ready representation of one bug report."""
    return {
        "tester": report.tester,
        "engine": report.engine,
        "kind": report.kind,
        "detail": report.detail,
        "query": report.query_text,
        "fault_id": report.fault_id,
        "sim_time": report.sim_time,
        "n_steps": report.n_steps,
    }


def report_from_dict(data: Dict[str, Any]) -> BugReport:
    return BugReport(
        tester=data["tester"],
        engine=data["engine"],
        kind=data["kind"],
        detail=data["detail"],
        query_text=data["query"],
        fault_id=data.get("fault_id"),
        sim_time=data.get("sim_time", 0.0),
        n_steps=data.get("n_steps", 0),
    )


def campaign_to_dict(result: CampaignResult) -> Dict[str, Any]:
    """JSON-ready representation of a full campaign."""
    return {
        "tester": result.tester,
        "engine": result.engine,
        "queries_run": result.queries_run,
        "sim_seconds": result.sim_seconds,
        "reports": [report_to_dict(report) for report in result.reports],
        "timeline": [[when, fault_id] for when, fault_id in result.timeline],
        "trigger_records": result.trigger_records,
        "harness_errors": result.harness_errors,
    }


def campaign_from_dict(data: Dict[str, Any]) -> CampaignResult:
    result = CampaignResult(data["tester"], data["engine"])
    result.queries_run = data["queries_run"]
    result.sim_seconds = data["sim_seconds"]
    result.reports = [report_from_dict(item) for item in data["reports"]]
    result.timeline = [(when, fault_id) for when, fault_id in data["timeline"]]
    result.trigger_records = list(data.get("trigger_records", []))
    result.harness_errors = data.get("harness_errors", 0)
    return result


def save_campaign(result: CampaignResult, path: Union[str, Path]) -> None:
    """Write a campaign to *path* as JSON."""
    Path(path).write_text(
        json.dumps(campaign_to_dict(result), indent=2, sort_keys=True)
    )


def load_campaign(path: Union[str, Path]) -> CampaignResult:
    """Read a campaign previously written by :func:`save_campaign`."""
    return campaign_from_dict(json.loads(Path(path).read_text()))


# ---------------------------------------------------------------------------
# Event streams (the repro.runtime JSONL checkpoint format)
# ---------------------------------------------------------------------------


def event_to_json_line(event: Dict[str, Any]) -> str:
    """One event as a single compact JSON line (no newline appended)."""
    return json.dumps(event, sort_keys=True, separators=(",", ":"))


def save_event_stream(
    events: Iterable[Dict[str, Any]], path: Union[str, Path], append: bool = False
) -> None:
    """Write *events* to *path* as JSONL."""
    mode = "a" if append else "w"
    with Path(path).open(mode, encoding="utf-8") as handle:
        for event in events:
            handle.write(event_to_json_line(event) + "\n")


class EventStream(List[Dict[str, Any]]):
    """A loaded event list that also remembers how many lines were torn.

    Behaves exactly like the plain list every existing caller expects;
    ``skipped`` carries the count of undecodable (torn/truncated) lines and
    ``skipped_lines`` pins each one down (``{"offset": byte_offset,
    "length": bytes}``) so consumers such as ``repro stats`` can say *where*
    the log lost data instead of silently under-counting.  ``positions``
    holds each event's ``(line number, byte offset)``, for diagnostics
    that name a record.
    """

    skipped: int = 0
    skipped_lines: List[Dict[str, int]] = []
    positions: List[Tuple[int, int]] = []


def load_event_stream(path: Union[str, Path]) -> EventStream:
    """Read a JSONL event stream, skipping blank/truncated trailing lines.

    Tolerating a torn final line matters: resumable logs are written by
    runs that may be killed mid-write.  Every skipped line is recorded on
    the returned :class:`EventStream` with its byte offset and length
    (``.skipped_lines``); ``.skipped`` keeps the plain count.
    """
    events = EventStream()
    skipped_lines: List[Dict[str, int]] = []
    positions: List[Tuple[int, int]] = []
    offset = 0
    lines = Path(path).read_bytes().split(b"\n")
    # A final line with no terminating newline is a write in progress (or
    # the stump of one killed mid-write): never parse it, even when it
    # happens to be complete JSON — the live follower buffers exactly the
    # same bytes, keeping loader and follower byte-for-byte in agreement.
    tail = lines.pop()
    for number, raw in enumerate(lines, start=1):
        line = raw.strip()
        if line:
            event = decode_event_line(line)
            if event is None:
                skipped_lines.append(
                    {"offset": offset, "length": len(raw)}
                )
            else:
                events.append(event)
                positions.append((number, offset))
        offset += len(raw) + 1
    if tail.strip():
        skipped_lines.append({"offset": offset, "length": len(tail)})
    events.skipped = len(skipped_lines)
    events.skipped_lines = skipped_lines
    events.positions = positions
    return events


def decode_event_line(line: bytes) -> Optional[Dict[str, Any]]:
    """One JSONL record as an event dict; None when it is not one (torn)."""
    try:
        event = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    return event if isinstance(event, dict) else None


def completed_cells_from_events(
    events: Iterable[Dict[str, Any]],
) -> Dict[Tuple[str, str, int], CampaignResult]:
    """Recover checkpointed grid cells from an event stream.

    Returns ``{(tester, engine, seed): CampaignResult}`` for every cell the
    scheduler's journal replay
    (:func:`repro.service.scheduler.replay_service_journal`) finds
    checkpointed.  The last ``cell_complete`` of a cell wins, so a log
    holding several partial runs resumes from the freshest checkpoint; a
    sealed record whose digest fails raises
    :class:`~repro.service.scheduler.JournalError` with its position.
    """
    from repro.service.scheduler import replay_service_journal

    cells = replay_service_journal(events)["cells"]
    return {key: campaign_from_dict(event["campaign"])
            for key, event in cells.items()}
