"""The campaign scheduler: leases, heartbeats, retries, recovery.

Every campaign grid runs on this scheduler: the campaign service (`repro
serve`) and, in process with no HTTP, ``campaign``/``compare`` and every
other :class:`repro.runtime.ParallelCampaignRunner` grid.  Jobs (grid
specs or cell lists) are decomposed into cells, and each cell attempt
runs under one robustness-first state machine:

* **Attempts** — an attempt runs either *in process* (``jobs == 1``, no
  lease length, no chaos: the determinism reference, no worker process)
  or in a *lease worker* process (:mod:`repro.service.worker`) in every
  other case.  Both report through the same sandboxed entry point
  (:func:`repro.runtime.supervisor._run_cell_guarded`).
* **Leases** — a worker attempt is a *lease*, bounded by
  ``lease_seconds`` of wall clock when that is set.  A lease that expires
  is revoked: the worker is terminated and the attempt fails.  Because
  cells are deterministic (the seed lives in the spec), a re-run after
  revocation is byte-identical to an uninterrupted run — revocation can
  cost time, never correctness.  Without a lease length there is no
  deadline of any kind.
* **Heartbeats** — a bounded lease's worker reports a heartbeat every
  ``heartbeat_seconds``; ``heartbeat_misses`` consecutive silent
  intervals revoke the lease early.  This separates "slow but alive"
  (the lease keeps running to its deadline) from "dead or wedged"
  (detected in a few heartbeats, not a full lease).
* **Deterministic retries** — every failed attempt is a ``cell_failed``
  event (kind ``exception``, ``crash`` or ``timeout``); the cell requeues
  with the *same* seed and exponential backoff (``retry_backoff *
  2**(n-1)``, a ``cell_retry`` event) and is quarantined after
  ``cell_retries`` failed retries (``cell_quarantined``: the grid
  completes with an explicit hole).
* **Admission control** — ``capacity`` bounds outstanding (pending +
  leased) cells; a submission that would exceed it raises
  :class:`Backpressure` (HTTP 429 + ``Retry-After`` at the API layer).
* **Graceful drain** — :meth:`drain` stops granting leases; in-flight
  cells finish (or time out against their lease), checkpoints are flushed,
  and the run loop exits cleanly — SIGTERM/SIGINT land here.
* **Crash-consistent journal** — every transition is appended to the
  JSONL journal, ``fsync``'d at cell-completion and job boundaries, and
  the records recovery trusts (:data:`SEALED_EVENT_KINDS`) carry a
  digest.  A scheduler killed with ``kill -9`` mid-grid restarts by
  **replaying the journal** (:func:`replay_service_journal`): completed
  cells are never re-run, interrupted leases simply requeue, and the
  finished grid is byte-identical to an uninterrupted run.  A grid's
  ``--resume LOG`` folds its log through the same replay.

A scheduler given a journal *path* is a service: it recovers from the
journal and brackets its run with ``service_start``/``service_stop``.  One
given an open :class:`~repro.runtime.events.EventLog` runs inside a grid
that owns the log (``grid_start``/``grid_end`` and the barriers).

The scheduler core is synchronous (:meth:`tick`) so it can be driven
deterministically from tests; :meth:`run_async` is the thin asyncio pump
the HTTP server rides on.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.runtime.events import EventLog
from repro.runtime.supervisor import (
    DEFAULT_CHAOS_TIMEOUT,
    DEFAULT_RETRY_BACKOFF,
    ChaosConfig,
    _run_cell_guarded,
    mp_context,
)
from repro.service.spec import JobSpec
from repro.service.worker import lease_worker_main

__all__ = [
    "Backpressure",
    "CampaignScheduler",
    "JournalError",
    "ServiceDraining",
    "replay_service_journal",
]

CellKey = Tuple[str, str, int]

#: Journal records recovery acts on; each carries a ``digest`` of its own
#: content, so a corrupted record is refused instead of trusted.
SEALED_EVENT_KINDS = ("job_submitted", "job_cancelled", "cell_complete",
                      "cell_quarantined")

#: The ``cell_failed`` kind of each lease revocation reason.
_REVOCATION_KINDS = {"worker_exit": "crash", "lease_expired": "timeout",
                     "missed_heartbeat": "timeout"}


class Backpressure(RuntimeError):
    """Admission refused: outstanding cells would exceed capacity."""

    def __init__(self, outstanding: int, capacity: int, retry_after: int):
        super().__init__(
            f"service at capacity: {outstanding} outstanding cell(s) "
            f"of {capacity}; retry in {retry_after}s"
        )
        self.outstanding = outstanding
        self.capacity = capacity
        self.retry_after = retry_after


class ServiceDraining(RuntimeError):
    """Admission refused: the service is draining for shutdown."""


class JournalError(ValueError):
    """A journal record recovery cannot trust: corrupt or inconsistent.

    The message names the record's line and byte offset (or its index,
    for an in-memory event list).
    """


@dataclass
class _Cell:
    """One cell of one job, as the scheduler tracks it."""

    job: str
    key: CellKey
    spec: Dict[str, Any]  # primitives-only worker spec
    status: str = "pending"  # pending|leased|done|quarantined|cancelled
    failures: int = 0  # consumed failed attempts
    attempts: int = 0  # attempts recorded at completion/quarantine
    queries: int = 0  # summary of the completed campaign
    not_before: float = 0.0  # monotonic backoff gate


@dataclass
class _Lease:
    cell: _Cell
    proc: Any
    conn: Any
    attempt: int
    expires: Optional[float]  # monotonic hard deadline, None = unbounded
    beat_deadline: Optional[float]  # revoke early when no heartbeat by then


@dataclass
class _Job:
    id: str
    cells: List[_Cell] = field(default_factory=list)
    status: str = "running"  # running|complete|cancelled


# ---------------------------------------------------------------------------
# Journal replay (crash recovery and grid resume)
# ---------------------------------------------------------------------------


def _digest(event: Dict[str, Any]) -> str:
    """The seal of a journal record: SHA-256 over its canonical line."""
    from repro.core.reporting import event_to_json_line

    body = {key: value for key, value in event.items() if key != "digest"}
    return hashlib.sha256(
        event_to_json_line(body).encode()
    ).hexdigest()[:16]


def replay_service_journal(
    events: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Reconstruct scheduler state from a service journal or grid log.

    Pure fold over the event stream — no wall clock, no I/O — so recovery
    is exactly as deterministic as the journal itself:

    * ``job_submitted`` opens a job (its spec re-derives the cells: same
      decomposition path, same SHA-256 seeds);
    * ``cell_complete`` marks a cell done (last occurrence wins, matching
      :func:`repro.core.reporting.completed_cells_from_events`); every
      checkpoint, with or without a job, also lands in ``cells``, the map
      a grid's ``--resume`` reads;
    * ``cell_quarantined`` marks a quarantine hole;
    * ``cell_failed`` / ``lease_revoked`` count consumed attempts (the
      highest failed attempt number), so a restarted service continues the
      retry/backoff budget instead of resetting it;
    * ``job_cancelled`` drops the job's unfinished cells.

    Leases open at crash time appear as ``lease`` events with no matching
    completion or revocation — their workers died with the scheduler, so
    their cells simply stay pending (the interrupted attempt consumed no
    retry budget: it never *failed*, it was abandoned).

    Undecodable (torn) lines were already skipped by the loader.  A
    decoded record whose digest does not match, or a record naming a job
    the journal never submitted, raises :class:`JournalError` with its
    position: recovery either reproduces the journaled state or refuses.
    """
    positions = getattr(events, "positions", None)
    jobs: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    cells: Dict[CellKey, Dict[str, Any]] = {}
    for index, event in enumerate(events):
        kind = event.get("event")
        if "digest" in event and event["digest"] != _digest(event):
            _refuse(positions, index, f"{kind} record fails its digest check")
        job_id = event.get("job")
        if kind == "job_submitted":
            jobs[job_id] = {
                "index": index,
                "spec": event.get("spec"),
                "cancelled": False,
                "done": {},
                "quarantined": {},
                "failures": {},
            }
            if job_id in order:
                order.remove(job_id)
            order.append(job_id)
            continue
        key = (event.get("tester"), event.get("engine"), event.get("seed"))
        if kind == "cell_complete":
            cells[key] = event
        record = jobs.get(job_id)
        if job_id is None:
            continue
        if record is None:
            _refuse(positions, index,
                    f"{kind} names job {job_id!r}, which the journal "
                    "never submitted")
        if kind == "cell_complete":
            record["done"][key] = {
                "attempts": event.get("attempts", 1),
                "queries": (event.get("campaign") or {}).get(
                    "queries_run", 0
                ),
            }
            record["quarantined"].pop(key, None)
        elif kind == "cell_quarantined":
            record["quarantined"][key] = event.get("attempts", 0)
        elif kind in ("cell_failed", "lease_revoked"):
            if event.get("reason") != "cancelled":
                record["failures"][key] = max(
                    record["failures"].get(key, 0), event.get("attempt", 1)
                )
        elif kind == "job_cancelled":
            record["cancelled"] = True
    return {"order": order, "jobs": jobs, "cells": cells}


def _refuse(positions, index: int, reason: str) -> None:
    if positions is not None:
        line, offset = positions[index]
        where = f"line {line} (byte offset {offset})"
    else:
        where = f"event {index + 1}"
    raise JournalError(f"journal {where}: {reason}")


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class CampaignScheduler:
    """Lease-based campaign scheduler over a crash-consistent journal."""

    def __init__(
        self,
        journal: Union[str, Path, EventLog],
        *,
        jobs: int = 2,
        capacity: int = 256,
        lease_seconds: Optional[float] = 120.0,
        heartbeat_seconds: float = 1.0,
        heartbeat_misses: int = 3,
        cell_retries: int = 2,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        chaos: Optional[Union[ChaosConfig, str]] = None,
        poll_interval: float = 0.05,
    ):
        self.jobs_limit = max(1, int(jobs))
        self.capacity = max(1, int(capacity))
        if chaos is not None and not isinstance(chaos, ChaosConfig):
            chaos = ChaosConfig.parse(chaos)
        self.chaos = chaos
        if lease_seconds is None and chaos is not None:
            # Injected hangs must terminate even without a lease length,
            # or chaos could stall the very grid it tests.
            lease_seconds = DEFAULT_CHAOS_TIMEOUT
        self.lease_seconds = (None if lease_seconds is None
                              else float(lease_seconds))
        self.heartbeat_seconds = max(0.01, float(heartbeat_seconds))
        self.heartbeat_misses = max(1, int(heartbeat_misses))
        self.cell_retries = max(0, int(cell_retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        self.poll_interval = max(0.005, float(poll_interval))
        #: Attempts run in this process: the determinism reference.
        self.in_process = self.jobs_limit == 1 and self.lease_seconds is None
        self.draining = False
        self.drain_reason: Optional[str] = None
        self._stopped = False
        self._context = mp_context()
        self._jobs: Dict[str, _Job] = {}
        self._order: List[str] = []
        self._pending: List[_Cell] = []
        self._leases: List[_Lease] = []
        self._serial = 1

        self._service = not isinstance(journal, EventLog)
        if not self._service:
            self._log = journal
            return
        self.journal_path = Path(journal)
        recovered = self._recover()
        self._log = EventLog(self.journal_path, record_queries=True,
                             record_spans=True)
        self._log.emit(
            "service_start",
            jobs=self.jobs_limit,
            capacity=self.capacity,
            lease_seconds=self.lease_seconds,
            heartbeat_seconds=self.heartbeat_seconds,
            heartbeat_misses=self.heartbeat_misses,
            cell_retries=self.cell_retries,
            recovered_jobs=recovered["jobs"],
            resumed_cells=recovered["resumed"],
            pending_cells=len(self._pending),
        )
        self._log.sync()

    # -- recovery ---------------------------------------------------------

    def _recover(self) -> Dict[str, int]:
        """Rebuild jobs/cells from an existing journal (crash restart)."""
        if not self.journal_path.exists():
            return {"jobs": 0, "resumed": 0}
        from repro.core.reporting import load_event_stream

        events = load_event_stream(self.journal_path)
        state = replay_service_journal(events)
        resumed = 0
        for job_id in state["order"]:
            serial = str(job_id).rsplit("-", 1)[-1]
            if serial.isdigit():
                self._serial = max(self._serial, int(serial) + 1)
            record = state["jobs"][job_id]
            if record["spec"] is None:
                continue  # A grid's cell list: its grid resumes it.
            try:
                specs = JobSpec.from_dict(record["spec"]).worker_specs()
            except ValueError as exc:
                _refuse(events.positions, record["index"],
                        f"job {job_id} has an invalid spec ({exc})")
            job = self._admit(job_id, specs)
            for cell in job.cells:
                done = record["done"].get(cell.key)
                if done is not None:
                    cell.status = "done"
                    cell.attempts = done["attempts"]
                    cell.queries = done["queries"]
                    resumed += 1
                elif record["cancelled"]:
                    cell.status = "cancelled"
                elif cell.key in record["quarantined"]:
                    cell.status = "quarantined"
                    cell.attempts = record["quarantined"][cell.key]
                else:
                    cell.failures = record["failures"].get(cell.key, 0)
            self._pending.extend(c for c in job.cells
                                 if c.status == "pending")
            if record["cancelled"]:
                job.status = "cancelled"
            elif all(c.status in ("done", "quarantined")
                     for c in job.cells):
                job.status = "complete"
        return {"jobs": len(self._order), "resumed": resumed}

    # -- admission --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Cells admitted but not yet terminal (pending + leased)."""
        return len(self._pending) + len(self._leases)

    def submit(
        self, spec: Union[JobSpec, Dict[str, Any], List[Dict[str, Any]]]
    ) -> Dict[str, Any]:
        """Admit one job; returns its record.  Raises on refusal.

        *spec* is a :class:`JobSpec`, its wire dict, or a grid's list of
        ``_run_cell`` worker specs (:meth:`CampaignCell.worker_spec`).

        :class:`ValueError` — malformed spec (HTTP 400);
        :class:`ServiceDraining` — shutting down (HTTP 503);
        :class:`Backpressure` — over capacity (HTTP 429 + Retry-After).
        The job is acknowledged only after its ``job_submitted`` journal
        line is fsync'd, so an accepted job survives any later crash.
        """
        if self.draining:
            raise ServiceDraining("service is draining; not accepting jobs")
        if isinstance(spec, list):
            specs, wire = spec, None
        else:
            if not isinstance(spec, JobSpec):
                spec = JobSpec.from_dict(spec)
            specs, wire = spec.worker_specs(), spec.to_dict()
        outstanding = self.outstanding
        if outstanding + len(specs) > self.capacity:
            raise Backpressure(
                outstanding, self.capacity, self._retry_after(len(specs))
            )
        job = self._admit(f"job-{self._serial:04d}", specs)
        self._serial += 1
        self._pending.extend(job.cells)
        self._emit("job_submitted", job=job.id, spec=wire,
                   cells=[list(cell.key) for cell in job.cells])
        self._log.sync()
        return self.job_record(job.id)

    def _admit(self, job_id: str, specs: List[Dict[str, Any]]) -> _Job:
        """Register a job of ``_run_cell`` worker specs; cells pending."""
        job = _Job(id=job_id, cells=[
            _Cell(job=job_id, spec=spec,
                  key=(spec["tester"], spec["engine"], spec["seed"]))
            for spec in specs
        ])
        self._jobs[job_id] = job
        self._order.append(job_id)
        return job

    def _retry_after(self, requested: int) -> int:
        """A deterministic Retry-After hint, scaled to the backlog.

        Rough model: the backlog drains one lease per worker slot per
        lease period in the worst case; clamp to something a polite client
        can actually sleep.
        """
        backlog = self.outstanding + requested - self.capacity
        period = max(1.0, min(self.lease_seconds or 30.0, 30.0))
        return max(1, min(120, math.ceil(
            backlog * period / self.jobs_limit
        )))

    # -- introspection ----------------------------------------------------

    def job_record(self, job_id: str) -> Optional[Dict[str, Any]]:
        job = self._jobs.get(job_id)
        if job is None:
            return None
        counts = {"pending": 0, "leased": 0, "done": 0,
                  "quarantined": 0, "cancelled": 0}
        cells = []
        for cell in job.cells:
            counts[cell.status] += 1
            tester, engine, seed = cell.key
            cells.append({
                "tester": tester, "engine": engine, "seed": seed,
                "status": cell.status,
                "attempts": cell.attempts or cell.failures,
                "queries": cell.queries,
            })
        return {
            "job": job.id,
            "status": job.status,
            "cells": cells,
            "counts": counts,
        }

    def jobs_overview(self) -> List[Dict[str, Any]]:
        overview = []
        for job_id in self._order:
            record = self.job_record(job_id)
            record.pop("cells")
            overview.append(record)
        return overview

    def stats(self) -> Dict[str, Any]:
        return {
            "jobs": len(self._jobs),
            "pending": len(self._pending),
            "leased": len(self._leases),
            "outstanding": self.outstanding,
            "capacity": self.capacity,
            "workers": self.jobs_limit,
            "draining": self.draining,
        }

    @property
    def idle(self) -> bool:
        """No admitted work left to do (drained or simply caught up)."""
        return not self._pending and not self._leases

    @property
    def finished(self) -> bool:
        """Draining and every in-flight lease has landed — time to exit."""
        return self.draining and not self._leases

    # -- cancellation and drain -------------------------------------------

    def cancel(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Cancel a job: drop its queue, revoke its leases, keep results."""
        job = self._jobs.get(job_id)
        if job is None:
            return None
        if job.status == "running":
            dropped = revoked = 0
            for cell in job.cells:
                if cell.status == "pending":
                    cell.status = "cancelled"
                    dropped += 1
            self._pending = [c for c in self._pending if c.job != job_id]
            for lease in list(self._leases):
                if lease.cell.job != job_id:
                    continue
                self._terminate(lease)
                self._leases.remove(lease)
                lease.cell.status = "cancelled"
                revoked += 1
                self._emit_cell(
                    "lease_revoked", lease.cell,
                    attempt=lease.attempt, reason="cancelled",
                    will_retry=False, backoff=0.0,
                )
            job.status = "cancelled"
            self._emit("job_cancelled", job=job_id,
                       dropped=dropped, revoked=revoked)
            self._log.sync()
        return self.job_record(job_id)

    def drain(self, reason: str = "drain") -> None:
        """Stop leasing; let in-flight cells finish or time out, then stop."""
        if self.draining:
            return
        self.draining = True
        self.drain_reason = reason
        self._log.emit("service_drain", reason=reason,
                       pending=len(self._pending),
                       leased=len(self._leases))
        self._log.sync()

    # -- the tick ---------------------------------------------------------

    def tick(self, now: Optional[float] = None) -> None:
        """One scheduling round: reap messages, enforce deadlines, lease."""
        if self._stopped:
            return
        if now is None:
            now = time.monotonic()
        self._reap(now)
        if not self.draining:
            self._grant(now)
        self._complete_jobs()
        if self.finished:
            self._stop()

    def _reap(self, now: float) -> None:
        survivors: List[_Lease] = []
        for lease in self._leases:
            if self._drain_messages(lease, now):
                continue
            # Before revoking, drain any result racing the exit or the
            # deadline: a result that arrived in time wins.
            if not lease.proc.is_alive():
                if not self._drain_messages(lease, now, grace=0.05):
                    self._revoke(lease, "worker_exit", now)
            elif lease.expires is not None and now >= lease.expires:
                if not self._drain_messages(lease, now, grace=0.05):
                    self._revoke(lease, "lease_expired", now)
            elif (lease.beat_deadline is not None
                  and now >= lease.beat_deadline):
                if not self._drain_messages(lease, now, grace=0.05):
                    self._revoke(lease, "missed_heartbeat", now)
            else:
                survivors.append(lease)
        self._leases = survivors

    def _drain_messages(self, lease: _Lease, now: float,
                        grace: float = 0.0) -> bool:
        """Pump one lease's pipe; True when the lease settled (result)."""
        while True:
            try:
                if not lease.conn.poll(grace):
                    return False
                message = lease.conn.recv()
            except (EOFError, OSError):
                return False
            grace = 0.0
            if message.get("type") == "heartbeat":
                lease.beat_deadline = now + (
                    self.heartbeat_seconds * self.heartbeat_misses
                )
                self._emit_cell("heartbeat", lease.cell,
                                attempt=lease.attempt)
                continue
            if message.get("type") == "result":
                self._terminate(lease, join_only=True)
                self._settle(lease.cell, lease.attempt, message, now)
                return True

    def _revoke(self, lease: _Lease, reason: str, now: float) -> None:
        """A dead/silent/overdue lease: revoke, then retry or quarantine."""
        self._terminate(lease)
        if reason == "worker_exit":
            error = (f"worker exited with code {lease.proc.exitcode} "
                     "before reporting a result")
        elif reason == "lease_expired":
            error = (f"cell exceeded the {self.lease_seconds:g}s watchdog "
                     "timeout; worker terminated")
        else:
            error = (f"no heartbeat for {self.heartbeat_misses} x "
                     f"{self.heartbeat_seconds:g}s; worker terminated")
        self._fail(lease.cell, now, _REVOCATION_KINDS[reason], error,
                   revoked=reason)

    def _settle(self, cell: _Cell, attempt: int, payload: Dict[str, Any],
                now: float) -> None:
        """An attempt reported a result (success or sandboxed failure)."""
        if cell.status != "leased":
            return  # Late duplicate after cancel/revoke: drop it.
        if payload.get("status") != "ok":
            self._fail(cell, now, "exception", payload.get("error", "?"),
                       payload.get("traceback_tail", ""))
            return
        cell.status = "done"
        cell.attempts = attempt
        campaign = payload["campaign"]
        cell.queries = campaign.get("queries_run", 0)
        self._log.extend(payload.get("events") or [])
        self._emit_cell("cell_complete", cell, attempts=attempt,
                        campaign=campaign)
        # Durability boundary: a completed cell survives kill -9.
        self._log.sync()
        if (self.chaos is not None and self._log.path is not None
                and self.chaos.truncates(cell.key)):
            self._truncate_tail(cell)

    def _fail(self, cell: _Cell, now: float, kind: str, error: str,
              tail: str = "", revoked: Optional[str] = None) -> None:
        """One failed attempt: journal it, then retry or quarantine."""
        cell.failures += 1
        attempt = cell.failures
        will_retry = attempt <= self.cell_retries
        backoff = (self.retry_backoff * 2 ** (attempt - 1)
                   if will_retry else 0.0)
        if revoked is not None:
            self._emit_cell("lease_revoked", cell, attempt=attempt,
                            reason=revoked, will_retry=will_retry,
                            backoff=backoff)
        self._emit_cell("cell_failed", cell, attempt=attempt, kind=kind,
                        error=error, traceback_tail=tail,
                        will_retry=will_retry)
        if will_retry:
            cell.status = "pending"
            cell.not_before = now + backoff
            self._pending.append(cell)
            self._emit_cell("cell_retry", cell, next_attempt=attempt + 1,
                            backoff=backoff)
        else:
            cell.status = "quarantined"
            cell.attempts = attempt
            self._emit_cell("cell_quarantined", cell, attempts=attempt)
            self._log.sync()

    def _grant(self, now: float) -> None:
        if not self._pending or len(self._leases) >= self.jobs_limit:
            return
        ready = [c for c in self._pending if c.not_before <= now]
        for cell in ready:
            if len(self._leases) >= self.jobs_limit:
                break
            self._pending.remove(cell)
            if self.in_process:
                # One attempt per tick, so predicates and drains are
                # checked between cells.
                cell.status = "leased"
                attempt = cell.failures + 1
                payload = _run_cell_guarded({
                    "key": list(cell.key), "spec": cell.spec,
                    "attempt": attempt,
                })
                self._settle(cell, attempt, payload, time.monotonic())
                return
            self._leases.append(self._lease(cell, now))

    def _lease(self, cell: _Cell, now: float) -> _Lease:
        attempt = cell.failures + 1
        bounded = self.lease_seconds is not None
        task: Dict[str, Any] = {
            "key": list(cell.key),
            "spec": cell.spec,
            "attempt": attempt,
            # Heartbeats matter only against a deadline.
            "heartbeat_seconds": self.heartbeat_seconds if bounded else None,
        }
        if self.chaos is not None:
            directive = self.chaos.directive(cell.key, attempt)
            if directive is not None:
                task["chaos"] = directive
                task["hang_seconds"] = self.chaos.hang_seconds
            if self.chaos.heartbeat_stall(cell.key, attempt):
                task["stall_heartbeats"] = True
        parent_conn, child_conn = self._context.Pipe(duplex=False)
        proc = self._context.Process(
            target=lease_worker_main, args=(child_conn, task), daemon=True
        )
        proc.start()
        child_conn.close()
        cell.status = "leased"
        self._emit_cell(
            "lease", cell, attempt=attempt, pid=proc.pid,
            lease_seconds=self.lease_seconds,
        )
        grace = self.heartbeat_seconds * self.heartbeat_misses
        return _Lease(
            cell=cell, proc=proc, conn=parent_conn, attempt=attempt,
            expires=now + self.lease_seconds if bounded else None,
            # First-beat grace includes process start-up.
            beat_deadline=(now + grace + self.heartbeat_seconds
                           if bounded else None),
        )

    def _complete_jobs(self) -> None:
        for job_id in self._order:
            job = self._jobs[job_id]
            if job.status != "running":
                continue
            if all(c.status in ("done", "quarantined")
                   for c in job.cells):
                job.status = "complete"
                self._log.emit(
                    "job_complete",
                    job=job_id,
                    completed=sum(1 for c in job.cells
                                  if c.status == "done"),
                    quarantined=sum(1 for c in job.cells
                                    if c.status == "quarantined"),
                )
                self._log.sync()

    # -- lifecycle --------------------------------------------------------

    def _terminate(self, lease: _Lease, join_only: bool = False) -> None:
        if not join_only and lease.proc.is_alive():
            lease.proc.terminate()
            lease.proc.join(1.0)
            if lease.proc.is_alive():
                lease.proc.kill()
        lease.proc.join(5.0)
        try:
            lease.conn.close()
        except OSError:
            pass

    def _truncate_tail(self, cell: _Cell, nbytes: int = 32) -> None:
        """Chaos: tear the checkpoint line just written (torn-write sim).

        The in-memory log (and hence this run's results) keeps the full
        event; only a later recovery sees the torn line, skips it, and
        re-runs the cell.
        """
        path = self._log.path
        size = path.stat().st_size
        if size <= nbytes:
            return
        with open(path, "r+b") as handle:
            handle.truncate(size - nbytes)
            # Real torn writes end without a newline and nothing follows;
            # here the run continues, so terminate the torn line to keep
            # subsequent appends parseable.
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")
        self._emit_cell("chaos", cell, action="truncate_tail")

    def _stop(self) -> None:
        if self._stopped:
            return
        self._stopped = True
        self._log.emit("service_stop", pending=len(self._pending),
                       reason=self.drain_reason or "drain")
        self._log.sync()
        self._log.close()

    def close(self) -> None:
        """Release every resource without journaling a clean stop.

        Reaps in-flight lease workers (an interrupted grid must not leak
        them) and closes a service's journal.  Tests use it to simulate an
        abrupt scheduler death: ``kill -9`` never runs this either — but
        leaked worker processes would outlive the test.
        """
        for lease in self._leases:
            self._terminate(lease)
        self._leases = []
        if self._service:
            self._log.close()

    def _emit(self, kind: str, /, **payload: Any) -> None:
        """Journal one event, sealing the kinds recovery acts on."""
        if kind in SEALED_EVENT_KINDS:
            payload["digest"] = _digest({"event": kind, **payload})
        self._log.emit(kind, **payload)

    def _emit_cell(self, kind: str, cell: _Cell, /, **payload: Any) -> None:
        tester, engine, seed = cell.key
        self._emit(kind, job=cell.job, tester=tester, engine=engine,
                   seed=seed, **payload)

    # -- pumps ------------------------------------------------------------

    def run_until(self, predicate=None,
                  timeout: Optional[float] = 60.0) -> None:
        """Drive ticks until *predicate* (default: idle) or *timeout*
        seconds (None: no limit)."""
        if predicate is None:
            predicate = lambda: self.idle  # noqa: E731
        deadline = None if timeout is None else time.monotonic() + timeout
        while deadline is None or time.monotonic() < deadline:
            self.tick()
            if predicate():
                return
            self._wait()
        raise TimeoutError("scheduler did not reach the requested state")

    def _wait(self) -> None:
        """Block until a lease reports or exits, or one poll interval."""
        if self._leases:
            from multiprocessing.connection import wait

            wait([lease.conn for lease in self._leases]
                 + [lease.proc.sentinel for lease in self._leases],
                 self.poll_interval)
            return
        now = time.monotonic()
        gates = [cell.not_before - now for cell in self._pending]
        if not gates or min(gates) > 0:
            time.sleep(min([self.poll_interval] + gates))

    async def run_async(self) -> None:
        """The asyncio pump: tick until drained, then stop cleanly."""
        import asyncio

        try:
            while not self._stopped:
                self.tick()
                if self._stopped:
                    break
                await asyncio.sleep(self.poll_interval)
        finally:
            if not self._stopped:
                self.close()
