"""The fault-tolerant campaign scheduler: leases, heartbeats, recovery.

This is the load-bearing half of the campaign service (`repro serve`).
Jobs (grid specs) are decomposed into cells; cells are dispatched to a
pool of lease-worker processes under a robustness-first state machine:

* **Leases** — every dispatch is a time-bounded *lease* (``lease_seconds``
  wall clock).  A lease that expires is revoked: the worker is terminated
  and the cell goes back to the queue.  Because cells are deterministic
  (the seed lives in the spec), a re-run after revocation is byte-identical
  to an uninterrupted run — revocation can cost time, never correctness.
* **Heartbeats** — lease workers report a heartbeat every
  ``heartbeat_seconds``; ``heartbeat_misses`` consecutive silent intervals
  revoke the lease early.  This separates "slow but alive" (lease keeps
  running to its deadline) from "dead or wedged" (detected in a few
  heartbeats, not a full lease).
* **Deterministic retries** — a revoked or failed cell requeues with the
  *same* seed and exponential backoff (``retry_backoff * 2**(n-1)``), and
  is quarantined after ``cell_retries`` failed attempts — the PR 5
  supervisor semantics, lifted to the service tier.
* **Admission control** — ``capacity`` bounds outstanding (pending +
  leased) cells; a submission that would exceed it raises
  :class:`Backpressure` (HTTP 429 + ``Retry-After`` at the API layer).
* **Graceful drain** — :meth:`drain` stops granting leases; in-flight
  cells finish (or time out against their lease), checkpoints are flushed,
  and the run loop exits cleanly — SIGTERM/SIGINT land here.
* **Crash-consistent journal** — every transition (submit, lease,
  heartbeat, revoke, fail, retry, complete, quarantine, job completion,
  drain) is appended to the JSONL journal, and the journal is ``fsync``'d
  at cell-completion and job boundaries.  A scheduler killed with
  ``kill -9`` mid-grid restarts by **replaying the journal**
  (:func:`replay_service_journal`): completed cells are never re-run,
  interrupted leases simply requeue, and the finished grid is
  byte-identical to an uninterrupted single-process run.

The scheduler core is synchronous (:meth:`tick`) so it can be driven
deterministically from tests; :meth:`run_async` is the thin asyncio pump
the HTTP server rides on.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.runtime.events import EventLog
from repro.runtime.supervisor import (
    DEFAULT_RETRY_BACKOFF,
    ChaosConfig,
    mp_context,
)
from repro.service.spec import JobSpec
from repro.service.worker import lease_worker_main

__all__ = [
    "Backpressure",
    "CampaignScheduler",
    "ServiceDraining",
    "replay_service_journal",
]

CellKey = Tuple[str, str, int]

#: Journal event kinds introduced by the service tier (all tolerated —
#: and simply carried — by every pre-existing event-stream consumer).
SERVICE_EVENT_KINDS = (
    "service_start", "job_submitted", "lease", "heartbeat",
    "lease_revoked", "job_complete", "job_cancelled", "service_drain",
    "service_stop",
)


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


@dataclass
class _Cell:
    """One cell of one job, as the scheduler tracks it."""

    job: str
    key: CellKey
    spec: Dict[str, Any]  # primitives-only worker spec
    status: str = "pending"  # pending|leased|done|quarantined|cancelled
    failures: int = 0  # consumed failed attempts (leases that died)
    attempts: int = 0  # attempts recorded at completion/quarantine
    queries: int = 0  # summary of the completed campaign
    not_before: float = 0.0  # monotonic backoff gate


@dataclass
class _Lease:
    cell: _Cell
    proc: Any
    conn: Any
    attempt: int
    expires: float  # monotonic hard deadline (granted + lease_seconds)
    beat_deadline: float  # revoke early when no heartbeat by this time


@dataclass
class _Job:
    id: str
    spec: JobSpec
    cells: List[_Cell] = field(default_factory=list)
    status: str = "running"  # running|complete|cancelled


# ---------------------------------------------------------------------------
# Journal replay (crash recovery)
# ---------------------------------------------------------------------------


def replay_service_journal(
    events: Iterable[Dict[str, Any]],
) -> Dict[str, Any]:
    """Reconstruct scheduler state from a service journal.

    Pure fold over the event stream — no wall clock, no I/O — so recovery
    is exactly as deterministic as the journal itself:

    * ``job_submitted`` re-derives the job's cells from its spec (same
      decomposition path, same SHA-256 seeds);
    * ``cell_complete`` marks a cell done (last occurrence wins, matching
      :func:`repro.core.reporting.completed_cells_from_events`);
    * ``cell_quarantined`` marks a quarantine hole;
    * ``cell_failed`` / ``lease_revoked`` count consumed attempts, so a
      restarted service continues the retry/backoff budget instead of
      resetting it;
    * ``job_cancelled`` drops the job's unfinished cells.

    Leases open at crash time appear as ``lease`` events with no matching
    completion or revocation — their workers died with the scheduler, so
    their cells simply stay pending (the interrupted attempt consumed no
    retry budget: it never *failed*, it was abandoned).
    """
    jobs: Dict[str, Dict[str, Any]] = {}
    order: List[str] = []
    for event in events:
        kind = event.get("event")
        job_id = event.get("job")
        if kind == "job_submitted":
            jobs[job_id] = {
                "spec": event["spec"],
                "cancelled": False,
                "done": {},
                "quarantined": {},
                "failures": {},
            }
            if job_id in order:
                order.remove(job_id)
            order.append(job_id)
            continue
        record = jobs.get(job_id)
        if record is None:
            continue
        key = (event.get("tester"), event.get("engine"), event.get("seed"))
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
                record["failures"][key] = (
                    record["failures"].get(key, 0) + 1
                )
        elif kind == "job_cancelled":
            record["cancelled"] = True
    return {"order": order, "jobs": jobs}


# ---------------------------------------------------------------------------
# The scheduler
# ---------------------------------------------------------------------------


class CampaignScheduler:
    """Lease-based campaign scheduler over a crash-consistent journal."""

    def __init__(
        self,
        journal: Union[str, Any],
        *,
        jobs: int = 2,
        capacity: int = 256,
        lease_seconds: float = 120.0,
        heartbeat_seconds: float = 1.0,
        heartbeat_misses: int = 3,
        cell_retries: int = 2,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        chaos: Optional[Union[ChaosConfig, str]] = None,
        poll_interval: float = 0.05,
    ):
        from pathlib import Path

        self.journal_path = Path(journal)
        self.jobs_limit = max(1, int(jobs))
        self.capacity = max(1, int(capacity))
        self.lease_seconds = float(lease_seconds)
        self.heartbeat_seconds = max(0.01, float(heartbeat_seconds))
        self.heartbeat_misses = max(1, int(heartbeat_misses))
        self.cell_retries = max(0, int(cell_retries))
        self.retry_backoff = max(0.0, float(retry_backoff))
        if chaos is not None and not isinstance(chaos, ChaosConfig):
            chaos = ChaosConfig.parse(chaos)
        self.chaos = chaos
        self.poll_interval = max(0.005, float(poll_interval))
        self.draining = False
        self.drain_reason: Optional[str] = None
        self._stopped = False
        self._context = mp_context()
        self._jobs: Dict[str, _Job] = {}
        self._order: List[str] = []
        self._pending: List[_Cell] = []
        self._leases: List[_Lease] = []
        self._serial = 1

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

        state = replay_service_journal(load_event_stream(self.journal_path))
        resumed = 0
        for job_id in state["order"]:
            record = state["jobs"][job_id]
            try:
                spec = JobSpec.from_dict(record["spec"])
                cells = spec.cells()
            except ValueError:
                continue  # Journal from a newer/older spec dialect.
            job = _Job(id=job_id, spec=spec)
            for cell_obj in cells:
                cell = _Cell(job=job_id, key=cell_obj.key,
                             spec=cell_obj.worker_spec())
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
                    self._pending.append(cell)
                job.cells.append(cell)
            if record["cancelled"]:
                job.status = "cancelled"
            elif all(c.status in ("done", "quarantined")
                     for c in job.cells):
                job.status = "complete"
            self._jobs[job_id] = job
            self._order.append(job_id)
            serial_part = job_id.rsplit("-", 1)[-1]
            if serial_part.isdigit():
                self._serial = max(self._serial, int(serial_part) + 1)
        return {"jobs": len(self._order), "resumed": resumed}

    # -- admission --------------------------------------------------------

    @property
    def outstanding(self) -> int:
        """Cells admitted but not yet terminal (pending + leased)."""
        return len(self._pending) + len(self._leases)

    def submit(self, spec: Union[JobSpec, Dict[str, Any]]) -> Dict[str, Any]:
        """Admit one job; returns its record.  Raises on refusal.

        :class:`ValueError` — malformed spec (HTTP 400);
        :class:`ServiceDraining` — shutting down (HTTP 503);
        :class:`Backpressure` — over capacity (HTTP 429 + Retry-After).
        The job is acknowledged only after its ``job_submitted`` journal
        line is fsync'd, so an accepted job survives any later crash.
        """
        if self.draining:
            raise ServiceDraining("service is draining; not accepting jobs")
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        cells = spec.cells()
        outstanding = self.outstanding
        if outstanding + len(cells) > self.capacity:
            raise Backpressure(
                outstanding, self.capacity, self._retry_after(len(cells))
            )
        job_id = f"job-{self._serial:04d}"
        self._serial += 1
        job = _Job(id=job_id, spec=spec)
        for cell_obj in cells:
            cell = _Cell(job=job_id, key=cell_obj.key,
                         spec=cell_obj.worker_spec())
            job.cells.append(cell)
            self._pending.append(cell)
        self._jobs[job_id] = job
        self._order.append(job_id)
        self._log.emit(
            "job_submitted",
            job=job_id,
            spec=spec.to_dict(),
            cells=[list(cell.key) for cell in job.cells],
        )
        self._log.sync()
        return self.job_record(job_id)

    def _retry_after(self, requested: int) -> int:
        """A deterministic Retry-After hint, scaled to the backlog.

        Rough model: the backlog drains one lease per worker slot per
        lease period in the worst case; clamp to something a polite client
        can actually sleep.
        """
        backlog = self.outstanding + requested - self.capacity
        period = max(1.0, min(self.lease_seconds, 30.0))
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
            self._log.emit("job_cancelled", job=job_id,
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
            settled = self._drain_messages(lease, now)
            if settled:
                continue
            if not lease.proc.is_alive():
                # The process exited; drain any result racing the exit
                # before declaring the worker dead (same race guard as
                # supervisor slot mode).
                if self._drain_messages(lease, now, grace=0.05):
                    continue
                self._revoke(lease, "worker_exit", now)
            elif now >= lease.expires:
                if self._drain_messages(lease, now, grace=0.05):
                    continue  # Result beat the deadline: the lease wins.
                self._revoke(lease, "lease_expired", now)
            elif now >= lease.beat_deadline:
                if self._drain_messages(lease, now, grace=0.05):
                    continue
                self._revoke(lease, "missed_heartbeat", now)
            else:
                survivors.append(lease)
        self._leases = survivors
        # _revoke/_settle removed nothing from self._leases themselves;
        # rebuild keeps only live leases.

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
                self._settle(lease, message, now)
                return True

    def _revoke(self, lease: _Lease, reason: str, now: float) -> None:
        """A dead/silent/overdue lease: revoke, then retry or quarantine."""
        self._terminate(lease)
        cell = lease.cell
        cell.failures += 1
        attempt = cell.failures
        will_retry = attempt <= self.cell_retries
        backoff = (self.retry_backoff * 2 ** (attempt - 1)
                   if will_retry else 0.0)
        self._emit_cell(
            "lease_revoked", cell, attempt=attempt, reason=reason,
            will_retry=will_retry, backoff=backoff,
        )
        self._after_failure(cell, attempt, will_retry, backoff, now)

    def _settle(self, lease: _Lease, payload: Dict[str, Any],
                now: float) -> None:
        """A worker reported a result (success or sandboxed failure)."""
        self._terminate(lease, join_only=True)
        cell = lease.cell
        if cell.status != "leased":
            return  # Late duplicate after cancel/revoke: drop it.
        if payload.get("status") == "ok":
            cell.status = "done"
            cell.attempts = lease.attempt
            campaign = payload["campaign"]
            cell.queries = campaign.get("queries_run", 0)
            self._log.extend(payload.get("events") or [])
            self._emit_cell(
                "cell_complete", cell, attempts=lease.attempt,
                campaign=campaign,
            )
            # Durability boundary: a completed cell survives kill -9.
            self._log.sync()
            if self.chaos is not None and self.chaos.truncates(cell.key):
                self._truncate_tail()
            return
        cell.failures += 1
        attempt = cell.failures
        will_retry = attempt <= self.cell_retries
        backoff = (self.retry_backoff * 2 ** (attempt - 1)
                   if will_retry else 0.0)
        self._emit_cell(
            "cell_failed", cell, attempt=attempt, kind="exception",
            error=payload.get("error", "?"),
            traceback_tail=payload.get("traceback_tail", ""),
            will_retry=will_retry,
        )
        self._after_failure(cell, attempt, will_retry, backoff, now)

    def _after_failure(self, cell: _Cell, attempt: int, will_retry: bool,
                       backoff: float, now: float) -> None:
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
            self._leases.append(self._lease(cell, now))

    def _lease(self, cell: _Cell, now: float) -> _Lease:
        attempt = cell.failures + 1
        task: Dict[str, Any] = {
            "key": list(cell.key),
            "spec": cell.spec,
            "attempt": attempt,
            "heartbeat_seconds": self.heartbeat_seconds,
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
            expires=now + self.lease_seconds,
            # First-beat grace includes process start-up.
            beat_deadline=now + grace + self.heartbeat_seconds,
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

    def _truncate_tail(self, nbytes: int = 32) -> None:
        """Chaos: tear the checkpoint line just written (torn-write sim)."""
        import os

        path = self.journal_path
        size = path.stat().st_size
        if size <= nbytes:
            return
        with open(path, "r+b") as handle:
            handle.truncate(size - nbytes)
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")
        self._log.emit("chaos", action="truncate_tail")

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

        Used by tests to simulate an abrupt scheduler death (`kill -9`
        never runs this either — but leaked worker processes would outlive
        the test, so the simulation reaps them explicitly).
        """
        for lease in self._leases:
            self._terminate(lease)
        self._leases = []
        self._log.close()

    def _emit_cell(self, kind: str, cell: _Cell, /, **payload: Any) -> None:
        tester, engine, seed = cell.key
        self._log.emit(kind, job=cell.job, tester=tester, engine=engine,
                       seed=seed, **payload)

    # -- pumps ------------------------------------------------------------

    def run_until(self, predicate=None, timeout: float = 60.0) -> None:
        """Drive ticks until *predicate* (default: idle) or timeout."""
        if predicate is None:
            predicate = lambda: self.idle  # noqa: E731
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            self.tick()
            if predicate():
                return
            time.sleep(self.poll_interval)
        raise TimeoutError("scheduler did not reach the requested state")

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
