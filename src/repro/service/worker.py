"""The lease worker: one process per leased cell attempt, with a heartbeat.

Every cell attempt the scheduler (:mod:`repro.service.scheduler`) does not
run in process runs here: exactly one attempt through the sandboxed
:func:`repro.runtime.supervisor._run_cell_guarded` entry point, reporting
the payload over a pipe.  While the cell runs against a bounded lease, a
daemon thread reports a heartbeat every ``heartbeat_seconds`` so the
scheduler can distinguish "slow but alive" from "dead or wedged" without
waiting out the full lease.

Messages on the pipe are dicts tagged by ``type``:

* ``{"type": "heartbeat", "key": [...], "attempt": n}`` — proof of life,
  sent once on start and then every interval;
* ``{"type": "result", ...}`` — the final guarded payload (``status`` is
  ``"ok"`` with the campaign + events, or ``"error"`` with the structured
  failure), sent exactly once.

A worker outlives its scheduler only briefly: it closes every pipe read
end it inherits, so a send to a dead scheduler fails rather than blocks.
Against a bounded lease the heartbeat thread also exits the process once
the scheduler is gone, so a hung attempt dies too; an unbounded attempt
ends with its cell.

Chaos hooks: the task's ``chaos`` directive (crash/hang/error) is applied
by ``_run_cell_guarded`` itself, so an injected crash kills the heartbeat
thread with the process — exactly what a real worker death looks like.
``stall_heartbeats`` keeps the cell running but suppresses every beat,
exercising the scheduler's missed-heartbeat revocation in isolation.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Dict, Iterable

from repro.runtime.supervisor import _init_worker, _run_cell_guarded

__all__ = ["lease_worker_main"]


def _heartbeat_loop(conn, task: Dict[str, Any], stop: threading.Event,
                    scheduler: int) -> None:
    """Beat every interval (unless stalled) until *stop*; exit once
    orphaned.

    A worker whose scheduler died (``kill -9``) has no one to report to,
    and a hung attempt would otherwise keep it alive for minutes.
    """
    beat = {
        "type": "heartbeat",
        "key": list(task["key"]),
        "attempt": task["attempt"],
    }
    while True:
        if os.getppid() != scheduler:
            os._exit(1)
        if not task.get("stall_heartbeats"):
            try:
                conn.send(beat)
            except OSError:  # The scheduler closed its end, or died.
                os._exit(1)
        if stop.wait(task["heartbeat_seconds"]):
            return


def lease_worker_main(conn, task: Dict[str, Any],
                      read_ends: Iterable[Any]) -> None:
    """Entry point of a lease worker process.

    *task* carries the cell ``key``/``spec``/``attempt``, the
    ``heartbeat_seconds`` interval (None: an unbounded lease, no beats)
    and the optional chaos switches.  *read_ends* are the pipe read ends
    this process inherited from the scheduler.
    """
    scheduler = os.getppid()
    for inherited in read_ends:
        inherited.close()
    # A Ctrl-C reaches the whole process group, and the scheduler reaps
    # its workers: die quietly rather than print a KeyboardInterrupt.
    try:
        signal.signal(signal.SIGINT, signal.SIG_DFL)
    except ValueError:  # Forked from a non-main thread: nothing inherited.
        pass
    _init_worker()
    stop = threading.Event()
    beats = None
    if task.get("heartbeat_seconds"):
        beats = threading.Thread(target=_heartbeat_loop,
                                 args=(conn, task, stop, scheduler),
                                 daemon=True)
        beats.start()
    payload = _run_cell_guarded(task)
    stop.set()
    if beats is not None:
        beats.join()  # One writer at a time on the pipe.
    try:
        conn.send({"type": "result", **payload})
    except OSError:
        pass  # Scheduler revoked the lease and closed its end; nothing to do.
    conn.close()
