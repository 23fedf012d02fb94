"""The lease worker: one process per leased cell attempt, with a heartbeat.

Every cell attempt the scheduler (:mod:`repro.service.scheduler`) does not
run in process runs here: exactly one attempt through the sandboxed
:func:`repro.runtime.supervisor._run_cell_guarded` entry point, reporting
the payload over a pipe.  While the cell runs against a bounded lease, a
daemon thread reports a heartbeat every ``heartbeat_seconds`` so the
scheduler can distinguish "slow but alive" from "dead or wedged" without
waiting out the full lease.

Messages on the pipe are dicts tagged by ``type``:

* ``{"type": "heartbeat", "key": [...], "attempt": n}`` — periodic proof
  of life;
* ``{"type": "result", ...}`` — the final guarded payload (``status`` is
  ``"ok"`` with the campaign + events, or ``"error"`` with the structured
  failure), sent exactly once.

Chaos hooks: the task's ``chaos`` directive (crash/hang/error) is applied
by ``_run_cell_guarded`` itself, so an injected crash kills the heartbeat
thread with the process — exactly what a real worker death looks like.
``stall_heartbeats`` keeps the cell running but suppresses every beat,
exercising the scheduler's missed-heartbeat revocation in isolation.
"""

from __future__ import annotations

import signal
import threading
from typing import Any, Dict

from repro.runtime.supervisor import _init_worker, _run_cell_guarded

__all__ = ["lease_worker_main"]


def _reset_inherited_signals() -> None:
    """Detach the fork-inherited asyncio signal plumbing.

    The serving process registers SIGTERM/SIGINT handlers through
    ``loop.add_signal_handler``, which installs a Python-level handler
    plus a wakeup fd pointing at the event loop's self-pipe.  A forked
    worker inherits both — so a ``terminate()`` aimed at the *worker*
    (lease revocation, cancellation) would make the worker's handler
    write the signum into the **parent's** wakeup pipe, and the parent
    would drain itself as if it had been SIGTERMed.  Restore default
    dispositions before any lease can be revoked.
    """
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # non-main thread / closed fd: nothing leaks
        pass
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(sig, signal.SIG_DFL)
        except (ValueError, OSError):
            pass


def _heartbeat_loop(conn, task: Dict[str, Any],
                    stop: threading.Event) -> None:
    interval = float(task["heartbeat_seconds"])
    beat = {
        "type": "heartbeat",
        "key": list(task["key"]),
        "attempt": task["attempt"],
    }
    while not stop.wait(interval):
        try:
            conn.send(beat)
        except OSError:
            return


def lease_worker_main(conn, task: Dict[str, Any]) -> None:
    """Entry point of a lease worker process.

    *task* carries the cell ``key``/``spec``/``attempt``, the
    ``heartbeat_seconds`` interval (None: an unbounded lease, no beats)
    and the optional chaos switches.
    """
    _reset_inherited_signals()
    _init_worker()
    stop = threading.Event()
    if task.get("heartbeat_seconds") and not task.get("stall_heartbeats"):
        thread = threading.Thread(
            target=_heartbeat_loop, args=(conn, task, stop), daemon=True
        )
        thread.start()
    payload = _run_cell_guarded(task)
    stop.set()
    try:
        conn.send({"type": "result", **payload})
    except OSError:
        pass  # Scheduler revoked the lease and closed its end; nothing to do.
    conn.close()
