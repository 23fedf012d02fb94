"""The lease worker: one process per leased cell attempt.

Every cell attempt the scheduler (:mod:`repro.service.scheduler`) does not
run in process runs here: exactly one attempt through the sandboxed
:func:`repro.runtime.supervisor._run_cell_guarded` entry point, reporting
the payload over a pipe as its one message (``status`` is ``"ok"`` with
the campaign + events, or ``"error"`` with the structured failure).

A worker outlives its scheduler only briefly: it closes every pipe read
end it inherits, so a send to a dead scheduler fails rather than blocks,
and a daemon thread exits the process once the scheduler is gone
(``kill -9``), so a hung attempt dies too.

Chaos hooks: the task's ``chaos`` directive (crash/hang/error) is applied
by ``_run_cell_guarded`` itself, so an injected crash kills the process
exactly as a real worker death would.
"""

from __future__ import annotations

import os
import signal
import threading
from typing import Any, Dict, Iterable

from repro.runtime.supervisor import _init_worker, _run_cell_guarded

__all__ = ["lease_worker_main"]

#: Seconds between a worker's checks that its scheduler is still alive.
PARENT_POLL_SECONDS = 1.0


def _exit_when_orphaned(scheduler: int, stop: threading.Event) -> None:
    """Exit the process once *scheduler* is gone, until *stop*.

    A worker whose scheduler died (``kill -9``) has no one to report to,
    and a hung attempt would otherwise keep it alive for minutes.
    """
    while not stop.wait(PARENT_POLL_SECONDS):
        if os.getppid() != scheduler:
            os._exit(1)


def lease_worker_main(conn, task: Dict[str, Any],
                      read_ends: Iterable[Any]) -> None:
    """Entry point of a lease worker process.

    *task* carries the cell ``key``/``spec``/``attempt`` and the optional
    chaos switches.  *read_ends* are the pipe read ends this process
    inherited from the scheduler.
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
    threading.Thread(target=_exit_when_orphaned, args=(scheduler, stop),
                     daemon=True).start()
    payload = _run_cell_guarded(task)
    stop.set()
    try:
        conn.send(payload)
    except OSError:
        pass  # Scheduler revoked the lease and closed its end; nothing to do.
    conn.close()
