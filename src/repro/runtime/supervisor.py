"""Cell attempts: the sandboxed entry point, worker set-up and chaos.

Long unattended campaign grids (paper Table 6, Figure 18) must survive
their own harness: a pathological synthesized query that trips the
recursion limit, a worker process that dies, or a cell that hangs must
cost one cell *attempt*, not the grid.  Scheduling those attempts —
leases, retries with backoff, quarantine, checkpoints — is the job of the
one scheduler every grid runs on
(:class:`repro.service.scheduler.CampaignScheduler`).  This module holds
what an attempt itself needs, wherever it runs:

* **Sandboxing** — :func:`_run_cell_guarded` never raises: a worker
  exception becomes a structured ``error`` payload (exception type,
  traceback tail, cell key, attempt number) that the scheduler journals
  as a ``cell_failed`` event.
* **Worker set-up** — :func:`mp_context` picks the start method and
  :func:`_init_worker` the recursion headroom of every worker process
  (lease workers and reduction pools alike).
* **Chaos** — a deterministic fault injector (:class:`ChaosConfig`)
  crashes, hangs, or errors attempts and tears checkpoint writes, keyed
  on SHA-256 draws over the cell identity and attempt number, so the
  scheduler is itself tested by fault injection without perturbing any
  campaign RNG stream.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "ChaosConfig",
    "DEFAULT_CHAOS_TIMEOUT",
    "DEFAULT_RETRY_BACKOFF",
    "WORKER_RECURSION_LIMIT",
    "mp_context",
]

# Duplicated from repro.runtime.parallel to keep this module import-cycle
# free (parallel imports the supervisor).
CellKey = Tuple[str, str, int]

#: First-retry backoff in seconds; attempt ``n`` waits ``backoff * 2**(n-1)``.
DEFAULT_RETRY_BACKOFF = 0.05

#: Chaos-injected hangs must be bounded even if the user sets no timeout.
DEFAULT_CHAOS_TIMEOUT = 30.0

#: Recursion headroom for deep synthesized ASTs, applied uniformly to every
#: worker (lease workers and reduction pools alike).
WORKER_RECURSION_LIMIT = 10_000


def mp_context():
    """The multiprocessing context used by every runtime worker.

    Fork is preferred (cheap, inherits the warm interpreter); the
    ``GQS_START_METHOD`` environment variable overrides it so the spawn
    path can be exercised on any platform (results must be byte-identical
    either way — seeds live in the specs, not the processes).
    """
    method = os.environ.get("GQS_START_METHOD")
    if method:
        return multiprocessing.get_context(method)
    return multiprocessing.get_context(
        "fork"
        if "fork" in multiprocessing.get_all_start_methods()
        else "spawn"
    )


def _init_worker() -> None:
    """Worker set-up shared by lease workers and reduction pools.

    Raises the recursion limit so deep synthesized ASTs fail with the
    typed budget error (or not at all) instead of tripping Python's
    default 1000-frame ceiling only in whichever worker forgot the raise.
    """
    sys.setrecursionlimit(max(sys.getrecursionlimit(),
                              WORKER_RECURSION_LIMIT))


# -- chaos ----------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """Deterministic fault injection for scheduler self-testing.

    Every decision is a pure function of ``(seed, purpose, cell identity,
    attempt)`` via SHA-256 — no global RNG is touched, so enabling chaos
    never perturbs campaign results; it only decides which *attempts* are
    sacrificed.  Draws are attempt-indexed, so a cell whose first attempt
    is crashed can succeed on retry.
    """

    rate: float
    seed: int = 0
    hang_seconds: float = 600.0

    _KINDS = ("crash", "hang", "error")

    @classmethod
    def parse(cls, text: str) -> "ChaosConfig":
        """Parse a ``--chaos P[,SEED]`` CLI spec."""
        parts = [p.strip() for p in str(text).split(",")]
        if len(parts) > 2 or not parts[0]:
            raise ValueError(
                f"invalid --chaos spec {text!r}: expected P or P,SEED"
            )
        try:
            rate = float(parts[0])
            seed = int(parts[1]) if len(parts) == 2 and parts[1] else 0
        except ValueError:
            raise ValueError(
                f"invalid --chaos spec {text!r}: expected P or P,SEED"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError(
                f"invalid --chaos rate {rate!r}: must be in [0, 1]"
            )
        return cls(rate=rate, seed=seed)

    def _unit(self, *parts: object) -> float:
        """A uniform [0, 1) draw keyed on the chaos seed and *parts*."""
        text = "|".join(str(p) for p in (self.seed,) + parts)
        digest = hashlib.sha256(text.encode()).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def directive(self, key: CellKey, attempt: int) -> Optional[str]:
        """The fault to inject into this attempt (None = run clean)."""
        tester, engine, seed = key
        if self._unit("inject", tester, engine, seed, attempt) >= self.rate:
            return None
        mode = self._unit("mode", tester, engine, seed, attempt)
        return self._KINDS[int(mode * len(self._KINDS))]

    def truncates(self, key: CellKey) -> bool:
        """Whether to tear the event-log write after this cell's checkpoint."""
        tester, engine, seed = key
        return self._unit("truncate", tester, engine, seed) < self.rate


def _chaos_inject(directive: str, hang_seconds: float) -> None:
    """Apply a chaos directive inside the worker, before any cell work."""
    if directive == "crash":
        # A hard death (no exception machinery, no atexit) — exactly what
        # a segfaulting native extension would look like to the parent.
        os._exit(70)
    elif directive == "hang":
        time.sleep(hang_seconds)
    elif directive == "error":
        raise RuntimeError("chaos: injected worker error")


def _describe_failure(exc: BaseException) -> Tuple[str, str]:
    """Serialize an exception into (one-line error, traceback tail)."""
    error = f"{type(exc).__name__}: {exc}"
    formatted = "".join(
        traceback.format_exception(type(exc), exc, exc.__traceback__)
    )
    tail = "\n".join(formatted.strip().splitlines()[-8:])
    return error, tail


def _run_cell_guarded(task: Dict[str, Any]) -> Dict[str, Any]:
    """Sandboxed attempt entry point: never raises, always reports.

    *task* carries the cell ``key``, its ``_run_cell`` ``spec``, the
    ``attempt`` number and an optional chaos directive.  Resolves
    :func:`repro.runtime.parallel._run_cell` at call time — the parallel
    module imports this one, and spawn-based workers should re-import
    only on first use.
    """
    key = tuple(task["key"])
    attempt = task["attempt"]
    try:
        directive = task.get("chaos")
        if directive:
            _chaos_inject(directive, task.get("hang_seconds", 600.0))
        from repro.runtime.parallel import _run_cell

        campaign, events = _run_cell(task["spec"])
        return {
            "key": key,
            "attempt": attempt,
            "status": "ok",
            "campaign": campaign,
            "events": events,
        }
    except Exception as exc:
        error, tail = _describe_failure(exc)
        return {
            "key": key,
            "attempt": attempt,
            "status": "error",
            "error": error,
            "traceback_tail": tail,
        }
