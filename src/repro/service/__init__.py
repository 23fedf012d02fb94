"""The campaign scheduler every grid runs on.

Jobs are (testers × engines × seeds) grids decomposed into cells; each
cell attempt runs under a time-bounded lease, with revocation of dead or
overdue workers, deterministic same-seed retries with quarantine, and a
crash-consistent JSONL journal that makes ``kill -9`` + restart
byte-identical to an uninterrupted run.

Layers (each importable on its own):

* :mod:`repro.service.spec` — job specs, validation, grid decomposition;
* :mod:`repro.service.worker` — the per-lease worker process entry point;
* :mod:`repro.service.scheduler` — leases, retries, recovery
  (the in-process engine behind every ``campaign``/``compare`` grid).

See ``docs/robustness.md`` for the lease state machine, the
failure-handling matrix, the journal and the recovery guarantees.
"""

from repro.service.scheduler import (
    CampaignScheduler,
    JournalError,
    replay_service_journal,
)
from repro.service.spec import JobSpec
from repro.service.worker import lease_worker_main

__all__ = [
    "CampaignScheduler",
    "JobSpec",
    "JournalError",
    "lease_worker_main",
    "replay_service_journal",
]
