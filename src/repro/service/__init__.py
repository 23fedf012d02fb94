"""The fault-tolerant campaign service.

A long-running localhost service that accepts campaign grid jobs over a
stdlib HTTP JSON API and runs them under a robustness-first scheduler:
time-bounded cell leases, worker heartbeats, missed-heartbeat revocation,
deterministic same-seed retries with quarantine, bounded-queue admission
control with backpressure, graceful SIGTERM/SIGINT drain, and a
crash-consistent JSONL journal that makes ``kill -9`` + restart
byte-identical to an uninterrupted run.

Layers (each importable on its own):

* :mod:`repro.service.spec` — job specs, validation, grid decomposition;
* :mod:`repro.service.worker` — the per-lease worker process entry point;
* :mod:`repro.service.scheduler` — leases, heartbeats, retries, recovery
  (also the in-process engine behind every ``campaign``/``compare`` grid);
* :mod:`repro.service.server` — the asyncio HTTP face (``repro serve``);
* :mod:`repro.service.client` — the urllib client (``repro submit`` …).

The package exports the scheduler layers only: every campaign grid runs
on the scheduler, and importing the HTTP face and client here would load
``asyncio``, ``urllib`` and ``ssl`` into every campaign.  Import
``serve``/``ServiceServer`` and ``ServiceClient``/``ServiceError`` from
their modules.

See ``docs/service.md`` for the API reference, the lease/heartbeat state
machine, the failure-handling matrix, and the recovery guarantees.
"""

from repro.service.scheduler import (
    Backpressure,
    CampaignScheduler,
    JournalError,
    ServiceDraining,
    replay_service_journal,
)
from repro.service.spec import JobSpec
from repro.service.worker import lease_worker_main

__all__ = [
    "Backpressure",
    "CampaignScheduler",
    "JobSpec",
    "JournalError",
    "ServiceDraining",
    "lease_worker_main",
    "replay_service_journal",
]
