"""Parallel (tester × engine × seed) campaign grids.

The paper's evaluation grid (6 testers × 4 engines × seeds; Table 6,
Figure 18) is embarrassingly parallel: every cell is an independent
campaign with its own engine instance and its own deterministic RNG.
:class:`ParallelCampaignRunner` runs a grid as one job on an in-process
:class:`repro.service.scheduler.CampaignScheduler` — the same scheduler
the campaign service runs, without HTTP:

* **Determinism** — each cell's seed is fixed *in the cell spec*, before
  any work is scheduled, and results are merged back keyed by cell in grid
  order, so the returned dict and every barrier merge are byte-identical
  for ``jobs=1`` and ``jobs=8``.  Replicate seeds are derived with
  :func:`derive_cell_seed` (SHA-256 over the cell identity — never
  Python's salted ``hash``), stable across worker counts, platforms and
  runs.
* **Worker safety** — workers receive only primitives (names, numbers
  and the cell's :class:`CellConfig` as a dict) and rebuild the
  engine/tester inside the child, so nothing unpicklable crosses the
  process boundary.
* **Robustness** — the scheduler sandboxes every attempt: worker
  exceptions, crashes and ``cell_timeout`` expiries (the lease length)
  become ``cell_failed`` events, failed cells are retried
  (``cell_retries``) with deterministic backoff and finally
  **quarantined**, so the grid completes with explicit holes
  (``cell_quarantined`` events, absent keys in the returned dict).
* **Checkpoint/resume** — ``cell_complete`` checkpoints (the full
  serialized campaign) are appended to the JSONL event log in
  **completion order** — an interrupt after N finished cells always
  resumes N cells, no matter where they sat in the grid.  A grid re-run
  with ``resume_path=...`` recovers every cell already on record through
  the scheduler's journal replay and runs only the rest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runtime.events import EventLog
from repro.runtime.results import CampaignResult
from repro.runtime.supervisor import DEFAULT_RETRY_BACKOFF, ChaosConfig

__all__ = [
    "CampaignCell",
    "CellConfig",
    "CellKey",
    "ParallelCampaignRunner",
    "derive_cell_seed",
]

CellKey = Tuple[str, str, int]

#: Snapshot-carrying event kinds merged at the grid barrier.
_SNAPSHOT_KINDS = ("metrics", "coverage", "triage", "adaptation")


def derive_cell_seed(tester: str, engine: str, seed: int) -> int:
    """Deterministic per-cell seed, stable across worker counts and runs.

    Distinct grid cells sharing one base seed must not replay the same
    random trajectory against different targets; hashing the full cell
    identity decorrelates them while staying reproducible (SHA-256, not the
    per-process-salted ``hash``).
    """
    digest = hashlib.sha256(f"{tester}|{engine}|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _is_number(value: Any) -> bool:
    """A finite int or float; JSON ``true``/``false`` are not numbers."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_count(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class CellConfig:
    """Every option one campaign cell runs with, beyond its grid key.

    The same value travels from the CLI, the keyword entry points of
    :mod:`repro.experiments.campaign` and service job specs to the worker
    (:func:`_run_cell`), so a new cell option is declared here once.
    Keyword construction trusts its caller; :meth:`from_dict` is the
    validator for everything that arrives from outside the program.
    """

    budget_seconds: float
    gate_scale: float = 1.0
    max_queries: Optional[int] = None
    execution_mode: str = "interpreted"
    # Adaptive-synthesis strategy (None = blind campaign).
    adaptive: Optional[str] = None
    # Stateful write-workload ratio (None = read-only synthesis; a float
    # selects the state-aware tester, repro.synth.state).  GQS only.
    stateful: Optional[float] = None
    step_budget: Optional[int] = None
    record_metrics: bool = False
    record_coverage: bool = False
    record_triage: bool = False

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CellConfig":
        """Validate and build a config from a wire/journal dict.

        Raises :class:`ValueError` on an unknown key or a value of the
        wrong type or range, so a malformed submission is refused at
        admission instead of crashing a worker later.
        """
        from repro.gdb.engines import EXECUTION_MODES
        from repro.runtime.adapt import ADAPTIVE_STRATEGIES

        if not isinstance(data, Mapping):
            raise ValueError("cell options must be a JSON object")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = sorted(set(data) - set(defaults))
        if unknown:
            raise ValueError(f"unknown option(s): {', '.join(unknown)}")
        if "budget_seconds" not in data:
            raise ValueError("budget_seconds is required")
        values = {**defaults, **data}

        def require(ok: bool, message: str) -> None:
            if not ok:
                raise ValueError(message)

        for name in ("budget_seconds", "gate_scale"):
            require(_is_number(values[name]) and values[name] > 0,
                    f"{name} must be a positive number")
        for name in ("max_queries", "step_budget"):
            require(values[name] is None or _is_count(values[name]),
                    f"{name} must be a positive integer or null")
        require(values["execution_mode"] in EXECUTION_MODES,
                f"execution_mode must be one of {EXECUTION_MODES}")
        require(values["adaptive"] is None
                or values["adaptive"] in ADAPTIVE_STRATEGIES,
                f"adaptive must be one of {ADAPTIVE_STRATEGIES} or null")
        stateful = values["stateful"]
        require(stateful is None
                or (_is_number(stateful) and 0.0 <= stateful <= 1.0),
                "stateful must be a ratio in [0, 1] or null")
        for name in ("record_metrics", "record_coverage", "record_triage"):
            require(isinstance(values[name], bool),
                    f"{name} must be true or false")
        values["budget_seconds"] = float(values["budget_seconds"])
        values["gate_scale"] = float(values["gate_scale"])
        if stateful is not None:
            values["stateful"] = float(stateful)
        return cls(**values)

    def to_dict(self) -> Dict[str, Any]:
        """The JSON-ready form (round-trips via :meth:`from_dict`)."""
        return asdict(self)


@dataclass(frozen=True)
class CampaignCell:
    """One (tester, engine, seed) cell of a campaign grid."""

    tester: str
    engine: str
    seed: int
    config: CellConfig

    @property
    def key(self) -> CellKey:
        return (self.tester, self.engine, self.seed)

    def worker_spec(
        self,
        record_queries: bool = False,
        bundle_dir: Optional[Union[str, Path]] = None,
        reduce_bundles: bool = False,
    ) -> Dict[str, Any]:
        """The primitives-only spec :func:`_run_cell` runs this cell from.

        The local outputs (*record_queries*, *bundle_dir*,
        *reduce_bundles*) are the runner's, never the config's: a service
        client must not choose paths on the server.
        """
        return {
            "tester": self.tester,
            "engine": self.engine,
            "seed": self.seed,
            "config": self.config.to_dict(),
            "record_queries": record_queries,
            "bundle_dir": str(bundle_dir) if bundle_dir else None,
            "reduce_bundles": reduce_bundles,
        }


def _run_cell(spec: Dict[str, Any]) -> Tuple[Dict, List[Dict]]:
    """Worker entry point: run one grid cell, return (campaign, events).

    *spec* is a primitives-only dict (:meth:`CampaignCell.worker_spec`)
    so it crosses process boundaries under any start method.  Imports are
    local so the module stays import-cycle-free (the runtime layer must not
    statically depend on the experiment harness) and so ``spawn``-based
    workers re-import only what they need.

    With ``record_metrics`` the cell runs under a *fresh* per-cell
    observability scope (see :func:`repro.experiments.campaign.run_cell`),
    so each cell's ``metrics`` event snapshot covers exactly that cell,
    also when attempts share the scheduler's process — the invariant the
    deterministic barrier merge depends on.
    """
    from repro.core.reporting import campaign_to_dict
    from repro.experiments.campaign import run_cell

    cell = CampaignCell(spec["tester"], spec["engine"], spec["seed"],
                        CellConfig(**spec["config"]))
    log = EventLog(record_queries=spec["record_queries"],
                   record_spans=cell.config.record_metrics)
    # Bundle filenames embed the cell identity, so workers sharing one
    # directory never contend for a file.
    result = run_cell(cell, events=log, bundle_dir=spec["bundle_dir"],
                      reduce_bundles=spec["reduce_bundles"])
    return campaign_to_dict(result), log.events


class ParallelCampaignRunner:
    """Run a list of campaign cells as one scheduler job; merge back in
    grid order.

    With ``jobs=1`` and neither ``cell_timeout`` nor ``chaos``, attempts
    run in this process — the determinism reference for every other
    configuration; otherwise each attempt runs in a lease worker process,
    so hangs (``cell_timeout`` is the lease length) and hard crashes are
    contained (see :mod:`repro.service.scheduler`).
    """

    def __init__(
        self,
        jobs: int = 1,
        events_path: Optional[Union[str, Path]] = None,
        record_queries: bool = False,
        bundle_dir: Optional[Union[str, Path]] = None,
        reduce_bundles: bool = False,
        cell_timeout: Optional[float] = None,
        cell_retries: int = 0,
        retry_backoff: Optional[float] = None,
        chaos: Optional[Union[ChaosConfig, str]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.events_path = Path(events_path) if events_path else None
        self.record_queries = record_queries
        self.bundle_dir = Path(bundle_dir) if bundle_dir else None
        self.reduce_bundles = reduce_bundles
        self.scheduling: Dict[str, Any] = {
            "lease_seconds": cell_timeout,
            "cell_retries": cell_retries,
            "retry_backoff": (DEFAULT_RETRY_BACKOFF if retry_backoff is None
                              else retry_backoff),
            "chaos": chaos,
        }

    def run(
        self,
        cells: Sequence[CampaignCell],
        resume_path: Optional[Union[str, Path]] = None,
    ) -> Dict[CellKey, CampaignResult]:
        """Run every cell; returns results keyed and ordered by the grid.

        With *resume_path*, cells checkpointed in that event log are not
        re-run; their stored results are merged in as-is.  Quarantined
        cells are explicit holes: absent from the returned dict, present
        in the event stream as ``cell_quarantined``.
        """
        from repro.core.reporting import load_event_stream
        from repro.service.scheduler import CampaignScheduler

        cells = list(cells)
        keys = [cell.key for cell in cells]
        if len(set(keys)) != len(keys):
            raise ValueError("duplicate (tester, engine, seed) cells in grid")
        prior: List[Dict] = []
        if resume_path is not None and Path(resume_path).exists():
            prior = load_event_stream(resume_path)
        done, snapshots = _fold(prior, keys)
        pending = [cell for cell in cells if cell.key not in done]
        record_metrics = any(cell.config.record_metrics for cell in cells)
        with EventLog(self.events_path, record_spans=record_metrics) as log:
            # ``grid`` lists every (tester, engine, seed) cell up front so a
            # live follower (``repro watch``) can show pending cells before
            # any worker reports; workers buffer their events until cell
            # completion, so this is the only early signal a grid log has.
            log.emit("grid_start", cells=len(keys), resumed=len(done),
                     pending=len(pending), jobs=self.jobs,
                     grid=[list(key) for key in keys])
            first = len(log)
            if pending:
                scheduler = CampaignScheduler(
                    log, jobs=min(self.jobs, len(pending)),
                    capacity=len(pending), **self.scheduling,
                )
                try:
                    scheduler.submit([self._spec(cell) for cell in pending])
                    scheduler.run_until(timeout=None)
                finally:
                    scheduler.close()
            ran = log.events[first:]
            fresh, fresh_snapshots = _fold(ran, keys)
            done.update(fresh)
            for kind, by_key in fresh_snapshots.items():
                snapshots[kind].update(by_key)
            stats = _supervisor_stats(ran)
            _emit_barriers(log, keys, snapshots, stats, record_metrics)
            log.emit("grid_end", cells=len(keys), completed=len(done),
                     quarantined=stats["quarantined"])
        return {key: done[key] for key in keys if key in done}

    def _spec(self, cell: CampaignCell) -> Dict[str, Any]:
        """The ``_run_cell`` spec this runner submits for *cell*."""
        return cell.worker_spec(self.record_queries, self.bundle_dir,
                                self.reduce_bundles)


def _fold(events: Sequence[Dict], keys: Sequence[CellKey]):
    """(results, snapshots) of the grid cells a log checkpointed.

    Checkpoints come from the scheduler's journal replay (the last one of
    a cell wins); snapshots are the campaign-scope observability
    snapshots of those cells, by kind and cell, so barrier merges fold
    them in grid order no matter the completion order — the byte-identity
    invariant across job counts.
    """
    from repro.core.reporting import campaign_from_dict
    from repro.service.scheduler import replay_service_journal

    recorded = replay_service_journal(events)["cells"]
    done = {key: campaign_from_dict(recorded[key]["campaign"])
            for key in keys if key in recorded}
    snapshots: Dict[str, Dict[CellKey, List[Dict]]] = {
        kind: {} for kind in _SNAPSHOT_KINDS
    }
    for event in events:
        kind = event.get("event")
        key = (event.get("tester"), event.get("engine"), event.get("seed"))
        if (kind in snapshots and event.get("scope") == "campaign"
                and key in done):
            snapshots[kind].setdefault(key, []).append(event["snapshot"])
    return done, snapshots


def _supervisor_stats(events: Sequence[Dict]) -> Dict[str, int]:
    """Failure accounting of one grid run, from its own events."""
    from repro.obs.render import supervisor_counts

    counts = supervisor_counts(events)
    failed = counts["failed_by_kind"]
    return {"failed": sum(failed.values()), "retried": counts["retries"],
            "timeouts": failed.get("timeout", 0),
            "crashes": failed.get("crash", 0),
            "quarantined": counts["quarantined"],
            "truncated": counts["chaos_truncations"]}


def _emit_barriers(
    log: EventLog,
    keys: Sequence[CellKey],
    snapshots: Dict[str, Dict[CellKey, List[Dict]]],
    stats: Dict[str, int],
    record_metrics: bool,
) -> None:
    """Grid-scope barrier merges, folded in grid order (byte-stable).

    Metrics fold element-wise (fixed bucket edges); coverage, triage and
    adaptation merges fold cells in sorted (tester, engine, seed) order —
    either way the result is independent of worker count and completion
    order.  Supervisor counters join the metrics merge, and a
    ``supervisor`` event is written, only when something failed, so
    fault-free grids keep byte-identical grid metrics.
    """
    from repro.obs import (
        merge_coverage_snapshots,
        merge_snapshots,
        merge_triage_snapshots,
    )
    from repro.runtime.adapt import merge_adaptation_snapshots

    troubled = stats["failed"] or stats["quarantined"] or stats["truncated"]
    merges = (("metrics", merge_snapshots),
              ("coverage", merge_coverage_snapshots),
              ("triage", merge_triage_snapshots),
              ("adaptation", merge_adaptation_snapshots))
    for kind, merge in merges:
        ordered = [
            # Adaptation merges need each snapshot's cell identity.
            dict(snap, tester=key[0], engine=key[1], seed=key[2])
            if kind == "adaptation" else snap
            for key in keys for snap in snapshots[kind].get(key, ())
        ]
        if not ordered or (kind == "metrics" and not record_metrics):
            continue
        cells = len(ordered)
        if kind == "metrics" and troubled:
            ordered.append(_supervisor_snapshot(stats))
        log.emit(kind, scope="grid", cells=cells, snapshot=merge(ordered))
    if troubled:
        log.emit("supervisor", **stats)


def _supervisor_snapshot(stats: Dict[str, int]) -> Dict:
    """Supervisor counters as a metrics snapshot for the grid merge."""
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    for name, key in (("failures", "failed"), ("retries", "retried"),
                      ("timeouts", "timeouts"), ("crashes", "crashes"),
                      ("quarantined", "quarantined"),
                      ("truncated", "truncated")):
        registry.counter(f"supervisor.{name}").inc(stats[key])
    return registry.snapshot()
