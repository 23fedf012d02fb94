"""Parallel (tester × engine × seed) campaign fan-out.

The paper's evaluation grid (6 testers × 4 engines × seeds; Table 6,
Figure 18) is embarrassingly parallel: every cell is an independent
campaign with its own engine instance and its own deterministic RNG.  This
module fans the grid out over a ``multiprocessing`` pool, supervised by
:class:`repro.runtime.supervisor.CellSupervisor`:

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
* **Robustness** — the supervisor sandboxes every cell: worker exceptions
  become ``cell_failed`` events, hangs are cut by the ``cell_timeout``
  watchdog, failed cells are retried (``cell_retries``) with deterministic
  backoff and finally **quarantined** so the grid completes with explicit
  holes (``cell_quarantined`` events, absent keys in the returned dict).
* **Checkpoint/resume** — ``cell_complete`` checkpoints (the full
  serialized campaign) are appended to the JSONL event log in **completion
  order** — an interrupt after N finished cells always resumes N cells, no
  matter where they sat in the grid.  A grid re-run with
  ``resume_path=...`` skips every cell already on record.
"""

from __future__ import annotations

import hashlib
import math
import os
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
from repro.runtime.supervisor import (
    CellFailure,
    CellOutcome,
    CellSupervisor,
    ChaosConfig,
)

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
    pools re-import only what they need.

    With ``record_metrics`` the cell runs under a *fresh* per-cell
    observability scope (see :func:`repro.experiments.campaign.run_cell`),
    so each cell's ``metrics`` event snapshot covers exactly that cell no
    matter how the pool reuses worker processes — the invariant the
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
    """Fan a list of campaign cells out over a process pool and merge back.

    ``jobs=1`` runs inline (no pool), which doubles as the determinism
    reference for the parallel path.  ``cell_timeout``/``chaos`` switch
    the supervisor to one-process-per-attempt slots so hangs and hard
    crashes can be contained (see :mod:`repro.runtime.supervisor`).
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
        quarantine: bool = True,
        chaos: Optional[Union[ChaosConfig, str]] = None,
    ):
        self.jobs = max(1, int(jobs))
        self.events_path = Path(events_path) if events_path else None
        self.record_queries = record_queries
        self.bundle_dir = Path(bundle_dir) if bundle_dir else None
        self.reduce_bundles = reduce_bundles
        supervisor_kwargs: Dict[str, Any] = {
            "jobs": self.jobs,
            "cell_timeout": cell_timeout,
            "cell_retries": cell_retries,
            "quarantine": quarantine,
            "chaos": chaos,
        }
        if retry_backoff is not None:
            supervisor_kwargs["retry_backoff"] = retry_backoff
        self.supervisor = CellSupervisor(**supervisor_kwargs)

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
        from repro.core.reporting import campaign_from_dict

        cells = list(cells)
        if len({cell.key for cell in cells}) != len(cells):
            raise ValueError("duplicate (tester, engine, seed) cells in grid")
        by_key = {cell.key: cell for cell in cells}

        done: Dict[CellKey, CampaignResult] = {}
        # Per-campaign observability snapshots, *keyed by cell* so barrier
        # merges fold them in grid order no matter the completion order —
        # the byte-identity invariant across job counts.
        snapshots: Dict[str, Dict[CellKey, List[Dict]]] = {
            kind: {} for kind in _SNAPSHOT_KINDS
        }
        if resume_path is not None and Path(resume_path).exists():
            from repro.core.reporting import (
                completed_cells_from_events,
                load_event_stream,
            )

            wanted = set(by_key)
            resume_events = load_event_stream(resume_path)
            recorded = completed_cells_from_events(resume_events)
            done = {key: recorded[key] for key in recorded if key in wanted}
            # Observability snapshots of already-checkpointed cells still
            # count toward the merged grid snapshots.
            for event in resume_events:
                kind = event.get("event")
                key = (event.get("tester"), event.get("engine"),
                       event.get("seed"))
                if (kind in snapshots
                        and event.get("scope") == "campaign"
                        and key in done):
                    snapshots[kind].setdefault(key, []).append(
                        event["snapshot"]
                    )

        pending = [cell for cell in cells if cell.key not in done]
        stats = {"failed": 0, "retried": 0, "timeouts": 0, "crashes": 0,
                 "quarantined": 0, "truncated": 0}
        record_metrics = any(cell.config.record_metrics for cell in cells)
        with EventLog(self.events_path, record_spans=record_metrics) as log:
            # ``grid`` lists every (tester, engine, seed) cell up front so a
            # live follower (``repro watch``) can show pending cells before
            # any worker reports; workers buffer their events until cell
            # completion, so this is the only early signal a grid log has.
            log.emit(
                "grid_start",
                cells=len(cells),
                resumed=len(done),
                pending=len(pending),
                jobs=self.jobs,
                grid=[list(cell.key) for cell in cells],
            )
            tasks = [self._task(cell) for cell in pending]
            for item in self.supervisor.run(tasks):
                if isinstance(item, CellFailure):
                    self._on_failure(log, item, stats)
                    continue
                self._on_outcome(log, item, by_key[item.key], done,
                                 snapshots, stats, campaign_from_dict)
            self._emit_barriers(log, cells, snapshots, stats,
                                record_metrics)
            log.emit(
                "grid_end",
                cells=len(cells),
                completed=len(done),
                quarantined=stats["quarantined"],
            )
        return {cell.key: done[cell.key] for cell in cells
                if cell.key in done}

    # -- supervisor event plumbing ----------------------------------------

    def _on_failure(self, log: EventLog, failure: CellFailure,
                    stats: Dict[str, int]) -> None:
        tester, engine, seed = failure.key
        stats["failed"] += 1
        if failure.kind == "timeout":
            stats["timeouts"] += 1
        elif failure.kind == "crash":
            stats["crashes"] += 1
        log.emit(
            "cell_failed",
            tester=tester,
            engine=engine,
            seed=seed,
            attempt=failure.attempt,
            kind=failure.kind,
            error=failure.error,
            traceback_tail=failure.traceback_tail,
            will_retry=failure.will_retry,
        )
        if failure.will_retry:
            stats["retried"] += 1
            log.emit(
                "cell_retry",
                tester=tester,
                engine=engine,
                seed=seed,
                next_attempt=failure.attempt + 1,
                backoff=failure.backoff,
            )

    def _on_outcome(
        self,
        log: EventLog,
        outcome: CellOutcome,
        cell: CampaignCell,
        done: Dict[CellKey, CampaignResult],
        snapshots: Dict[str, Dict[CellKey, List[Dict]]],
        stats: Dict[str, int],
        campaign_from_dict,
    ) -> None:
        if outcome.quarantined:
            stats["quarantined"] += 1
            log.emit(
                "cell_quarantined",
                tester=cell.tester,
                engine=cell.engine,
                seed=cell.seed,
                attempts=outcome.attempts,
            )
            return
        log.extend(outcome.events)
        for event in outcome.events:
            kind = event.get("event")
            if kind in snapshots and event.get("scope") == "campaign":
                snapshots[kind].setdefault(cell.key, []).append(
                    event["snapshot"]
                )
        done[cell.key] = campaign_from_dict(outcome.campaign)
        # Completion-order checkpoint: emitted the moment the cell lands,
        # so an interrupt after N finished cells always resumes N cells.
        log.emit(
            "cell_complete",
            tester=cell.tester,
            engine=cell.engine,
            seed=cell.seed,
            attempts=outcome.attempts,
            campaign=outcome.campaign,
        )
        chaos = self.supervisor.chaos
        if (chaos is not None and log.path is not None
                and chaos.truncates(cell.key)):
            # Chaos: tear the checkpoint line we just wrote, simulating a
            # crash mid-write.  The in-memory log (and hence this run's
            # results) keeps the full event; only a later ``--resume``
            # sees the torn line, skips it, and re-runs the cell.
            stats["truncated"] += 1
            self._truncate_tail(log)
            log.emit(
                "chaos",
                action="truncate_tail",
                tester=cell.tester,
                engine=cell.engine,
                seed=cell.seed,
            )

    @staticmethod
    def _truncate_tail(log: EventLog, nbytes: int = 32) -> None:
        """Chop the tail of the last written line, leaving a torn record."""
        path = log.path
        size = path.stat().st_size
        if size <= nbytes:
            return
        with open(path, "r+b") as handle:
            handle.truncate(size - nbytes)
            # Real torn writes end without a newline and nothing follows;
            # here the run continues, so terminate the torn line to keep
            # subsequent appends parseable (the torn line itself is
            # invalid JSON and is skipped by ``load_event_stream``).
            handle.seek(0, os.SEEK_END)
            handle.write(b"\n")

    def _emit_barriers(
        self,
        log: EventLog,
        cells: Sequence[CampaignCell],
        snapshots: Dict[str, Dict[CellKey, List[Dict]]],
        stats: Dict[str, int],
        record_metrics: bool,
    ) -> None:
        """Grid-scope barrier merges, folded in grid order (byte-stable)."""
        ordered: Dict[str, List[Dict]] = {
            kind: [snap for cell in cells
                   for snap in snapshots[kind].get(cell.key, ())]
            for kind in _SNAPSHOT_KINDS
        }
        if record_metrics and ordered["metrics"]:
            # Barrier merge: per-worker snapshots fold element-wise
            # (fixed bucket edges), so the result is independent of
            # worker count and completion order.
            from repro.obs import merge_snapshots

            merged = ordered["metrics"]
            supervisor_snap = self._supervisor_snapshot(stats)
            if supervisor_snap is not None:
                merged = merged + [supervisor_snap]
            log.emit(
                "metrics",
                scope="grid",
                cells=len(ordered["metrics"]),
                snapshot=merge_snapshots(merged),
            )
        if ordered["coverage"]:
            # Coverage/triage merges fold cells in sorted (tester,
            # engine, seed) order internally — same invariant.
            from repro.obs import merge_coverage_snapshots

            log.emit(
                "coverage",
                scope="grid",
                cells=len(ordered["coverage"]),
                snapshot=merge_coverage_snapshots(ordered["coverage"]),
            )
        if ordered["triage"]:
            from repro.obs import merge_triage_snapshots

            log.emit(
                "triage",
                scope="grid",
                cells=len(ordered["triage"]),
                snapshot=merge_triage_snapshots(ordered["triage"]),
            )
        if ordered["adaptation"]:
            from repro.runtime.adapt import merge_adaptation_snapshots

            # Tag each snapshot with its cell identity (the merge folds in
            # sorted cell order, independent of completion order).
            tagged = [
                {**snap, "tester": cell.tester, "engine": cell.engine,
                 "seed": cell.seed}
                for cell in cells
                for snap in snapshots["adaptation"].get(cell.key, ())
            ]
            log.emit(
                "adaptation",
                scope="grid",
                cells=len(tagged),
                snapshot=merge_adaptation_snapshots(tagged),
            )
        if stats["failed"] or stats["quarantined"] or stats["truncated"]:
            log.emit("supervisor", **stats)

    @staticmethod
    def _supervisor_snapshot(stats: Dict[str, int]) -> Optional[Dict]:
        """Supervisor counters as a metrics snapshot for the grid merge.

        Only materialized when something actually failed, so fault-free
        grids keep byte-identical grid metrics with or without the
        supervisor features enabled.
        """
        if not (stats["failed"] or stats["quarantined"]
                or stats["truncated"]):
            return None
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        registry.counter("supervisor.failures").inc(stats["failed"])
        registry.counter("supervisor.retries").inc(stats["retried"])
        registry.counter("supervisor.timeouts").inc(stats["timeouts"])
        registry.counter("supervisor.crashes").inc(stats["crashes"])
        registry.counter("supervisor.quarantined").inc(
            stats["quarantined"]
        )
        registry.counter("supervisor.truncated").inc(stats["truncated"])
        return registry.snapshot()

    # -- worker task specs -------------------------------------------------

    def _task(self, cell: CampaignCell) -> Dict[str, Any]:
        """The supervisor task for *cell*: key + primitives-only spec."""
        return {
            "key": cell.key,
            "spec": cell.worker_spec(self.record_queries, self.bundle_dir,
                                     self.reduce_bundles),
        }
