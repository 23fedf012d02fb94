"""The four benchmark workloads.

A run is a series of passes.  Pass *i* of a workload draws its inputs
from ``(--seed, i)``, prepares them in :meth:`Workload.setup` (timed as
``setup_s``), runs them through the program's public entry points in
:meth:`Workload.measure` (timed, in a fresh thread), and verifies the
outputs in :meth:`Workload.check`, raising :class:`Incorrect` when the
program's output is wrong.  Everything a pass writes goes under the pass
directory it is handed.
"""

from __future__ import annotations

import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Tuple

__all__ = ["Incorrect", "Outcome", "PrestartedPools", "WORKLOADS"]

ENGINES = ("neo4j", "memgraph", "kuzu", "falkordb")
BASELINES = ("GDsmith", "GDBMeter", "Gamera", "GQT", "GRev")

#: Simulated-seconds budget per cell, far above what the query caps use,
#: so every cell runs exactly its query cap.
BUDGET_SECONDS = 1e9

#: Table 3's full-campaign gate scale: faults fire often enough that a
#: short campaign finds most of the bugs it can reach, so distinct-bug
#: counts are stable from seed to seed.
GATE_SCALE = 0.01

#: Evaluation steps per judgement or replay (``--step-budget``), the
#: program's guard for unattended campaigns: a rare synthesized query
#: whose result explodes would otherwise run for minutes.  A blown budget
#: is a ``harness_error`` (or a rejected replay): a failed operation.
#: A million steps is about a second of evaluation.
STEP_BUDGET = 1_000_000

#: Base seeds the campaign workloads draw their cells from (``screen.py``).
POOL_PATH = Path(__file__).resolve().parent / "pool.json"


class Incorrect(Exception):
    """The program produced a wrong or incomplete output."""


@dataclass
class Outcome:
    """What one measured pass produced, as verified by its check."""

    attempted: int = 0           # operations: judged queries (campaigns),
                                 # or bundles and recording cells (reduce)
    failed: int = 0              # of attempted: lost, redone or unusable
    bugs: Set[str] = field(default_factory=set)  # injected fault ids found
    false_positives: int = 0
    queries: int = 0             # engine queries run (judged or replayed)
    shrink_ratios: List[float] = field(default_factory=list)
    log_bytes: int = 0           # event log / journal bytes written
    fingerprint: Any = None      # results that must repeat exactly


def pass_seeds(seed: int, index: int, count: int) -> Tuple[int, ...]:
    """The base seeds of pass *index* of a run with ``--seed`` *seed*."""
    rng = random.Random(f"{seed}/{index}")
    return tuple(rng.randrange(2**31) for _ in range(count))


def load_pool(workload: "Workload") -> Optional[List[int]]:
    """The screened base seeds of *workload*, or None when it has none.

    A pool holds only for the step budget, gate scale and query cap it
    was screened with; a pool screened with other values is refused.
    """
    import json

    if not POOL_PATH.is_file():
        return None
    pool = json.loads(POOL_PATH.read_text())
    entry = pool["workloads"].get(workload.name)
    if entry is None:
        return None
    screened = (pool["step_budget"], pool["gate_scale"], entry["queries"])
    current = (STEP_BUDGET, GATE_SCALE, workload.SIZES["full"]["queries"])
    if screened != current:
        raise RuntimeError(
            f"{POOL_PATH.name} was screened for {workload.name} with "
            f"(step budget, gate scale, queries) {screened}, not {current}; "
            "run perfbench/screen.py again")
    return entry["seeds"]


def cold_import(src: Path) -> None:
    """Start the program in a fresh interpreter: import its entry points.

    No timeout: ``subprocess`` would then poll for the child's exit every
    50 ms, and that step would show in ``setup_s``.  The run's own
    watchdog ends a child that hangs.
    """
    subprocess.run(
        [sys.executable, "-c",
         "import repro.cli, repro.experiments.campaign, "
         "repro.reduce.runner, repro.service.scheduler"],
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        check=True,
    )


class PrestartedPools:
    """Hands pools started during set-up to the program's next ``Pool()``.

    Installed in place of ``mp_context`` wherever the program resolves it,
    so the campaign grid runner and the reduction runner receive a pool
    whose workers already exist; they still shut it down themselves.
    """

    def __init__(self, probe):
        from repro.runtime import supervisor

        self._real = supervisor.mp_context
        self._init_worker = supervisor._init_worker
        self._ready: Dict[int, List[Any]] = {}
        context = _PoolContext(self)
        probe.patch("repro.runtime.supervisor", "mp_context",
                    lambda fn: lambda: context)

    def start(self, processes: int) -> None:
        pool = self._real().Pool(processes=processes,
                                 initializer=self._init_worker)
        self._ready.setdefault(processes, []).append(pool)

    def take(self, processes: Optional[int], initializer: Any) -> Any:
        ready = self._ready.get(processes)
        if ready and initializer is self._init_worker:
            return ready.pop()
        return None

    def close(self) -> None:
        """Stop pools that were started but never used."""
        for pools in self._ready.values():
            for pool in pools:
                pool.terminate()
                pool.join()
        self._ready.clear()


class _PoolContext:
    def __init__(self, pools: PrestartedPools):
        self._pools = pools

    def Pool(self, processes=None, initializer=None, **kwargs):  # noqa: N802
        pool = None if kwargs else self._pools.take(processes, initializer)
        if pool is None:
            return self._pools._real().Pool(processes, initializer,
                                            **kwargs)
        return pool

    def __getattr__(self, name: str) -> Any:
        return getattr(self._pools._real(), name)


def _campaign_outcome(results: Dict, expected: List, cap: int) -> Outcome:
    """Fold grid results; holes and short cells are incorrect output."""
    missing = [cell.key for cell in expected if cell.key not in results]
    if missing:
        raise Incorrect(f"grid holes: {missing[:3]} ({len(missing)} cells)")
    short = [key for key, result in results.items()
             if result.queries_run != cap]
    if short:
        raise Incorrect(f"cells below the {cap}-query cap: {short[:3]}")
    return Outcome(
        attempted=cap * len(expected),
        failed=sum(result.harness_errors for result in results.values()),
        bugs={fault for result in results.values()
              for fault in result.detected_faults},
        false_positives=sum(result.false_positive_count
                            for result in results.values()),
        queries=sum(result.queries_run for result in results.values()),
        fingerprint=sorted(
            (list(key), sorted(result.detected_faults),
             result.false_positive_count)
            for key, result in results.items()
        ),
    )


def _supervision_failures(events: List[Dict[str, Any]], cap: int) -> int:
    """Queries lost or redone to retries, quarantines and revocations."""
    kinds = ("cell_retry", "cell_quarantined", "lease_revoked")
    return cap * sum(1 for event in events if event.get("event") in kinds)


def _load_log(path: Path) -> List[Dict[str, Any]]:
    from repro.core.reporting import load_event_stream

    events = load_event_stream(path)
    if events.skipped:
        raise Incorrect(f"{path.name}: {events.skipped} undecodable lines")
    return events




class Workload:
    """One workload; ``SIZES[size]`` sizes a pass, ``jobs`` ≤ 2."""

    name = ""
    jobs = 1
    service = False              # cells run on the campaign service
    #: Passes every run makes; the counts reported (distinct bugs, false
    #: positives, shrink ratio) come from these, so they repeat exactly
    #: for a fixed seed.
    counted_passes = 5
    SIZES: Dict[str, Dict[str, int]] = {}

    def __init__(self, seed: int, size: str, src: Path, probe):
        self.seed = seed
        self.params = self.SIZES[size]
        self.src = src
        self.probe = probe
        self._order: Optional[List[int]] = None

    def seeds(self, index: int) -> Tuple[int, ...]:
        """Pass *index*'s base seeds: successive seeds of the run's own
        order of the screened pool, or drawn afresh without a pool."""
        count = self.params["seeds"]
        if self._order is None:
            pool = load_pool(self) or []
            self._order = random.Random(self.seed).sample(pool, len(pool))
        if not self._order:
            return pass_seeds(self.seed, index, count)
        return tuple(self._order[(index * count + k) % len(self._order)]
                     for k in range(count))

    def setup(self, pass_dir: Path, index: int) -> Dict[str, Any]:
        """Start the program cold, then prepare pass *index*'s inputs."""
        cold_import(self.src)
        return {"dir": pass_dir, "index": index}

    def measure(self, prepared: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def check(self, prepared: Dict[str, Any], raw: Any) -> Outcome:
        raise NotImplementedError

    def discard(self, prepared: Dict[str, Any]) -> None:
        """Release what a set-up created when its pass is not measured."""


class _GridWorkload(Workload):
    """A campaign grid through ``run_campaign_grid``."""

    testers: Tuple[str, ...] = ()
    grid_options: Dict[str, Any] = {}

    def cells(self, seeds: Tuple[int, ...]) -> Dict[str, Any]:
        """The grid of *seeds*, as ``run_campaign_grid`` arguments."""
        return dict(
            testers=self.testers, engines=ENGINES, seeds=seeds,
            budget_seconds=BUDGET_SECONDS, derive_seeds=True,
            gate_scale=GATE_SCALE, max_queries=self.params["queries"],
            **self.grid_options,
        )

    def grid_args(self, index: int) -> Dict[str, Any]:
        return self.cells(self.seeds(index))

    def run_options(self, prepared: Dict[str, Any]) -> Dict[str, Any]:
        """Runner options beyond the grid itself (logs, recorders)."""
        return {"step_budget": STEP_BUDGET}

    def measure(self, prepared):
        from repro.experiments.campaign import run_campaign_grid

        return run_campaign_grid(**self.grid_args(prepared["index"]),
                                 jobs=self.jobs,
                                 **self.run_options(prepared))

    def check(self, prepared, raw):
        from repro.experiments.campaign import campaign_grid_cells

        return _campaign_outcome(
            raw, campaign_grid_cells(**self.grid_args(prepared["index"])),
            self.params["queries"],
        )


class GqsCompiled(_GridWorkload):
    """GQS on all four engines, compiled core, inline (``jobs=1``)."""

    name = "gqs-compiled"
    testers = ("GQS",)
    grid_options = {"execution_mode": "compiled"}
    counted_passes = 8
    SIZES = {"full": {"seeds": 2, "queries": 25},
             "smoke": {"seeds": 1, "queries": 3}}

    def check(self, prepared, raw):
        outcome = super().check(prepared, raw)
        _no_false_positives(outcome)
        return outcome


class BaselinesGrid(_GridWorkload):
    """The five baselines, interpreted, ``jobs=2``, with event log,
    coverage, triage and bundles."""

    name = "baselines-grid"
    jobs = 2
    testers = BASELINES
    counted_passes = 8
    SIZES = {"full": {"seeds": 1, "queries": 100},
             "smoke": {"seeds": 1, "queries": 3}}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pools = PrestartedPools(self.probe)

    def setup(self, pass_dir, index):
        prepared = super().setup(pass_dir, index)
        self.pools.start(self.jobs)
        return prepared

    def discard(self, prepared):
        self.pools.close()

    def run_options(self, prepared):
        return {**super().run_options(prepared),
                "events_path": prepared["dir"] / "events.jsonl",
                "bundle_dir": prepared["dir"] / "bundles",
                "record_coverage": True, "record_triage": True}

    def check(self, prepared, raw):
        self.pools.close()
        outcome = super().check(prepared, raw)
        log = prepared["dir"] / "events.jsonl"
        outcome.failed += _supervision_failures(_load_log(log),
                                                self.params["queries"])
        outcome.log_bytes = log.stat().st_size
        return outcome


class StatefulService(Workload):
    """Stateful GQS on all four engines, one job on an in-process
    ``CampaignScheduler`` with two lease workers."""

    name = "stateful-service"
    jobs = 2
    service = True
    counted_passes = 6
    SIZES = {"full": {"seeds": 2, "queries": 30},
             "smoke": {"seeds": 1, "queries": 3}}
    STATEFUL_RATIO = 0.5

    def cells(self, seeds: Tuple[int, ...]) -> Dict[str, Any]:
        """The job's grid of *seeds*, as ``run_campaign_grid`` arguments."""
        return dict(
            testers=("GQS",), engines=ENGINES, seeds=seeds,
            budget_seconds=BUDGET_SECONDS, derive_seeds=True,
            gate_scale=GATE_SCALE, max_queries=self.params["queries"],
            stateful=self.STATEFUL_RATIO,
        )

    def spec(self, index: int):
        from repro.service.spec import JobSpec

        return JobSpec(**self.cells(self.seeds(index)),
                       step_budget=STEP_BUDGET)

    def setup(self, pass_dir, index):
        from repro.service.scheduler import CampaignScheduler

        prepared = super().setup(pass_dir, index)
        prepared["journal"] = pass_dir / "journal.jsonl"
        prepared["scheduler"] = CampaignScheduler(prepared["journal"],
                                                  jobs=self.jobs)
        return prepared

    def discard(self, prepared):
        self._stop(prepared["scheduler"])

    @staticmethod
    def _stop(scheduler) -> None:
        """Drain; the tick that finds the scheduler finished stops it."""
        scheduler.drain("benchmark")
        scheduler.run_until(lambda: scheduler.finished, timeout=60)

    def measure(self, prepared):
        scheduler = prepared["scheduler"]
        record = scheduler.submit(self.spec(prepared["index"]))
        scheduler.run_until(timeout=150)
        self._stop(scheduler)
        return record["job"]

    def check(self, prepared, raw):
        from repro.core.reporting import completed_cells_from_events
        from repro.service.scheduler import replay_service_journal

        events = _load_log(prepared["journal"])
        job = replay_service_journal(events)["jobs"].get(raw)
        cells = self.spec(prepared["index"]).cells()
        if job is None or len(job["done"]) != len(cells):
            raise Incorrect("the journal does not fold to the completed job")
        cap = self.params["queries"]
        outcome = _campaign_outcome(completed_cells_from_events(events),
                                    cells, cap)
        _no_false_positives(outcome)
        outcome.failed += _supervision_failures(events, cap)
        outcome.log_bytes = prepared["journal"].stat().st_size
        return outcome


class ReduceBundles(Workload):
    """Set-up records a GQS bundle corpus; the pass reduces it with
    ``ReductionRunner`` (``jobs=2``) under a per-bundle replay budget and a
    per-replay step budget, as ``repro reduce --replay-budget
    --step-budget`` does."""

    name = "reduce-bundles"
    jobs = 2
    counted_passes = 3
    SIZES = {"full": {"seeds": 1, "queries": 25, "bundles": 12},
             "smoke": {"seeds": 1, "queries": 20, "bundles": 2}}
    #: Replays per bundle: bounds each bundle's cost, so a pass reduces
    #: many bundles rather than a few to their fixpoint.
    REPLAY_BUDGET = 100
    #: Seconds a recording cell may run before the supervisor's watchdog
    #: ends it; ordinary recording cells take one or two.
    RECORD_TIMEOUT = 30.0

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.pools = PrestartedPools(self.probe)

    def setup(self, pass_dir, index):
        import shutil

        from repro.experiments.campaign import run_campaign_grid

        prepared = super().setup(pass_dir, index)
        recorded = pass_dir / "recorded"
        cells = run_campaign_grid(
            ["GQS"], ENGINES, seeds=self.seeds(index),
            budget_seconds=BUDGET_SECONDS, derive_seeds=True,
            gate_scale=GATE_SCALE, max_queries=self.params["queries"],
            bundle_dir=recorded, jobs=self.jobs,
            cell_timeout=self.RECORD_TIMEOUT, step_budget=STEP_BUDGET,
        )
        # Recording a bundle replays its query unbudgeted; a cell stuck
        # there is cut by the watchdog and counts as a failed operation.
        prepared["recording_failures"] = (
            len(ENGINES) * self.params["seeds"] - len(cells))
        # The corpus is a fixed count of bundles, ordered by the signature
        # digest that ends each name so that engines mix.
        paths = sorted(recorded.glob("*.json"),
                       key=lambda path: path.stem.rsplit("-", 1)[-1])
        paths = paths[:self.params["bundles"]]
        if not paths:
            raise Incorrect("the recording yielded no bundles")
        corpus = pass_dir / "corpus"
        corpus.mkdir()
        for path in paths:
            shutil.copy(path, corpus / path.name)
        prepared["corpus"] = corpus
        self.pools.start(self.jobs)
        return prepared

    def discard(self, prepared):
        self.pools.close()

    def measure(self, prepared):
        from repro.reduce.runner import ReductionRunner

        return ReductionRunner(
            jobs=self.jobs, replay_budget=self.REPLAY_BUDGET,
            step_budget=STEP_BUDGET,
        ).run([prepared["corpus"]])

    def check(self, prepared, raw):
        """Operations are bundles and recording cells.  Bundles that do
        not replay to their own signature are refused by the reducer and
        count as failed; every reduced bundle must replay to its signature
        and be no larger than its original."""
        from repro.obs.recorder import load_bundle, replay_bundle
        from repro.reduce.oracle import ReductionOracle

        self.pools.close()
        failures = prepared["recording_failures"]
        outcome = Outcome(attempted=len(raw) + failures, failed=failures)
        fingerprint = []
        for result in raw:
            outcome.queries += result.oracle_replays
            if not result.reproduced:
                outcome.failed += 1
                continue
            minimized = load_bundle(result.min_path)
            if not (replay_bundle(minimized).reproduced
                    and ReductionOracle(minimized).baseline()):
                raise Incorrect(f"{Path(result.min_path).name} does not "
                                "replay to its signature")
            grown = [key for key, value in result.reduced.items()
                     if value > result.original.get(key, value)]
            if grown:
                raise Incorrect(f"{Path(result.min_path).name} grew: "
                                f"{grown}")
            outcome.bugs.add(minimized["fault_id"])
            outcome.shrink_ratios.append(
                _size(result.reduced) / _size(result.original))
            fingerprint.append((Path(result.source).name,
                                sorted(result.reduced.items())))
        outcome.fingerprint = fingerprint
        return outcome


def _no_false_positives(outcome: Outcome) -> None:
    if outcome.false_positives:
        raise Incorrect(f"GQS reported {outcome.false_positives} false "
                        "positives")


def _size(sizes: Dict[str, int]) -> int:
    """Bundle size: graph elements and properties plus query bytes."""
    return sum(sizes.get(key, 0) for key in
               ("nodes", "relationships", "properties", "query_bytes"))


WORKLOADS = {cls.name: cls for cls in
             (GqsCompiled, BaselinesGrid, StatefulService, ReduceBundles)}
