"""Shared campaign machinery for the evaluation harness (paper §5).

Time model
----------

The paper's campaigns ran for 24 wall-clock hours (Table 6, Figure 18) or
several months (Table 3).  Our engines carry a query-cost model calibrated
to the paper's reported throughput (≈3 queries/s on Neo4j and ≈6 on Memgraph
for 9-step queries, with a 6.6× cost ratio between 9- and 3-step queries),
and campaigns advance a *simulated clock* by that cost.

Running 24 simulated hours (≈10⁶ queries) is not benchmark-sized, so the
harness compresses time and documents it:

* ``DAY_EQUIVALENT_SECONDS`` (300 simulated seconds) stands in for the
  24-hour budget — fault gates were calibrated so the *absolute discovery
  counts at this budget* track the paper's Table 6.
* the months-long full campaign of Table 3 is emulated by scaling the fault
  gates down (``FULL_CAMPAIGN_GATE_SCALE``), which shortens mean time to
  discovery proportionally without changing which queries can trigger which
  faults.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import fields
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.baselines import (
    GDBMeterTester,
    GDsmithTester,
    GameraTester,
    GQTTester,
    GRevTester,
)
from repro.core.runner import GQSTester
from repro.gdb import ALL_ENGINE_NAMES, create_engine, faults_for
from repro.runtime import (
    CampaignCell,
    CampaignKernel,
    CampaignResult,
    CellConfig,
    CellKey,
    EventLog,
    ParallelCampaignRunner,
    derive_cell_seed,
)

__all__ = [
    "DAY_EQUIVALENT_SECONDS",
    "FULL_CAMPAIGN_GATE_SCALE",
    "FULL_CAMPAIGN_MAX_QUERIES",
    "TESTER_NAMES",
    "tester_supports",
    "make_tester",
    "run_cell",
    "run_tool_campaign",
    "campaign_grid_cells",
    "run_campaign_grid",
    "split_fault_counts",
    "distinct_bug_summary",
]

# 24 paper-hours compressed into 300 simulated seconds (clock compression
# factor 288; see module docstring).
DAY_EQUIVALENT_SECONDS = 300.0

# Gate scale emulating the months-long full campaign of Table 3.
FULL_CAMPAIGN_GATE_SCALE = 0.01
FULL_CAMPAIGN_MAX_QUERIES = 3000

_CELL_OPTIONS = frozenset(field.name for field in fields(CellConfig))

TESTER_NAMES = ("GQS", "GDsmith", "GDBMeter", "Gamera", "GQT", "GRev")

# Which engines each tool supports (paper Tables 4 and 6: GDBMeter, Gamera,
# and GQT did not support Memgraph).
_SUPPORTED = {
    "GQS": ("neo4j", "memgraph", "kuzu", "falkordb"),
    "GDsmith": ("neo4j", "memgraph", "falkordb"),
    "GDBMeter": ("neo4j", "falkordb", "kuzu"),
    "Gamera": ("neo4j", "falkordb", "kuzu"),
    "GQT": ("neo4j", "falkordb", "kuzu"),
    "GRev": ("neo4j", "memgraph", "falkordb"),
}


def tester_supports(tester_name: str, engine_name: str) -> bool:
    """Whether *tester_name* can test *engine_name* (paper §5.4)."""
    return engine_name in _SUPPORTED.get(tester_name, ())


def make_tester(
    name: str,
    target_engine_name: str,
    gate_scale: float = 1.0,
    stateful: Optional[float] = None,
):
    """Instantiate a tester by name.

    GDsmith needs comparison engines; it receives the other two engines it
    supports, each with the same gate scale as the target.  *stateful*
    (GQS only) selects the state-aware tester
    (:class:`repro.synth.state.StatefulGQSTester`) with that write ratio —
    the tester keeps the name ``GQS``, so grid keys and event streams stay
    shaped the same.
    """
    if name == "GQS":
        if stateful is not None:
            from repro.synth.state import StatefulGQSTester

            return StatefulGQSTester(stateful_ratio=stateful)
        return GQSTester()
    if name == "GDBMeter":
        return GDBMeterTester()
    if name == "Gamera":
        return GameraTester()
    if name == "GQT":
        return GQTTester()
    if name == "GRev":
        return GRevTester()
    if name == "GDsmith":
        others = [
            create_engine(engine_name, gate_scale=gate_scale)
            for engine_name in _SUPPORTED["GDsmith"]
            if engine_name != target_engine_name
        ]
        return GDsmithTester(others)
    raise ValueError(f"unknown tester {name!r}")


def _cell_config(config: Optional[CellConfig],
                 options: Dict[str, Any]) -> CellConfig:
    """*config*, or one built from :class:`CellConfig` keyword names with
    the budget defaulting to :data:`DAY_EQUIVALENT_SECONDS`."""
    if config is None:
        return CellConfig(**{"budget_seconds": DAY_EQUIVALENT_SECONDS,
                             **options})
    if options:
        raise TypeError(
            f"cell option(s) {', '.join(sorted(options))} given with config"
        )
    return config


def run_cell(
    cell: CampaignCell,
    *,
    events: Optional[EventLog] = None,
    bundle_dir: Optional[Union[str, Path]] = None,
    reduce_bundles: bool = False,
) -> CampaignResult:
    """Run one campaign cell through the shared campaign kernel.

    Builds the target engine, the tester, the adaptive policy
    (``config.adaptive``), the flight recorder (one repro bundle per new
    bug signature into *bundle_dir*, minimized in place with
    *reduce_bundles*) and the kernel.  With ``config.record_metrics`` the
    kernel runs under a fresh observability scope.  Inline campaigns and
    grid workers (:func:`repro.runtime.parallel._run_cell`) both run
    cells through here; none of the observability options perturbs the
    campaign's RNG stream.
    """
    config = cell.config
    engine = create_engine(cell.engine, gate_scale=config.gate_scale,
                           execution_mode=config.execution_mode)
    tester = make_tester(cell.tester, cell.engine,
                         gate_scale=config.gate_scale,
                         stateful=config.stateful)
    if config.adaptive:
        from repro.runtime.adapt import attach_adaptive_policy

        attach_adaptive_policy(tester, config.adaptive)
    recorder = None
    if bundle_dir is not None:
        from repro.obs import FlightRecorder

        recorder = FlightRecorder(bundle_dir, auto_reduce=reduce_bundles)
    kernel = CampaignKernel(
        events=events,
        record_coverage=config.record_coverage,
        record_triage=config.record_triage,
        recorder=recorder,
        step_budget=config.step_budget,
    )
    scope = nullcontext()
    if config.record_metrics:
        from repro.obs import observed

        scope = observed()
    with scope:
        return kernel.run(tester, engine, config.budget_seconds,
                          seed=cell.seed, max_queries=config.max_queries)


def run_tool_campaign(
    tester_name: str,
    engine_name: str,
    *,
    seed: int = 0,
    events: Optional[EventLog] = None,
    bundle_dir: Optional[Union[str, Path]] = None,
    reduce_bundles: bool = False,
    config: Optional[CellConfig] = None,
    **options: Any,
) -> Optional[CampaignResult]:
    """Run one tool against one engine (:func:`run_cell`); None when
    unsupported.

    The cell options come as *config* or as :class:`CellConfig` keyword
    names (``budget_seconds``, ``gate_scale``, ``execution_mode``,
    ``adaptive``, ``stateful``, ...).
    """
    config = _cell_config(config, options)
    if not tester_supports(tester_name, engine_name):
        return None
    return run_cell(CampaignCell(tester_name, engine_name, seed, config),
                    events=events, bundle_dir=bundle_dir,
                    reduce_bundles=reduce_bundles)


def campaign_grid_cells(
    testers: Sequence[str],
    engines: Sequence[str],
    seeds: Sequence[int] = (0,),
    *,
    derive_seeds: bool = False,
    config: Optional[CellConfig] = None,
    **options: Any,
) -> List[CampaignCell]:
    """Build the (tester × engine × seed) cell list, skipping unsupported
    pairings (the "-" cells of Tables 4 and 6).

    With ``derive_seeds=True`` each cell's RNG seed is decorrelated from the
    base seed via :func:`repro.runtime.derive_cell_seed`; the default keeps
    the base seed verbatim, matching the paper harness's convention of one
    shared seed per grid.  Cell options come as for
    :func:`run_tool_campaign`.
    """
    config = _cell_config(config, options)
    cells = []
    for tester in testers:
        for engine in engines:
            if not tester_supports(tester, engine):
                continue
            for seed in seeds:
                cell_seed = (
                    derive_cell_seed(tester, engine, seed)
                    if derive_seeds
                    else seed
                )
                cells.append(CampaignCell(tester, engine, cell_seed, config))
    return cells


def run_campaign_grid(
    testers: Sequence[str],
    engines: Sequence[str],
    seeds: Sequence[int] = (0,),
    *,
    derive_seeds: bool = False,
    resume_path: Optional[Union[str, Path]] = None,
    config: Optional[CellConfig] = None,
    **options: Any,
) -> Dict[CellKey, CampaignResult]:
    """Run a full campaign grid, optionally parallel and resumable.

    Results are keyed ``(tester, engine, seed)`` in grid order and are
    identical for any ``jobs`` value; with ``resume_path`` cells already
    checkpointed in that event log are merged in without re-running.
    Cell options come as for :func:`run_tool_campaign`; every other
    keyword is a :class:`repro.runtime.ParallelCampaignRunner` argument —
    ``jobs``, ``events_path``, the flight recorder's ``bundle_dir`` and
    ``reduce_bundles``, and the supervisor's ``cell_timeout``,
    ``cell_retries``, ``retry_backoff``, ``quarantine`` and ``chaos``
    (:mod:`repro.runtime.supervisor`).
    """
    cell_options = {name: options.pop(name) for name in list(options)
                    if name in _CELL_OPTIONS}
    cells = campaign_grid_cells(testers, engines, seeds,
                                derive_seeds=derive_seeds, config=config,
                                **cell_options)
    runner = ParallelCampaignRunner(**options)
    return runner.run(cells, resume_path=resume_path)


def split_fault_counts(fault_ids: Sequence[str]) -> Tuple[int, int]:
    """(logic, other) counts for a set of detected fault ids."""
    by_id = {fault.fault_id: fault for name in ALL_ENGINE_NAMES
             for fault in faults_for(name)}
    logic = sum(1 for fid in fault_ids if by_id[fid].is_logic)
    return logic, len(fault_ids) - logic


def distinct_bug_summary(
    results: Dict[CellKey, CampaignResult],
) -> Dict[str, Dict[str, int]]:
    """Per-tester distinct-bug accounting over a grid's raw report streams.

    The campaign tables report raw discrepancy counts; this folds each
    tester's :attr:`~repro.runtime.results.CampaignResult.reports` through
    the triage signatures (:func:`repro.obs.triage.distinct_signatures`), so
    table-4-style outputs can show *distinct bugs* alongside occurrences —
    the mechanical analogue of the paper's manual deduplication (§7).
    """
    from repro.obs import distinct_signatures

    summary: Dict[str, Dict[str, int]] = {}
    for (tester, _engine, _seed), result in sorted(results.items()):
        reports = [r for r in result.reports if r is not None]
        sigs = distinct_signatures(reports)
        entry = summary.setdefault(
            tester, {"reports": 0, "distinct": 0, "signatures": {}}
        )
        entry["reports"] += len(reports)
        merged = entry["signatures"]
        for sig, count in sigs.items():
            merged[sig] = merged.get(sig, 0) + count
        entry["distinct"] = len(merged)
    return summary
