"""Tests for the parallel campaign grid runner (repro.runtime.parallel).

The acceptance bar for the fan-out is byte-identical results for any worker
count, deterministic per-cell seed derivation, and checkpoint/resume from
the JSONL event stream.
"""

import json

import pytest

from repro.core.reporting import (
    campaign_to_dict,
    completed_cells_from_events,
    load_event_stream,
)
from repro.experiments.campaign import run_campaign_grid
from repro.runtime import (
    CampaignCell,
    CellConfig,
    ParallelCampaignRunner,
    derive_cell_seed,
)

# A small but non-trivial grid: two testers, one engine, ~6 simulated
# seconds each — enough to run hundreds of queries and detect faults.
TESTERS = ("GQS", "GQT")
ENGINE = "falkordb"
BUDGET = 6.0


def small_cells():
    return [
        CampaignCell(tester, ENGINE, 0, CellConfig(BUDGET, gate_scale=0.05))
        for tester in TESTERS
    ]


def grid_fingerprint(results):
    """Canonical JSON of the whole grid, for byte-identity comparisons."""
    return json.dumps(
        {"|".join(map(str, key)): campaign_to_dict(result)
         for key, result in results.items()},
        sort_keys=True,
    )


class TestDeterminism:
    def test_jobs_1_and_jobs_8_are_byte_identical(self):
        sequential = ParallelCampaignRunner(jobs=1).run(small_cells())
        parallel = ParallelCampaignRunner(jobs=8).run(small_cells())
        assert grid_fingerprint(sequential) == grid_fingerprint(parallel)
        # Spelled out: same detected-fault sets and same timelines.
        for key, result in sequential.items():
            assert parallel[key].detected_faults == result.detected_faults
            assert parallel[key].timeline == result.timeline

    def test_results_keyed_and_ordered_by_grid(self):
        results = ParallelCampaignRunner(jobs=2).run(small_cells())
        assert list(results) == [("GQS", ENGINE, 0), ("GQT", ENGINE, 0)]


class TestSeedDerivation:
    def test_fixed_values(self):
        # Pinned: any change here silently reshuffles every derived grid.
        assert derive_cell_seed("GQS", "neo4j", 0) == 18115982326878091436
        assert derive_cell_seed("GQS", "neo4j", 1) == 13583927294016456594
        assert derive_cell_seed("GQT", "neo4j", 0) == 13929987610319556633

    def test_cells_are_decorrelated(self):
        seeds = {
            derive_cell_seed(tester, engine, seed)
            for tester in ("GQS", "GQT", "GRev")
            for engine in ("neo4j", "falkordb")
            for seed in (0, 1)
        }
        assert len(seeds) == 12


class TestCheckpointResume:
    def test_interrupted_grid_resumes_from_last_completed_cell(self, tmp_path):
        full_log = tmp_path / "full.jsonl"
        reference = ParallelCampaignRunner(jobs=1, events_path=full_log).run(
            small_cells()
        )

        # Simulate a kill after the first completed cell: truncate the log
        # right after its cell_complete checkpoint.
        lines = full_log.read_text().splitlines()
        cut = next(
            i for i, line in enumerate(lines)
            if json.loads(line)["event"] == "cell_complete"
        )
        partial_log = tmp_path / "partial.jsonl"
        partial_log.write_text("\n".join(lines[: cut + 1]) + "\n")

        resumed = ParallelCampaignRunner(
            jobs=1, events_path=tmp_path / "resumed.jsonl"
        ).run(small_cells(), resume_path=partial_log)
        assert grid_fingerprint(resumed) == grid_fingerprint(reference)

        # Only the second cell actually re-ran.
        resumed_events = load_event_stream(tmp_path / "resumed.jsonl")
        starts = [e for e in resumed_events if e["event"] == "campaign_start"]
        assert [e["tester"] for e in starts] == ["GQT"]
        (grid_start,) = (e for e in resumed_events if e["event"] == "grid_start")
        assert grid_start["resumed"] == 1 and grid_start["pending"] == 1

    def test_completed_cells_round_trip_through_the_log(self, tmp_path):
        log = tmp_path / "grid.jsonl"
        results = ParallelCampaignRunner(jobs=1, events_path=log).run(
            small_cells()
        )
        recorded = completed_cells_from_events(load_event_stream(log))
        assert set(recorded) == set(results)
        for key, result in results.items():
            assert campaign_to_dict(recorded[key]) == campaign_to_dict(result)


class TestGridHygiene:
    def test_duplicate_cells_rejected(self):
        cells = small_cells() + small_cells()[:1]
        with pytest.raises(ValueError, match="duplicate"):
            ParallelCampaignRunner(jobs=1).run(cells)

    def test_unsupported_pairings_skipped(self):
        results = run_campaign_grid(
            ("GDBMeter",), ("memgraph", "falkordb"), seeds=(0,),
            budget_seconds=2.0, gate_scale=0.05,
        )
        assert list(results) == [("GDBMeter", "falkordb", 0)]

    def test_derived_seeds_decorrelate_replicates(self):
        results = run_campaign_grid(
            ("GQT",), (ENGINE,), seeds=(0, 1), budget_seconds=2.0,
            gate_scale=0.05, derive_seeds=True,
        )
        a, b = results.values()
        assert (a.queries_run, a.sim_seconds) != (b.queries_run, b.sim_seconds)
