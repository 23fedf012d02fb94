"""End-to-end tests for stateful campaigns: the state-tracking oracle under
the campaign kernel, v2 sequence bundles (record / replay / reduce), and
grid determinism with ``--stateful``.

All campaigns here run the pinned configuration (seed 11, gate scale 0.15,
20 simulated seconds) that surfaces every state-corruption signature of the
four engine catalogs in a few wall-clock seconds.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.campaign import (
    make_tester,
    run_campaign_grid,
    run_tool_campaign,
)
from repro.gdb import EngineOptions, create_engine
from repro.obs.recorder import (
    BUNDLE_FORMAT,
    BUNDLE_FORMAT_V2,
    FlightRecorder,
    load_bundle,
    replay_bundle,
)
from repro.runtime.kernel import CampaignKernel
from repro.synth.state import StatefulGQSTester

SEED = 11
GATE = 0.15
BUDGET = 20.0
ENGINES = ("neo4j", "memgraph", "kuzu", "falkordb")


def run_stateful(engine_name, recorder=None, budget=BUDGET, ratio=0.6):
    engine = create_engine(engine_name, options=EngineOptions(gate_scale=GATE))
    tester = StatefulGQSTester(stateful_ratio=ratio)
    kernel = CampaignKernel(recorder=recorder)
    return kernel.run(tester, engine, budget, seed=SEED)


@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    """One four-engine stateful campaign with the flight recorder on."""
    bundle_dir = tmp_path_factory.mktemp("state_bundles")
    results = {}
    for engine_name in ENGINES:
        recorder = FlightRecorder(bundle_dir)
        results[engine_name] = run_stateful(engine_name, recorder=recorder)
    return bundle_dir, results


class TestStatefulCampaign:
    def test_state_signatures_surface_with_no_false_positives(self, recorded):
        _bundle_dir, results = recorded
        signatures = set()
        for engine_name, result in results.items():
            assert result.false_positive_count == 0
            for report in result.reports:
                if report.kind == "state":
                    assert report.fault_id is not None
                    signatures.add(f"{engine_name}:{report.fault_id}")
        # Acceptance floor: at least three distinct state-corruption
        # signatures across the four catalogs (this pin yields all five).
        assert len(signatures) >= 3
        assert signatures == {
            "neo4j:neo4j-ST1",
            "memgraph:memgraph-ST1",
            "kuzu:kuzu-ST1",
            "falkordb:falkordb-ST1",
            "falkordb:falkordb-ST2",
        }

    def test_stateful_tester_keeps_gqs_identity(self):
        tester = make_tester("GQS", "neo4j", stateful=0.4)
        assert isinstance(tester, StatefulGQSTester)
        assert tester.name == "GQS"
        assert tester.stateful_ratio == 0.4
        assert not isinstance(make_tester("GQS", "neo4j"), StatefulGQSTester)

    def test_run_tool_campaign_threads_stateful(self):
        result = run_tool_campaign(
            "GQS", "falkordb", budget_seconds=BUDGET, seed=SEED,
            gate_scale=GATE, stateful=0.6,
        )
        assert any(report.kind == "state" for report in result.reports)


class TestSequenceBundles:
    def test_state_bundles_are_v2_and_replay(self, recorded):
        bundle_dir, _results = recorded
        state_bundles = []
        for path in sorted(bundle_dir.glob("*.json")):
            bundle = load_bundle(path)
            assert bundle["format"] == BUNDLE_FORMAT_V2
            assert bundle["statements"]
            assert bundle["query"] == bundle["statements"][-1]
            if bundle.get("kind") == "state":
                state_bundles.append(bundle)
        assert len(state_bundles) >= 3
        for bundle in state_bundles:
            outcome = replay_bundle(bundle)
            assert outcome.reproduced
            assert outcome.discrepant
            # Post-write replays carry the state digest on both sides.
            assert "state" in bundle["expected"]
            assert "state" in bundle["actual"]
            assert (bundle["expected"]["state"]["digest"]
                    != bundle["actual"]["state"]["digest"])

    def test_describe_mentions_sequence(self, recorded):
        bundle_dir, _results = recorded
        path = sorted(bundle_dir.glob("*.json"))[0]
        description = replay_bundle(load_bundle(path)).describe()
        assert "sequence" in description

    def test_v1_bundles_still_record_and_replay(self, tmp_path):
        """A read-only GQS campaign keeps producing v1 bundles."""
        from repro.core.runner import GQSTester

        engine = create_engine("falkordb",
                               options=EngineOptions(gate_scale=GATE))
        recorder = FlightRecorder(tmp_path)
        CampaignKernel(recorder=recorder).run(
            GQSTester(), engine, BUDGET, seed=SEED
        )
        paths = sorted(tmp_path.glob("*.json"))
        assert paths
        for path in paths:
            bundle = load_bundle(path)
            assert bundle["format"] == BUNDLE_FORMAT
            assert "statements" not in bundle
            outcome = replay_bundle(bundle)
            assert outcome.reproduced


class TestSequenceReduction:
    def test_reduce_strictly_shrinks_a_sequence(self, recorded):
        from repro.reduce.runner import reduce_bundle

        bundle_dir, _results = recorded
        candidates = [
            (path, load_bundle(path))
            for path in sorted(bundle_dir.glob("*.json"))
        ]
        reducible = [
            (path, bundle) for path, bundle in candidates
            if len(bundle["statements"]) > 2
        ]
        assert reducible, "pinned campaign produced no multi-statement bundle"
        # Smallest first: cheapest oracle replays, same contract.
        path, bundle = min(
            reducible, key=lambda item: len(item[1]["statements"])
        )
        outcome = reduce_bundle(path, replay_budget=200)
        assert outcome.reproduced
        minimized = load_bundle(outcome.min_path)
        assert (len(minimized["statements"])
                < len(bundle["statements"]))
        assert minimized["signature"] == bundle["signature"]
        assert minimized["query"] == minimized["statements"][-1]
        assert outcome.reduced["statements"] < outcome.original["statements"]
        replay = replay_bundle(minimized)
        assert replay.reproduced
        assert replay.discrepant

    def test_reduction_is_deterministic(self, recorded):
        from repro.reduce.runner import reduce_bundle

        bundle_dir, _results = recorded
        path = next(
            path for path in sorted(bundle_dir.glob("*.json"))
            if len(load_bundle(path)["statements"]) > 1
        )
        first = reduce_bundle(path, write=False, replay_budget=60)
        second = reduce_bundle(path, write=False, replay_budget=60)
        assert first.to_dict() == second.to_dict()


class TestStatefulGridDeterminism:
    GRID_ENGINES = ("neo4j", "falkordb")

    def _grid(self, jobs, tmp_path, name, resume=None):
        return run_campaign_grid(
            ("GQS",), self.GRID_ENGINES, seeds=(SEED,),
            budget_seconds=BUDGET, gate_scale=GATE, jobs=jobs,
            events_path=tmp_path / name, resume_path=resume,
            stateful=0.6,
        )

    def test_jobs_byte_identity_and_resume(self, tmp_path):
        from repro.core.reporting import campaign_to_dict

        serial = self._grid(1, tmp_path, "serial.jsonl")
        parallel = self._grid(2, tmp_path, "parallel.jsonl")
        assert list(serial) == list(parallel)
        for key in serial:
            assert (campaign_to_dict(serial[key])
                    == campaign_to_dict(parallel[key]))
        # Resume from the serial log: every cell is checkpointed, so the
        # resumed grid merges stored results without re-running any.
        resumed = self._grid(
            1, tmp_path, "resumed.jsonl", resume=tmp_path / "serial.jsonl"
        )
        for key in serial:
            assert (campaign_to_dict(resumed[key])
                    == campaign_to_dict(serial[key]))
        events = [
            json.loads(line)
            for line in Path(tmp_path / "resumed.jsonl")
            .read_text().splitlines() if line.strip()
        ]
        start = next(e for e in events if e["event"] == "grid_start")
        assert start["resumed"] == len(serial)
        assert start["pending"] == 0

    def test_interpreted_and_compiled_results_identical(self):
        from repro.core.reporting import campaign_to_dict

        runs = {
            mode: run_tool_campaign(
                "GQS", "neo4j", budget_seconds=10.0, seed=SEED,
                gate_scale=GATE, stateful=0.6, execution_mode=mode,
            )
            for mode in ("interpreted", "compiled")
        }
        assert (campaign_to_dict(runs["interpreted"])
                == campaign_to_dict(runs["compiled"]))
