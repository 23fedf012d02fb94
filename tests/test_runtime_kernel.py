"""Tests for the shared campaign kernel (repro.runtime).

The kernel owns the campaign loop for all six testers: simulated-clock and
budget accounting, session policy, crash/restart handling, fault
deduplication, lazy trigger-record collection, and the event stream.  These
tests drive it with a scripted tester/engine pair so every policy is
observable, then sanity-check the real testers route through it.
"""



from repro.baselines.common import BaselineTester
from repro.baselines.gdsmith import GDsmithTester
from repro.core.reporting import campaign_to_dict
from repro.core.runner import GQSTester
from repro.gdb import EngineOptions, create_engine
from repro.graph.generator import GeneratorConfig
from repro.runtime import (
    BugReport,
    CampaignKernel,
    EventLog,
    Judgement,
    SessionPolicy,
    TesterProtocol,
)


class StubEngine:
    """Minimal engine: records loads/restarts, crashes on demand."""

    name = "stub"

    def __init__(self):
        self.crashed = False
        self.load_restarts = []
        self.restarts = 0

    def load_graph(self, graph, schema, restart=False):
        self.load_restarts.append(restart)

    def restart(self):
        self.restarts += 1
        self.crashed = False


class ScriptedTester(TesterProtocol):
    """Proposes ``per_graph`` queries per graph at 1 simulated second each.

    ``faults[i]`` (by global query index) injects a report for that query;
    ``crash_at`` marks query indexes after which the engine crashes.
    """

    name = "Scripted"

    def __init__(self, per_graph=3, faults=None, crash_at=(),
                 restart_per_graph=False):
        self.generator_config = GeneratorConfig(max_nodes=5, max_relationships=6)
        self.session = SessionPolicy(restart_per_graph=restart_per_graph)
        self.per_graph = per_graph
        self.faults = faults or {}
        self.crash_at = set(crash_at)
        self.query_index = 0
        self.trigger_calls = 0

    def proposals(self, engine, graph, schema, rng):
        for i in range(self.per_graph):
            yield i

    def judge(self, engine, proposal, graph, rng, result):
        index = self.query_index
        self.query_index += 1
        result.sim_seconds += 1.0
        if index in self.crash_at:
            engine.crashed = True
        fault_id = self.faults.get(index)
        if fault_id is None:
            return Judgement()
        report = BugReport(self.name, engine.name, "logic", "scripted", "Q",
                           fault_id, result.sim_seconds)

        def record():
            self.trigger_calls += 1
            return {"fault_id": fault_id}

        return Judgement(report=report, trigger_record=record)


class TestKernelAccounting:
    def test_budget_stops_campaign(self):
        result = CampaignKernel().run(ScriptedTester(), StubEngine(), 10.0)
        assert result.queries_run == 10
        assert result.sim_seconds == 10.0

    def test_max_queries_caps_campaign(self):
        result = CampaignKernel().run(
            ScriptedTester(), StubEngine(), 1000.0, max_queries=7
        )
        assert result.queries_run == 7

    def test_zero_budget_runs_nothing(self):
        engine = StubEngine()
        result = CampaignKernel().run(ScriptedTester(), engine, 0.0)
        assert result.queries_run == 0
        assert engine.load_restarts == []


class TestSessionPolicy:
    def test_long_session_restarts_only_first_load(self):
        engine = StubEngine()
        CampaignKernel().run(
            ScriptedTester(per_graph=3, restart_per_graph=False), engine, 10.0
        )
        assert len(engine.load_restarts) == 4  # ceil(10 / 3) graphs
        assert engine.load_restarts[0] is True
        assert all(flag is False for flag in engine.load_restarts[1:])

    def test_restart_per_graph_restarts_every_load(self):
        engine = StubEngine()
        CampaignKernel().run(
            ScriptedTester(per_graph=3, restart_per_graph=True), engine, 10.0
        )
        assert len(engine.load_restarts) == 4
        assert all(flag is True for flag in engine.load_restarts)

    def test_declared_policies_of_real_testers(self):
        assert GQSTester.session.restart_per_graph is True
        assert BaselineTester.session.restart_per_graph is False


class TestCrashRecovery:
    def test_crash_triggers_restart_and_reload(self):
        engine = StubEngine()
        log = EventLog()
        CampaignKernel(events=log).run(
            ScriptedTester(crash_at=(4,)), engine, 10.0
        )
        assert engine.restarts == 1
        assert engine.crashed is False
        # Recovery reloads the current graph into the restarted instance.
        assert engine.load_restarts.count(True) == 2
        crashes = log.of_kind("crash")
        assert len(crashes) == 1
        assert crashes[0]["engine"] == "stub"

    def test_campaign_continues_after_crash(self):
        result = CampaignKernel().run(
            ScriptedTester(crash_at=(2,)), StubEngine(), 10.0
        )
        assert result.queries_run == 10


class TestFaultAccounting:
    def test_duplicate_faults_dedup_into_one_timeline_entry(self):
        tester = ScriptedTester(faults={1: "f-1", 4: "f-1", 6: "f-2"})
        result = CampaignKernel().run(tester, StubEngine(), 10.0)
        assert len(result.reports) == 3
        assert [fid for _t, fid in result.timeline] == ["f-1", "f-2"]
        assert result.detected_faults == ["f-1", "f-2"]

    def test_trigger_records_computed_lazily_once_per_fault(self):
        tester = ScriptedTester(faults={1: "f-1", 4: "f-1", 6: "f-2"})
        result = CampaignKernel().run(tester, StubEngine(), 10.0)
        assert tester.trigger_calls == 2
        assert [r["fault_id"] for r in result.trigger_records] == ["f-1", "f-2"]


class TestEventStream:
    def test_fault_events_match_timeline(self):
        log = EventLog()
        tester = ScriptedTester(faults={1: "f-1", 6: "f-2"})
        result = CampaignKernel(events=log).run(tester, StubEngine(), 10.0)
        faults = log.of_kind("fault")
        assert [(e["sim_time"], e["fault_id"]) for e in faults] == result.timeline

    def test_query_events_filtered_by_default(self):
        log = EventLog()
        CampaignKernel(events=log).run(ScriptedTester(), StubEngine(), 5.0)
        assert log.of_kind("query") == []

    def test_query_events_recorded_on_request(self):
        log = EventLog(record_queries=True)
        result = CampaignKernel(events=log).run(
            ScriptedTester(), StubEngine(), 5.0
        )
        assert len(log.of_kind("query")) == result.queries_run

    def test_campaign_start_and_end_events(self):
        log = EventLog()
        tester = ScriptedTester(restart_per_graph=True)
        result = CampaignKernel(events=log).run(tester, StubEngine(), 5.0, seed=9)
        (start,) = log.of_kind("campaign_start")
        assert start["tester"] == "Scripted"
        assert start["seed"] == 9
        assert start["restart_per_graph"] is True
        (end,) = log.of_kind("campaign_end")
        assert end["queries_run"] == result.queries_run
        assert end["detected_faults"] == result.detected_faults

    def test_event_stream_written_through_to_jsonl(self, tmp_path):
        from repro.core.reporting import load_event_stream

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            CampaignKernel(events=log).run(
                ScriptedTester(faults={1: "f-1"}, crash_at=(3,)),
                StubEngine(), 6.0,
            )
        loaded = load_event_stream(path)
        assert loaded == log.events
        kinds = [event["event"] for event in loaded]
        assert "fault" in kinds and "crash" in kinds


class TestRealTestersRouteThroughKernel:
    def test_run_is_the_shared_protocol_run(self):
        # No tester carries its own campaign loop anymore.
        assert GQSTester.run is TesterProtocol.run
        assert BaselineTester.run is TesterProtocol.run
        assert GDsmithTester.run is TesterProtocol.run

    def test_gqs_campaign_is_deterministic_through_kernel(self):
        def one():
            engine = create_engine("falkordb",
                                   options=EngineOptions(gate_scale=0.05))
            return campaign_to_dict(GQSTester().run(engine, 15.0, seed=3))

        assert one() == one()

    def test_kernel_and_convenience_run_agree(self):
        engine_a = create_engine("neo4j",
                                 options=EngineOptions(gate_scale=0.05))
        engine_b = create_engine("neo4j",
                                 options=EngineOptions(gate_scale=0.05))
        direct = CampaignKernel().run(GQSTester(), engine_a, 10.0, seed=5)
        convenience = GQSTester().run(engine_b, 10.0, seed=5)
        assert campaign_to_dict(direct) == campaign_to_dict(convenience)

    def test_blind_run_matches_convenience_baseline(self):
        # The cell path (run_tool_campaign -> run_cell) adds nothing to
        # the kernel's campaign: byte-for-byte the tester's own run.
        from repro.experiments.campaign import run_tool_campaign

        direct = GQSTester().run(
            create_engine("falkordb", options=EngineOptions(gate_scale=0.05)),
            6.0, seed=11,
        )
        via_campaign = run_tool_campaign(
            "GQS", "falkordb", budget_seconds=6.0, seed=11, gate_scale=0.05,
        )
        assert campaign_to_dict(direct) == campaign_to_dict(via_campaign)
