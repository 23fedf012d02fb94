"""Tests for the GQS campaign runner."""


from repro.core.runner import GQSTester, synthesizer_config_for
from repro.runtime.results import BugReport, CampaignResult
from repro.gdb import ReferenceGDB, create_engine


class TestSynthesizerConfigForDialect:
    def test_kuzu_config(self):
        engine = create_engine("kuzu")
        config = synthesizer_config_for(engine)
        assert config.needs_uniqueness_predicates
        assert not config.supports_call_procedures

    def test_neo4j_config(self):
        engine = create_engine("neo4j")
        config = synthesizer_config_for(engine)
        assert not config.needs_uniqueness_predicates
        assert config.supports_call_procedures

    def test_overrides(self):
        engine = create_engine("neo4j")
        config = synthesizer_config_for(engine, union_probability=0.5)
        assert config.union_probability == 0.5


class TestCampaign:
    def test_no_false_positives_on_clean_engine(self):
        """GQS on a correct engine must report nothing (no-FP design)."""
        engine = ReferenceGDB()
        tester = GQSTester()
        result = tester.run(engine, budget_seconds=30.0, seed=0)
        assert result.reports == []
        assert result.queries_run > 20

    def test_detects_faults_with_open_gates(self):
        engine = create_engine("falkordb", gate_scale=0.0)
        tester = GQSTester()
        result = tester.run(engine, budget_seconds=30.0, seed=1)
        assert len(result.detected_faults) >= 3
        assert result.false_positive_count == 0

    def test_budget_respected(self):
        engine = ReferenceGDB()
        result = GQSTester().run(engine, budget_seconds=5.0, seed=2)
        # The clock may overshoot by at most one query's cost; a large UNION
        # query can cost a few simulated seconds on its own.
        assert result.sim_seconds < 5.0 + 6.0

    def test_max_queries_respected(self):
        engine = ReferenceGDB()
        result = GQSTester().run(
            engine, budget_seconds=1e9, seed=3, max_queries=25
        )
        assert result.queries_run == 25

    def test_timeline_is_monotone_and_unique(self):
        engine = create_engine("memgraph", gate_scale=0.05)
        result = GQSTester().run(engine, budget_seconds=60.0, seed=4)
        times = [when for when, _fid in result.timeline]
        assert times == sorted(times)
        fault_ids = [fid for _when, fid in result.timeline]
        assert len(fault_ids) == len(set(fault_ids))

    def test_trigger_records_capture_metrics(self):
        engine = create_engine("falkordb", gate_scale=0.0)
        result = GQSTester().run(engine, budget_seconds=30.0, seed=5)
        assert result.trigger_records
        record = result.trigger_records[0]
        for key in ("fault_id", "n_steps", "patterns", "depth",
                    "clauses", "dependencies", "clause_names", "query_text"):
            assert key in record

    def test_reports_carry_queries(self):
        engine = create_engine("falkordb", gate_scale=0.0)
        result = GQSTester().run(engine, budget_seconds=20.0, seed=6)
        for report in result.reports:
            assert report.query_text
            assert report.kind in ("logic", "error")

    def test_deterministic_given_seed(self):
        a = GQSTester().run(
            create_engine("kuzu", gate_scale=0.1), budget_seconds=20.0, seed=7
        )
        b = GQSTester().run(
            create_engine("kuzu", gate_scale=0.1), budget_seconds=20.0, seed=7
        )
        assert a.detected_faults == b.detected_faults
        assert a.queries_run == b.queries_run

    def test_crash_recovery(self):
        """The campaign restarts crashed instances and keeps testing."""
        from repro.gdb import faults_for

        engine = create_engine("kuzu", gate_scale=0.0)
        # Leave only the crash fault so logic faults cannot mask it.
        engine.faults = [
            fault for fault in faults_for("kuzu") if fault.fault_id == "kuzu-O1"
        ]
        result = GQSTester().run(engine, budget_seconds=30.0, seed=8)
        assert any(r.fault_id == "kuzu-O1" for r in result.reports)
        # The campaign continued after the crash.
        assert result.queries_run > 10


class TestCampaignResult:
    def test_detected_faults_deduplicated(self):
        result = CampaignResult("T", "e")
        for _ in range(2):
            result.reports.append(
                BugReport("T", "e", "logic", "d", "q", "f1", 0.0)
            )
        result.reports.append(BugReport("T", "e", "logic", "d", "q", None, 0.0))
        assert result.detected_faults == ["f1"]
        assert result.false_positive_count == 1

    def test_merge(self):
        a = CampaignResult("T", "e1")
        a.queries_run = 5
        a.sim_seconds = 10.0
        b = CampaignResult("T", "e2")
        b.queries_run = 3
        b.sim_seconds = 20.0
        merged = a.merge(b)
        assert merged.queries_run == 8
        assert merged.sim_seconds == 20.0
