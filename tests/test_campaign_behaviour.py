"""Behavioural tests of campaign dynamics the paper's §5.4.4 relies on."""


from repro.baselines import GDBMeterTester
from repro.core.runner import GQSTester
from repro.gdb import EngineOptions, create_engine, faults_for


class TestRestartPolicy:
    def test_gqs_restarts_per_graph(self):
        """GQS's session counter never accumulates across graphs."""
        engine = create_engine("falkordb",
                               options=EngineOptions(faults_enabled=False))
        GQSTester().run(engine, budget_seconds=20.0, seed=1)
        # Each graph is loaded with restart=True, so the counter only holds
        # the queries since the *last* graph.
        assert engine.queries_since_restart < engine.total_queries

    def test_baselines_keep_one_session(self):
        engine = create_engine("falkordb",
                               options=EngineOptions(faults_enabled=False))
        GDBMeterTester().run(engine, budget_seconds=20.0, seed=1)
        # Continuous session: every executed query is still counted.
        assert engine.queries_since_restart == engine.total_queries

    def test_session_faults_unreachable_for_gqs(self):
        """§5.4.4: GQS cannot find the accumulation crashes."""
        engine = create_engine("falkordb")
        result = GQSTester().run(engine, budget_seconds=60.0, seed=2)
        session_ids = {
            fault.fault_id
            for fault in faults_for("falkordb")
            if fault.session_queries_required
        }
        assert not (set(result.detected_faults) & session_ids)


class TestGateScaleSemantics:
    def test_scale_shortens_time_to_first_bug(self):
        slow = create_engine("memgraph", options=EngineOptions(gate_scale=1.0))
        fast = create_engine("memgraph",
                             options=EngineOptions(gate_scale=0.01))
        slow_result = GQSTester().run(slow, budget_seconds=30.0, seed=3)
        fast_result = GQSTester().run(fast, budget_seconds=30.0, seed=3)
        assert len(fast_result.detected_faults) >= len(slow_result.detected_faults)

    def test_open_gates_fire_on_matching_features_only(self):
        """gate_scale=0 opens every gate but never invents feature matches."""
        engine = create_engine("neo4j", options=EngineOptions(gate_scale=0.0))
        graph_engine = create_engine("neo4j",
                                     options=EngineOptions(gate_scale=0.0))
        from repro.graph.generator import GraphGenerator

        graph = GraphGenerator(seed=4).generate()
        engine.load_graph(graph, None)
        # A trivially simple query matches no Neo4j trigger.
        result = engine.execute("MATCH (n) RETURN n.id AS v")
        assert engine.last_fired_fault is None


class TestFalsePositiveAccounting:
    def test_fp_rate_of_gdsmith_is_high(self):
        """§5.4.3: ~98% of GDsmith's reports are false alarms."""
        from repro.baselines import GDsmithTester

        target = create_engine("neo4j",
                               options=EngineOptions(faults_enabled=False))
        others = [
            create_engine("memgraph",
                          options=EngineOptions(faults_enabled=False)),
            create_engine("falkordb",
                          options=EngineOptions(faults_enabled=False)),
        ]
        tester = GDsmithTester(others)
        result = tester.run(target, budget_seconds=100.0, seed=5)
        if result.reports:
            fp_rate = result.false_positive_count / len(result.reports)
            assert fp_rate == 1.0  # engines are clean: every report is an FP

    def test_gqs_never_reports_on_clean_engines(self):
        for name in ("neo4j", "memgraph", "kuzu", "falkordb"):
            engine = create_engine(name,
                                   options=EngineOptions(faults_enabled=False))
            result = GQSTester().run(engine, budget_seconds=15.0, seed=6)
            assert result.reports == [], name
