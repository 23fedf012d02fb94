"""Tests for the observability layer (repro.obs) and the driver-style API.

Covers the zero-cost-when-off contract, deterministic metric merges across
worker counts, the ``GraphDatabase.session`` context manager, keyword-only
tuning parameters, ``ResultSet.to_table``, and the ``repro stats`` /
``repro trace`` CLI verbs on a recorded event log.
"""

import json

import pytest

from repro.cli import main
from repro.core.reporting import load_event_stream
from repro.engine.binding import ResultSet
from repro.engine.errors import CypherRuntimeError
from repro.experiments.campaign import run_campaign_grid, run_tool_campaign
from repro.gdb import EngineOptions, EngineSpec, create_engine
from repro.gdb.engines import FalkorDBSim, GraphDatabase, Neo4jSim, Session
from repro.graph.generator import GraphGenerator
from repro.obs import (
    DEFAULT_TIME_EDGES,
    PROBE,
    MetricsRegistry,
    NullRegistry,
    Tracer,
    deterministic_view,
    merge_snapshots,
    metric_key,
    observed,
    render_stats,
    render_trace,
    split_metric_key,
)


class TestMetricsRegistry:
    def test_counter_gauge_histogram(self):
        reg = MetricsRegistry()
        reg.counter("q", engine="neo4j").inc(3)
        reg.counter("q", engine="neo4j").inc(2)
        reg.gauge("t").set(4.5)
        hist = reg.histogram("h", edges=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0):
            hist.observe(value)
        snap = reg.snapshot()
        assert snap["counters"][metric_key("q", {"engine": "neo4j"})] == 5
        assert snap["gauges"]["t"] == 4.5
        data = snap["histograms"]["h"]
        assert data["counts"] == [1, 1, 1]  # one per bucket incl. overflow
        assert data["count"] == 3
        assert data["min"] == 0.5 and data["max"] == 50.0

    def test_metric_key_round_trip(self):
        key = metric_key("campaign.queries", {"tester": "GQS", "engine": "kuzu"})
        name, labels = split_metric_key(key)
        assert name == "campaign.queries"
        assert labels == {"engine": "kuzu", "tester": "GQS"}
        # Label order never matters: keys are canonical.
        assert key == metric_key(
            "campaign.queries", {"engine": "kuzu", "tester": "GQS"}
        )

    def test_same_instrument_returned(self):
        reg = MetricsRegistry()
        assert reg.counter("a", x="1") is reg.counter("a", x="1")
        assert reg.counter("a", x="1") is not reg.counter("a", x="2")

    def test_merge_sums_counters_and_histograms(self):
        snaps = []
        for _ in range(3):
            reg = MetricsRegistry()
            reg.counter("n").inc(2)
            reg.gauge("g").set(1.0)
            reg.histogram("h", edges=(1.0,)).observe(0.5)
            snaps.append(reg.snapshot())
        merged = merge_snapshots(snaps)
        assert merged["counters"]["n"] == 6
        assert merged["histograms"]["h"]["counts"] == [3, 0]
        assert merged["histograms"]["h"]["count"] == 3

    def test_merge_gauges_take_max(self):
        snaps = []
        for value in (3.0, 7.0, 5.0):
            reg = MetricsRegistry()
            reg.gauge("g").set(value)
            snaps.append(reg.snapshot())
        assert merge_snapshots(snaps)["gauges"]["g"] == 7.0

    def test_merge_rejects_mismatched_edges(self):
        a = MetricsRegistry()
        a.histogram("h", edges=(1.0, 2.0)).observe(0.5)
        b = MetricsRegistry()
        b.histogram("h", edges=(1.0, 3.0)).observe(0.5)
        with pytest.raises(ValueError):
            merge_snapshots([a.snapshot(), b.snapshot()])

    def test_merge_is_order_independent(self):
        """Element-wise sums commute — the property the parallel barrier
        merge relies on to be worker-count independent."""
        regs = []
        for i in range(4):
            reg = MetricsRegistry()
            reg.counter("n").inc(i + 1)
            reg.histogram("h").observe(10.0 ** (-i))
            regs.append(reg.snapshot())
        forward = merge_snapshots(regs)
        backward = merge_snapshots(list(reversed(regs)))
        assert forward == backward

    def test_deterministic_view_drops_timings(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(1)
        reg.histogram("t", timing=True).observe(0.25)
        snap = reg.snapshot()
        assert "t" in snap["timings"]
        view = deterministic_view(snap)
        assert "timings" not in view
        assert view["counters"] == {"n": 1}

    def test_default_time_edges_are_sorted(self):
        assert list(DEFAULT_TIME_EDGES) == sorted(DEFAULT_TIME_EDGES)


class TestProbe:
    def test_off_by_default(self):
        assert not PROBE.on
        assert isinstance(PROBE.metrics, NullRegistry)

    def test_null_registry_is_inert(self):
        reg = NullRegistry()
        reg.counter("x", a="b").inc(5)
        reg.gauge("y").set(1.0)
        reg.histogram("z").observe(2.0)
        assert reg.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}, "timings": {},
        }

    def test_observed_scopes_and_restores(self):
        assert not PROBE.on
        with observed() as (metrics, _tracer):
            assert PROBE.on
            assert PROBE.metrics is metrics
            metrics.counter("inside").inc(1)
        assert not PROBE.on
        assert isinstance(PROBE.metrics, NullRegistry)

    def test_nested_scopes_do_not_mix(self):
        with observed() as (outer, _t1):
            outer.counter("a").inc(1)
            with observed() as (inner, _t2):
                inner.counter("b").inc(1)
            assert PROBE.metrics is outer
            assert "b" not in PROBE.metrics.snapshot()["counters"]

    def test_tracer_spans_nest_and_feed_stage_histogram(self):
        reg = MetricsRegistry()
        tracer = Tracer(registry=reg, sim_clock=lambda: 42.0)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        spans = tracer.drain()
        assert [span["name"] for span in spans] == ["inner", "outer"]
        inner, outer = spans
        assert inner["parent"] == outer["id"]
        assert inner["sim0"] == 42.0 and inner["sim1"] == 42.0
        timings = reg.snapshot()["timings"]
        assert metric_key("stage.seconds", {"stage": "outer"}) in timings
        assert tracer.drain() == []  # drain clears


class TestCampaignDeterminism:
    def test_results_identical_with_metrics_on_and_off(self):
        kwargs = dict(budget_seconds=10.0, seed=5, gate_scale=0.05)
        plain = run_tool_campaign("GQS", "falkordb", **kwargs)
        with observed() as (metrics, _tracer):
            traced = run_tool_campaign("GQS", "falkordb", **kwargs)
        assert traced.queries_run == plain.queries_run
        assert traced.detected_faults == plain.detected_faults
        assert traced.timeline == plain.timeline
        assert traced.sim_seconds == plain.sim_seconds
        snap = metrics.snapshot()
        key = metric_key(
            "campaign.queries", {"engine": "falkordb", "tester": "GQS"}
        )
        assert snap["counters"][key] == plain.queries_run

    def test_grid_snapshot_independent_of_jobs(self, tmp_path):
        def grid_snapshot(jobs):
            path = tmp_path / f"jobs{jobs}.jsonl"
            run_campaign_grid(
                ("GQS", "GRev"), ("falkordb",), seeds=(0, 1),
                budget_seconds=6.0, gate_scale=0.05, derive_seeds=True,
                jobs=jobs, events_path=path, record_metrics=True,
            )
            events = load_event_stream(path)
            grid = [e for e in events
                    if e.get("event") == "metrics" and e.get("scope") == "grid"]
            assert len(grid) == 1
            return deterministic_view(grid[0]["snapshot"])

        assert grid_snapshot(1) == grid_snapshot(2)

    def test_span_and_metrics_events_tolerated_by_resume(self, tmp_path):
        path = tmp_path / "events.jsonl"
        first = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0,), budget_seconds=6.0,
            gate_scale=0.05, jobs=1, events_path=path, record_metrics=True,
        )
        events = load_event_stream(path)
        kinds = {event["event"] for event in events}
        assert "span" in kinds and "metrics" in kinds
        # Resuming over a log full of span/metrics events re-runs nothing.
        resumed = run_campaign_grid(
            ("GQS",), ("falkordb",), seeds=(0,), budget_seconds=6.0,
            gate_scale=0.05, jobs=1, resume_path=path,
        )
        key = ("GQS", "falkordb", 0)
        assert resumed[key].detected_faults == first[key].detected_faults
        assert resumed[key].queries_run == first[key].queries_run


class TestSessionAPI:
    @pytest.fixture
    def graph_schema(self):
        return GraphGenerator(seed=3).generate_with_schema()

    def test_session_runs_queries(self, graph_schema):
        schema, graph = graph_schema
        engine = create_engine("neo4j",
                               options=EngineOptions(faults_enabled=False))
        with engine.session(graph, schema) as session:
            result = session.run("MATCH (n) RETURN count(*) AS c")
            assert result.rows[0][0] == graph.node_count
            assert session.engine is engine
            assert session.last_fault is None
        assert session.closed

    def test_closed_session_raises(self, graph_schema):
        schema, graph = graph_schema
        engine = create_engine("neo4j",
                               options=EngineOptions(faults_enabled=False))
        session = engine.session(graph, schema)
        session.close()
        with pytest.raises(CypherRuntimeError):
            session.run("RETURN 1 AS x")

    def test_session_without_graph_keeps_state(self, graph_schema):
        schema, graph = graph_schema
        engine = create_engine("falkordb",
                               options=EngineOptions(faults_enabled=False))
        engine.load_graph(graph, schema)
        engine.execute("RETURN 1 AS x")
        with engine.session() as session:  # no graph: reuse what is loaded
            session.run("RETURN 2 AS x")
        assert engine.queries_since_restart == 2

    def test_session_restart_false_keeps_counter(self, graph_schema):
        schema, graph = graph_schema
        engine = create_engine("falkordb",
                               options=EngineOptions(faults_enabled=False))
        engine.load_graph(graph, schema)
        engine.execute("RETURN 1 AS x")
        with engine.session(graph, schema, restart=False) as session:
            session.run("RETURN 2 AS x")
        assert engine.queries_since_restart == 2
        with engine.session(graph, schema) as session:  # default restarts
            session.run("RETURN 3 AS x")
        assert engine.queries_since_restart == 1


class TestKeywordOnlyAPI:
    def test_create_engine_rejects_positional_tuning(self):
        with pytest.raises(TypeError):
            create_engine("neo4j", False)

    def test_sim_engines_reject_positional_tuning(self):
        with pytest.raises(TypeError):
            Neo4jSim(False)
        with pytest.raises(TypeError):
            FalkorDBSim(True, 0.5)

    def test_graph_database_rejects_positional_tuning(self):
        dialect = create_engine("neo4j").dialect
        with pytest.raises(TypeError):
            GraphDatabase(dialect, None, False)

    def test_load_graph_rejects_positional_restart(self):
        schema, graph = GraphGenerator(seed=1).generate_with_schema()
        engine = create_engine("neo4j")
        with pytest.raises(TypeError):
            engine.load_graph(graph, schema, False)

    def test_session_rejects_positional_restart(self):
        schema, graph = GraphGenerator(seed=1).generate_with_schema()
        engine = create_engine("neo4j")
        with pytest.raises(TypeError):
            engine.session(graph, schema, False)

    def test_engine_spec_is_keyword_only(self):
        with pytest.raises(TypeError):
            EngineSpec("neo4j", False)
        spec = EngineSpec("neo4j", faults_enabled=False, gate_scale=0.5)
        assert spec.gate_scale == 0.5


class TestResultSetToTable:
    def test_format_result_delegates_to_to_table(self):
        engine = create_engine("neo4j",
                               options=EngineOptions(faults_enabled=False))
        result = ResultSet(["x"], [(1.5,), ([1, "a"],)])
        assert engine.format_result(result) == result.to_table(engine.dialect)

    def test_dialect_float_digits_respected(self):
        result = ResultSet(["x"], [(0.1234567890123,)])
        class SixDigits:
            float_format_digits = 6
        assert result.to_table(SixDigits()) == [["0.123457"]]
        full = result.to_table()  # no dialect: full precision repr
        assert full == [[repr(0.1234567890123)]]

    def test_lists_render_recursively(self):
        result = ResultSet(["x"], [([1.25, [2.5]],)])
        class OneDigit:
            float_format_digits = 1
        assert result.to_table(OneDigit()) == [["[1, [2]]"]]


class TestObservabilityCLI:
    @pytest.fixture(scope="class")
    def event_log(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("obs") / "events.jsonl"
        code = main([
            "run", "--engine", "falkordb", "--minutes", "0.15",
            "--gate-scale", "0.05", "--metrics", "--events", str(path),
        ])
        assert code == 0
        return path

    def test_run_alias_records_metrics_events(self, event_log):
        kinds = {event["event"] for event in load_event_stream(event_log)}
        assert "metrics" in kinds and "span" in kinds

    def test_stats_renders_stage_histograms(self, event_log, capsys):
        assert main(["stats", str(event_log)]) == 0
        out = capsys.readouterr().out
        for stage in ("synthesize", "propose", "judge", "execute"):
            assert f"stage {stage}" in out
        assert "queries per tester" in out
        assert "GQS" in out and "falkordb" in out

    def test_trace_renders_span_tree(self, event_log, capsys):
        assert main(["trace", str(event_log)]) == 0
        out = capsys.readouterr().out
        assert "[GQS/falkordb/0]" in out
        assert "campaign" in out and "synthesize" in out
        # Child spans are indented under their parents.
        lines = out.splitlines()
        campaign_line = next(l for l in lines if "campaign" in l)
        synth_line = next(l for l in lines if "synthesize" in l)
        indent = lambda line: len(line) - len(line.lstrip())
        assert indent(synth_line) > indent(campaign_line)

    def test_stats_without_metrics_says_so(self, tmp_path, capsys):
        path = tmp_path / "plain.jsonl"
        path.write_text(json.dumps({"event": "cell_complete"}) + "\n")
        assert main(["stats", str(path)]) == 0
        assert "--metrics" in capsys.readouterr().out

    def test_missing_log_is_an_error(self, tmp_path, capsys):
        assert main(["stats", str(tmp_path / "absent.jsonl")]) == 2

    def test_render_helpers_accept_event_dicts(self, event_log):
        events = load_event_stream(event_log)
        assert "== counters ==" in render_stats(events)
        assert "×" in render_trace(events) or "x" in render_trace(events)


def test_session_repr_mentions_engine():
    engine = create_engine("neo4j")
    session = Session(engine)
    assert "neo4j" in repr(session)
    session.close()
    assert "closed" in repr(session)
