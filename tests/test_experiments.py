"""Tests for the experiment harness (small budgets; shapes only)."""

import pytest

from repro.runtime.results import CampaignResult
from repro.experiments import (
    figure10,
    figure10_throughput,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    figure18,
    make_tester,
    render_histogram,
    render_kv,
    render_series,
    render_table,
    run_full_gqs_campaigns,
    run_tool_campaign,
    table2,
    table3,
    table5,
    tester_supports,
)


@pytest.fixture(scope="module")
def mini_campaigns():
    """A small compressed campaign shared by the harness tests."""
    return run_full_gqs_campaigns(seed=1, max_queries=250, gate_scale=0.01)


class TestCampaignHelpers:
    def test_supported_matrix(self):
        assert tester_supports("GQS", "kuzu")
        assert not tester_supports("GDBMeter", "memgraph")
        assert not tester_supports("Gamera", "memgraph")
        assert not tester_supports("GQT", "memgraph")
        assert tester_supports("GRev", "memgraph")
        assert not tester_supports("GDsmith", "kuzu")

    def test_make_tester_names(self):
        for name in ("GQS", "GDsmith", "GDBMeter", "Gamera", "GQT", "GRev"):
            tester = make_tester(name, "neo4j")
            assert tester.name == name
        with pytest.raises(ValueError):
            make_tester("nope", "neo4j")

    def test_run_tool_campaign_unsupported_returns_none(self):
        assert run_tool_campaign("GDBMeter", "memgraph") is None

    def test_run_tool_campaign_small(self):
        result = run_tool_campaign(
            "GQS", "memgraph", budget_seconds=10.0, seed=2
        )
        assert isinstance(result, CampaignResult)
        assert result.queries_run > 0


class TestTables:
    def test_table2_static(self):
        rows = table2()
        assert len(rows) == 4
        assert rows[0]["GDB"] == "Neo4j"
        assert rows[3]["Tested version"] == "4.2.0"

    def test_table3_shape(self, mini_campaigns):
        rows = table3(mini_campaigns)
        assert rows[-1]["GDB"] == "Total"
        total = rows[-1]
        assert total["logic detected"] >= total["logic confirmed"] >= total["logic fixed"]
        assert total["logic detected"] + total["other detected"] >= 10

    def test_table5_ordering(self):
        rows = table5(n_queries=40, seed=3)
        by_name = {row["Tester"]: row for row in rows}
        assert by_name["GQS"]["Dependency"] > by_name["GDBMeter"]["Dependency"]
        assert by_name["GQS"]["Pattern"] > by_name["Gamera"]["Pattern"]


class TestFigures:
    def test_records_and_distributions(self, mini_campaigns):
        from repro.experiments import collect_trigger_records

        records = collect_trigger_records(mini_campaigns)
        assert records
        fig10 = figure10(records)
        assert set(fig10) == {"Neo4j", "Memgraph", "Kùzu", "FalkorDB"}
        assert sum(sum(v.values()) for v in fig10.values()) == len(records)

        for figure in (figure13, figure14, figure15):
            histogram = figure(records)
            assert sum(histogram.values()) == len(records)

        clause_hist = figure11(records)
        assert clause_hist.get("MATCH", 0) > 0
        bug_hist = figure12(records)
        assert max(bug_hist.values()) <= len(records)

    def test_throughput_model(self):
        throughput = figure10_throughput()
        for series in throughput.values():
            # Monotonically decreasing queries/second as steps grow.
            values = [series[s] for s in range(1, 10)]
            assert values == sorted(values, reverse=True)

    def test_figure18_series(self):
        campaigns = {
            ("GQS", "neo4j"): _fake_campaign([(1.0, "a"), (5.0, "b")]),
            ("GRev", "neo4j"): _fake_campaign([(8.0, "c")]),
        }
        series = figure18(campaigns, engines=("neo4j",), n_points=4)
        neo = series["Neo4j"]
        assert neo["GQS"][-1][1] == 2
        assert neo["GRev"][0][1] == 0


def _fake_campaign(timeline):
    result = CampaignResult("T", "neo4j")
    result.sim_seconds = 10.0
    result.timeline = timeline
    return result


class TestRenderers:
    def test_render_table_alignment(self):
        text = render_table([{"a": 1, "bb": "xy"}, {"a": 222, "bb": ""}], "T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_render_table_empty(self):
        assert "(empty)" in render_table([], "T")

    def test_render_histogram(self):
        text = render_histogram({"x": 10, "y": 0}, "H", width=10)
        assert "##########" in text
        assert " 0" in text

    def test_render_series(self):
        text = render_series({"GQS": [(0, 0), (1.5, 2)]})
        assert "0:0" in text and "1.5:2" in text

    def test_render_kv(self):
        text = render_kv({"k": "v"}, "T")
        assert "k: v" in text
