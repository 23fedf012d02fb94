"""Tests for the experiment harness and the paper's shape claims (§5).

The shape claims of Tables 2-6 and Figures 10-15 and 18 are checked on
small, pinned campaigns: ``mini_campaigns`` for Tables 3-4 and Figures
10-15, ``day_grid`` for Table 6 and Figure 18.  ``repro table N`` and ``repro
figure N`` rebuild them at full scale.
"""

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
    table4,
    table5,
    table6,
    tester_supports,
)
from repro.experiments.campaign import (
    DAY_EQUIVALENT_SECONDS,
    TESTER_NAMES,
    run_campaign_grid,
    split_fault_counts,
)


@pytest.fixture(scope="module")
def mini_campaigns():
    """A small compressed campaign shared by the harness tests.

    Table 3's GQS campaign at seed 1 with 250 queries per engine (``repro
    table 3`` runs 3,000) at the same gate scale, 0.01.
    """
    return run_full_gqs_campaigns(seed=1, max_queries=250, gate_scale=0.01)


@pytest.fixture(scope="module")
def day_grid():
    """Table 6's (tester x engine) grid at seed 0, compressed.

    Each cell runs 30 simulated seconds (``repro table 6`` runs 300) with
    the fault gates scaled by 0.25, so discovery keeps pace with the
    shorter budget.
    """
    grid = run_campaign_grid(
        TESTER_NAMES, ("neo4j", "memgraph", "falkordb"), seeds=(0,),
        budget_seconds=30.0, gate_scale=0.25,
    )
    return {(tester, engine): result
            for (tester, engine, _seed), result in grid.items()}


def _bugs(campaigns, tool):
    """(bugs, logic bugs) *tool* found over a ``day_grid``."""
    total = logic = 0
    for (name, _engine), result in campaigns.items():
        if name == tool:
            found_logic, found_other = split_fault_counts(result.detected_faults)
            total += found_logic + found_other
            logic += found_logic
    return total, logic


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
        assert [row["GDB"] for row in rows] == ["Neo4j", "Memgraph", "Kùzu", "FalkorDB"]
        assert rows[3]["Tested version"] == "4.2.0"

    def test_table3_shape(self, mini_campaigns):
        rows = table3(mini_campaigns)
        assert rows[-1]["GDB"] == "Total"
        total = rows[-1]
        assert total["logic detected"] >= total["logic confirmed"] >= total["logic fixed"]
        # Most of the 36-fault scope is found, logic bugs dominate, and
        # FalkorDB leads (paper: 26 logic + 10 other, FalkorDB 13 + 4).
        assert total["logic detected"] + total["other detected"] >= 28
        assert total["logic detected"] > total["other detected"]
        falkor = rows[3]
        assert falkor["GDB"] == "FalkorDB"
        assert falkor["logic detected"] >= max(row["logic detected"] for row in rows[:3])

    def test_table4_shape(self, mini_campaigns):
        data = table4(mini_campaigns)
        for row in data["missed"]:
            # Every existing tester misses a substantial share of the bugs,
            # and the FalkorDB (RedisGraph) column carries the most misses.
            assert row["Total"] >= 5, row
            supported = [row[engine] for engine in ("neo4j", "memgraph", "falkordb")
                         if isinstance(row[engine], int)]
            assert row["falkordb"] == max(supported), row
        # FalkorDB's missed bugs are the longest-latent.
        latency = data["latency"]
        assert latency["falkordb"]["max"] >= latency["neo4j"]["max"]

    def test_table5_ordering(self):
        rows = table5(n_queries=40, seed=3)
        by_name = {row["Tester"]: row for row in rows}
        gqs = by_name["GQS"]
        for metric in ("Pattern", "Expression", "Clause", "Dependency"):
            for name, row in by_name.items():
                assert gqs[metric] >= row[metric], (metric, name)
        # The baselines' order: GRev and GDsmith complex, GDBMeter and
        # Gamera minimal; GQS has about twice GRev's dependencies (56 vs 28).
        assert by_name["GRev"]["Dependency"] > by_name["GDBMeter"]["Dependency"]
        assert by_name["GDsmith"]["Clause"] > by_name["Gamera"]["Clause"]
        assert gqs["Dependency"] >= 1.4 * by_name["GRev"]["Dependency"]
        assert gqs["Pattern"] > by_name["Gamera"]["Pattern"]

    def test_table6_shape(self, day_grid):
        gqs_bugs, gqs_logic = _bugs(day_grid, "GQS")
        for tool in TESTER_NAMES:
            if tool != "GQS":
                assert gqs_bugs > _bugs(day_grid, tool)[0], tool
        assert gqs_logic >= gqs_bugs - 4
        # GQS never raises a false alarm; GDsmith does, in volume (§5.4.3;
        # 624 in the full 300-second grid).
        false_alarms = {tool: 0 for tool in TESTER_NAMES}
        for (tool, _engine), result in day_grid.items():
            false_alarms[tool] += result.false_positive_count
        assert false_alarms["GQS"] == 0
        assert false_alarms["GDsmith"] > 50

    def test_table6_marks_unsupported_engines(self):
        rows, _campaigns = table6(seed=0, budget_seconds=1.0)
        by_tester = {row["Tester"]: row for row in rows}
        for tool in ("GDBMeter", "Gamera", "GQT"):
            assert by_tester[tool]["memgraph"] == "-"
        assert by_tester["GQS"]["memgraph"] != "-"


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

    def test_bug_distributions_shape(self, mini_campaigns):
        from repro.experiments import collect_trigger_records

        records = collect_trigger_records(mini_campaigns)
        total = len(records)
        assert total >= 25

        def share(predicate):
            return sum(1 for record in records if predicate(record)) / total

        # Figure 10: 80% of bugs need >= 3 synthesis steps.
        assert share(lambda r: r["n_steps"] >= 3) >= 0.7
        # Figure 13: over 61% come from > 20 dependencies.
        assert share(lambda r: r["dependencies"] > 20) >= 0.5
        # Figure 14: two thirds involve > 3 patterns.
        assert share(lambda r: r["patterns"] > 3) >= 0.5
        # Figure 15: 83% nest expressions > 5 levels deep.
        assert share(lambda r: r["depth"] > 5) >= 0.7

    def test_clause_statistics_shape(self, mini_campaigns):
        from repro.experiments import collect_trigger_records

        records = collect_trigger_records(mini_campaigns)
        total = len(records)
        # Figure 11: WHERE refines both MATCH and WITH, so it out-occurs
        # every main clause.
        occurrences = figure11(records)
        main = ("MATCH", "OPTIONAL MATCH", "UNWIND", "WITH", "RETURN", "CALL")
        assert occurrences["WHERE"] >= max(occurrences.get(c, 0) for c in main)
        assert occurrences["MATCH"] > 0 and occurrences["WITH"] > 0
        # Figure 12: the MATCH-WHERE-RETURN skeleton touches almost every
        # bug, and 24 of 36 involve WITH or ORDER BY.
        bugs = figure12(records)
        for clause in ("MATCH", "WHERE", "RETURN"):
            assert bugs.get(clause, 0) >= 0.8 * total, clause
        with_or_order = sum(
            1 for record in records
            if "WITH" in record["clause_names"] or "ORDER BY" in record["clause_names"]
        )
        assert with_or_order >= 0.5 * total

    def test_throughput_model(self):
        throughput = figure10_throughput()
        for series in throughput.values():
            # Monotonically decreasing queries/second as steps grow.
            values = [series[s] for s in range(1, 10)]
            assert values == sorted(values, reverse=True)
            # 9-step queries are 6.6x slower than 3-step ones.
            assert series[3] / series[9] == pytest.approx(6.6, rel=0.02)
        assert throughput["Memgraph"][9] == pytest.approx(6.0, abs=0.1)
        assert throughput["Neo4j"][9] == pytest.approx(3.0, abs=0.1)

    def test_figure18_shape(self, day_grid):
        for engine, tool_series in figure18(day_grid).items():
            gqs_final = tool_series["GQS"][-1][1]
            for tool, points in tool_series.items():
                # GQS's curve ends on top; every curve is cumulative.
                assert gqs_final >= points[-1][1], (engine, tool)
                counts = [count for _t, count in points]
                assert counts == sorted(counts), (engine, tool)

    def test_figure18_session_crashes_land_late(self):
        """GDBMeter's and Gamera's long-session FalkorDB crashes come in the
        second half of the day budget (paper: hours 21 and 17).  These two
        cells run at Table 6's full 300 simulated seconds: the crashes need
        11,500 queries in one session, which no shorter budget reaches."""
        grid = run_campaign_grid(("GDBMeter", "Gamera"), ("falkordb",), seeds=(0,),
                                 budget_seconds=DAY_EQUIVALENT_SECONDS)
        series = figure18(grid, engines=("falkordb",))["FalkorDB"]
        for tool in ("GDBMeter", "Gamera"):
            points = series[tool]
            final = points[-1][1]
            assert final > 0, tool
            assert points[len(points) // 2][1] < final, tool

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
