"""Coverage for smaller surfaces: catalog doc, formatting, record stats."""

import pytest

from repro.gdb import EngineOptions, create_engine
from repro.graph.generator import GraphGenerator


class TestBugCatalogDoc:
    def test_render_includes_every_fault(self):
        import importlib.util
        from pathlib import Path

        script = Path("scripts/generate_bug_catalog.py")
        spec = importlib.util.spec_from_file_location("gen_bugs", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

        text = module.render()
        from repro.gdb import all_faults

        for fault in all_faults():
            assert fault.fault_id in text
        assert "Figure 7" in text  # the Neo4j headline bug
        assert "session-only" in text

    def test_checked_in_catalog_is_current(self):
        """docs/BUGS.md must match the generator output."""
        import importlib.util
        from pathlib import Path

        script = Path("scripts/generate_bug_catalog.py")
        spec = importlib.util.spec_from_file_location("gen_bugs2", script)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert Path("docs/BUGS.md").read_text() == module.render()


class TestDriverFormatting:
    def test_list_rendering_recurses(self):
        from repro.engine.binding import ResultSet

        engine = create_engine("falkordb",
                               options=EngineOptions(faults_enabled=False))
        result = ResultSet(["x"], [([1.23456789012, "a"],)])
        rendered = engine.format_result(result)
        assert rendered[0][0].startswith("[1.23457")  # 6-digit driver output

    def test_full_precision_engines(self):
        from repro.engine.binding import ResultSet

        engine = create_engine("neo4j",
                               options=EngineOptions(faults_enabled=False))
        result = ResultSet(["x"], [(1.23456789012,)])
        assert engine.format_result(result) == [["1.23456789012"]]


class TestTriggerRecordStats:
    def test_graph_sizes_recorded(self):
        from repro.core.runner import GQSTester

        engine = create_engine("falkordb",
                               options=EngineOptions(gate_scale=0.0))
        result = GQSTester().run(engine, budget_seconds=15.0, seed=9)
        assert result.trigger_records
        for record in result.trigger_records:
            assert 1 <= record["graph_nodes"] <= 13
            assert record["graph_relationships"] >= 0
            assert 1 <= record["ground_truth_size"] <= 6


class TestFigureBuckets:
    def test_buckets_partition_counts(self):
        from repro.experiments import figure13, figure14, figure15

        records = [
            {"dependencies": d, "patterns": p, "depth": n}
            for d, p, n in [(0, 0, 0), (15, 2, 4), (30, 5, 7), (70, 11, 20)]
        ]
        for figure in (figure13, figure14, figure15):
            histogram = figure(records)
            assert sum(histogram.values()) == len(records)


class TestGeneratorProfiles:
    @pytest.mark.parametrize("tool,max_clauses", [
        ("GDBMeter", 2),
        ("Gamera", 2),
        ("GQT", 4),
    ])
    def test_small_tools_stay_small(self, tool, max_clauses):
        import random

        from repro.baselines.common import RandomQueryGenerator
        from repro.cypher.analysis import analyze
        from repro.experiments import make_tester

        tester = make_tester(tool, "neo4j")
        for seed in range(20):
            graph = GraphGenerator(seed=seed).generate()
            qgen = RandomQueryGenerator(graph, random.Random(seed), tester.profile)
            assert analyze(qgen.generate()).clauses <= max_clauses
