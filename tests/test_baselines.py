"""Tests for the five baseline testers (§5.4)."""

import random

import pytest

from repro.baselines import (
    GDBMeterTester,
    GDsmithTester,
    GameraTester,
    GQTTester,
    GRevTester,
)
from repro.baselines.common import GeneratorProfile, RandomQueryGenerator
from repro.baselines.gdbmeter import partition_query
from repro.baselines.gamera import augmentation_applicable, relax_one_direction
from repro.baselines.gqt import add_random_label, add_tautology, drop_where
from repro.baselines.grev import (
    double_negate_where,
    permute_patterns,
    reverse_patterns,
)
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_query
from repro.engine.binding import ResultSet
from repro.engine.executor import Executor
from repro.gdb import ReferenceGDB, create_engine
from repro.graph.generator import GraphGenerator
from repro.graph.model import PropertyGraph


def clean_engine(name="neo4j"):
    engine = create_engine(name, faults_enabled=False)
    return engine


class TestRandomQueryGenerator:
    def test_queries_parse_and_print(self):
        graph = GraphGenerator(seed=1).generate()
        profile = GeneratorProfile(name="t", min_clauses=2, max_clauses=6,
                                   with_probability=0.3, unwind_probability=0.2)
        qgen = RandomQueryGenerator(graph, random.Random(1), profile)
        for _ in range(50):
            query = qgen.generate()
            text = print_query(query)
            assert print_query(parse_query(text)) == text

    def test_most_queries_execute(self):
        """Generated queries are mostly well-typed enough to run."""
        graph = GraphGenerator(seed=2).generate()
        profile = GDBMeterTester.profile
        qgen = RandomQueryGenerator(graph, random.Random(2), profile)
        executor = Executor(graph)
        succeeded = 0
        for _ in range(60):
            try:
                executor.execute(qgen.generate())
                succeeded += 1
            except Exception:
                pass
        assert succeeded > 30

    def test_profile_complexity_ordering(self):
        """Table 5's relative ordering must emerge from the profiles."""
        from repro.cypher.analysis import analyze

        def average_deps(profile, n=60):
            total = 0
            for seed in range(n):
                graph = GraphGenerator(seed=seed).generate()
                qgen = RandomQueryGenerator(graph, random.Random(seed), profile)
                total += analyze(qgen.generate()).dependencies
            return total / n

        assert average_deps(GRevTester.profile) > average_deps(
            GDBMeterTester.profile
        )
        assert average_deps(GDsmithTester.profile) > average_deps(
            GameraTester.profile
        )


BASELINE_TESTERS = [
    GDsmithTester, GDBMeterTester, GameraTester, GQTTester, GRevTester,
]


class TestPropertyVocabulary:
    """The generators draw property names from the graph's cached vocabulary."""

    @staticmethod
    def _texts(tester_class, n=200):
        graph = GraphGenerator(seed=5).generate()
        qgen = RandomQueryGenerator(graph, random.Random(5), tester_class.profile)
        return [print_query(qgen.generate()) for _ in range(n)]

    @pytest.mark.parametrize("tester_class", BASELINE_TESTERS)
    def test_queries_match_the_uncached_derivation(self, tester_class, monkeypatch):
        cached = self._texts(tester_class)
        monkeypatch.setattr(
            PropertyGraph,
            "property_names",
            lambda graph: sorted({key.name for key in graph.all_property_keys()}),
        )
        assert self._texts(tester_class) == cached

    @pytest.mark.parametrize("tester_class", BASELINE_TESTERS)
    def test_one_round_builds_the_vocabulary_once(self, tester_class, monkeypatch):
        graph = GraphGenerator(seed=6).generate()
        counts = {"key_scans": 0, "builds": 0}
        all_keys = PropertyGraph.all_property_keys
        names = PropertyGraph.property_names

        def counting_all_keys(self):
            counts["key_scans"] += 1
            return all_keys(self)

        def counting_names(self):
            counts["builds"] += self._property_names is None
            return names(self)

        monkeypatch.setattr(PropertyGraph, "all_property_keys", counting_all_keys)
        monkeypatch.setattr(PropertyGraph, "property_names", counting_names)
        if tester_class is GDsmithTester:
            tester = GDsmithTester([clean_engine("memgraph")])
        else:
            tester = tester_class()
        engine = clean_engine("neo4j")
        queries = list(tester.proposals(engine, graph, None, random.Random(6)))
        assert len(queries) == tester.queries_per_graph
        assert counts["key_scans"] == 0
        assert counts["builds"] <= 1


class TestTLPPartitioning:
    def test_partitions_structure(self):
        query = parse_query("MATCH (n) WHERE n.x > 1 RETURN n.y AS y")
        parts = partition_query(query)
        assert parts is not None and len(parts) == 4
        texts = [print_query(p) for p in parts]
        assert "NOT" in texts[1]
        assert "IS NULL" in texts[2]
        assert "true" in texts[3]

    def test_no_where_no_partitions(self):
        assert partition_query(parse_query("MATCH (n) RETURN n")) is None

    def test_optional_match_not_partitioned(self):
        query = parse_query("OPTIONAL MATCH (n) WHERE n.x > 1 RETURN n")
        assert partition_query(query) is None

    @pytest.mark.parametrize("suffix", [
        "RETURN DISTINCT n.y AS y",
        "RETURN n.y AS y LIMIT 2",
        "RETURN count(*) AS c",
        "WITH n SKIP 1 RETURN n.y AS y",
    ])
    def test_unsound_downstream_blocks_partitioning(self, suffix):
        query = parse_query(f"MATCH (n) WHERE n.x > 1 {suffix}")
        assert partition_query(query) is None

    def test_relation_holds_on_reference_engine(self):
        """TLP must hold on a correct engine for every partitionable query."""
        graph = GraphGenerator(seed=4).generate()
        executor = Executor(graph)
        qgen = RandomQueryGenerator(
            graph, random.Random(4), GDBMeterTester.profile
        )
        checked = 0
        for _ in range(80):
            query = qgen.generate()
            parts = partition_query(query)
            if parts is None:
                continue
            try:
                results = [executor.execute(p) for p in parts]
            except Exception:
                continue
            union = ResultSet.union_all(results[:3])
            assert union.same_rows(results[3]), print_query(query)
            checked += 1
        assert checked > 10


class TestGameraRelations:
    def test_augmentation_applicability(self):
        labeled = parse_query("MATCH (n:L) RETURN n")
        unlabeled = parse_query("MATCH (n) RETURN n")
        with_call = parse_query("CALL db.labels() YIELD label RETURN label")
        assert augmentation_applicable(labeled)
        assert not augmentation_applicable(unlabeled)
        assert not augmentation_applicable(with_call)

    def test_direction_relaxation_superset_on_reference(self):
        graph = GraphGenerator(seed=5).generate()
        executor = Executor(graph)
        query = parse_query("MATCH (a:L0)-[r]->(b) RETURN a.id AS x, b.id AS y")
        relaxed = relax_one_direction(query)
        assert relaxed is not None
        base = executor.execute(query)
        superset = executor.execute(relaxed)
        assert base.is_sub_bag_of(superset)

    def test_relaxation_skips_unsound_queries(self):
        assert relax_one_direction(
            parse_query("MATCH (a)-[r]->(b) RETURN count(*) AS c")
        ) is None
        assert relax_one_direction(
            parse_query("OPTIONAL MATCH (a)-[r]->(b) RETURN a")
        ) is None


class TestGQTTransformations:
    def test_tautology_preserves_results(self):
        graph = GraphGenerator(seed=6).generate()
        executor = Executor(graph)
        query = parse_query("MATCH (n) WHERE n.id >= 2 RETURN n.id AS v")
        variant = add_tautology(query)
        assert executor.execute(query).same_rows(executor.execute(variant))

    def test_drop_where_superset(self):
        graph = GraphGenerator(seed=6).generate()
        executor = Executor(graph)
        query = parse_query("MATCH (n) WHERE n.id >= 2 RETURN n.id AS v")
        variant = drop_where(query)
        assert executor.execute(query).is_sub_bag_of(executor.execute(variant))

    def test_add_label_subset(self):
        graph = GraphGenerator(seed=6).generate()
        executor = Executor(graph)
        query = parse_query("MATCH (n) RETURN n.id AS v")
        variant = add_random_label(query, graph, random.Random(0))
        assert variant is not None
        assert executor.execute(variant).is_sub_bag_of(executor.execute(query))


class TestGRevRewrites:
    @pytest.mark.parametrize("rewrite", [
        reverse_patterns,
        double_negate_where,
        lambda q: permute_patterns(q, random.Random(3)),
    ])
    def test_rewrites_are_equivalent_on_reference(self, rewrite):
        graph = GraphGenerator(seed=7).generate()
        executor = Executor(graph)
        query = parse_query(
            "MATCH (a)-[r]->(b), (c)-[s]->(d) WHERE a.id < 5 AND c.id >= 0 "
            "RETURN a.id AS w, b.id AS x, c.id AS y, d.id AS z"
        )
        variant = rewrite(query)
        if variant is None:
            pytest.skip("rewrite not applicable")
        assert executor.execute(query).same_rows(executor.execute(variant))

    def test_limit_blocks_rewrites(self):
        query = parse_query("MATCH (a)-[r]->(b) RETURN a.id AS v LIMIT 1")
        assert reverse_patterns(query) is None


class TestNoFalsePositives:
    """Metamorphic testers must not raise alarms on correct engines."""

    @pytest.mark.parametrize("tester_class", [
        GDBMeterTester, GameraTester, GQTTester, GRevTester,
    ])
    def test_clean_engine_yields_no_reports(self, tester_class):
        tester = tester_class()
        engine = clean_engine("neo4j")
        result = tester.run(engine, budget_seconds=20.0, seed=5)
        assert result.reports == []
        assert result.queries_run > 10


class TestDetection:
    def test_gdsmith_detects_single_engine_fault(self):
        """A fault present in one engine only shows up as a discrepancy."""
        target = create_engine("falkordb", gate_scale=0.0)
        others = [clean_engine("neo4j"), clean_engine("memgraph")]
        tester = GDsmithTester(others)
        result = tester.run(target, budget_seconds=60.0, seed=8)
        assert any(r.fault_id for r in result.reports)

    def test_gdsmith_false_positives_on_clean_engines(self):
        """Even with all faults disabled, dialect differences produce
        false alarms (the paper's ~98% FP observation)."""
        target = clean_engine("neo4j")
        others = [clean_engine("memgraph"), clean_engine("falkordb")]
        tester = GDsmithTester(others)
        result = tester.run(target, budget_seconds=120.0, seed=9)
        assert result.false_positive_count > 0
        assert all(r.fault_id is None for r in result.reports)

    def test_session_crash_found_by_continuous_testers_only(self):
        """§5.4.4: long-session testers hit the accumulation crashes."""
        engine = create_engine("falkordb")
        engine.queries_since_restart = 50_000  # pretend a long session
        graph = GraphGenerator(seed=3).generate()
        engine.load_graph(graph, None, restart=False)
        tester = GDBMeterTester()
        rng = random.Random(0)
        from repro.runtime.results import CampaignResult

        scratch = CampaignResult("GDBMeter", "falkordb")
        found_crash = False
        qgen = RandomQueryGenerator(engine.graph, rng, tester.profile)
        for _ in range(100):
            report = tester.check_query(engine, qgen.generate(), rng, scratch)
            if report is not None and report.kind == "error":
                found_crash = True
                break
            if engine.crashed:
                break
        assert found_crash

    def test_replay_interface(self):
        """§5.4.3: feeding a bug-triggering query to a baseline oracle."""
        engine = create_engine("falkordb", gate_scale=0.0)
        graph = GraphGenerator(seed=12).generate()
        engine.load_graph(graph, None)
        tester = GDBMeterTester()
        # A query in GDBMeter's shape that trips the UNWIND fault cannot be
        # partitioned for TLP (no MATCH-WHERE) -> missed.
        query = parse_query("UNWIND [1,2,3] AS x MATCH (n) RETURN x")
        assert tester.replay_flags_bug(engine, query, random.Random(0)) is False


class TestPaperScenarios:
    """Direct reproductions of the paper's §5.4.3 case studies."""

    def test_figure16_gdbmeter_blind_spot(self):
        """The Memgraph WITH+WHERE bug: every TLP partition is perturbed
        identically, so the union oracle passes on an incorrect result."""
        from repro.cypher.parser import parse_query
        from repro.engine.binding import ResultSet
        from repro.gdb.catalog import faults_for
        from repro.graph.generator import GraphGenerator

        engine = create_engine("memgraph", gate_scale=0.0)
        # Keep only the Figure 16 fault to avoid interference.
        engine.faults = [
            f for f in faults_for("memgraph") if f.fault_id == "memgraph-L2"
        ]
        graph = GraphGenerator(seed=21).generate()
        engine.load_graph(graph, None)

        # A query in the fault's trigger region: MATCH-WHERE + WITH chain
        # with enough cross-clause references.
        query = parse_query(
            "MATCH (n0)-[r0]->(n1) WHERE n0.id >= 0 "
            "WITH n0, r0, n1 WITH n0, r0, n1 RETURN r0.id AS a0"
        )
        actual = engine.execute(query)
        assert engine.last_fired_fault is not None
        assert len(actual) == 0  # incorrectly empty (the bug)

        # GDBMeter's TLP oracle passes: all partitions are empty too.
        tester = GDBMeterTester()
        assert tester.replay_flags_bug(engine, query, random.Random(0)) is False

        # GQS's ground-truth oracle catches it trivially: the reference
        # answer is non-empty.
        reference = ReferenceGDB()
        reference.load_graph(graph, None)
        correct = reference.execute(query)
        assert len(correct) > 0

    def test_figure17_row_loss_detected_by_ground_truth(self):
        """FalkorDB's UNWIND-before-MATCH bug: 3 rows expected, 1 returned."""
        from repro.cypher.parser import parse_query
        from repro.gdb.catalog import faults_for
        from repro.graph.generator import GraphGenerator

        engine = create_engine("falkordb", gate_scale=0.0)
        engine.faults = [
            f for f in faults_for("falkordb") if f.fault_id == "falkordb-L2"
        ]
        graph = GraphGenerator(seed=22).generate()
        engine.load_graph(graph, None)

        query = parse_query(
            "UNWIND [1, 2, 3] AS a0 MATCH (n) WHERE n.id = 0 RETURN a0"
        )
        actual = engine.execute(query)
        assert engine.last_fired_fault is not None
        assert len(actual) == 1  # only the first record fetched

        from repro.core.oracle import check_result
        from repro.engine.binding import ResultSet

        expected = ResultSet(["a0"], [(1,), (2,), (3,)])
        assert not check_result(expected, actual).passed
