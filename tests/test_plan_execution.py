"""Tests for the compiled operator-pipeline execution core (repro.engine.plan).

The contract under test is the dual-mode differential one: the compiled
pipeline must be observationally identical to the tree-walking reference
interpreter — same ``ResultSet``s, same error types, same fault
interactions — while the plan cache, the graph indexes, and the mode
threading stay invisible to campaign results.  The headline property test
mirrors the printer→parser idempotence test of
``test_roundtrip_properties.TestSynthesizedQueryRoundTrip``: 200 queries
across 10 seeds over the population the campaigns actually emit.
"""

import random

import pytest

from repro.core import QuerySynthesizer
from repro.core.runner import synthesizer_config_for
from repro.cypher import print_query
from repro.cypher.parser import parse_query
from repro.engine.binding import ResultSet
from repro.engine.errors import CypherError, PlanDivergenceError
from repro.engine.plan import PlanCache
from repro.gdb import EngineOptions, create_engine
from repro.gdb.engines import EngineSpec
from repro.graph import GraphGenerator
from repro.graph.model import PropertyGraph
from repro.obs.coverage import query_feature_tags


def _outcome(engine, text):
    """(kind, payload) of executing *text*: rows or the error type name."""
    try:
        result = engine.execute(text)
    except CypherError as exc:
        return ("error", type(exc).__name__)
    return (
        "rows",
        (list(result.columns), result.to_table(engine.dialect)),
    )


def _mode_pair(name, mode, **kwargs):
    """(interpreted, *mode*) engine pair of the same simulated engine."""
    return (
        create_engine(name, options=EngineOptions(
            execution_mode="interpreted", **kwargs)),
        create_engine(name, options=EngineOptions(
            execution_mode=mode, **kwargs)),
    )


class TestCompiledMatchesInterpreted:
    """The 200-query synthesized differential property test (satellite)."""

    def test_200_synthesized_queries_agree(self):
        checked = 0
        for seed in range(10):
            schema, graph = GraphGenerator(seed=seed).generate_with_schema()
            name = "neo4j" if seed % 2 else "kuzu"
            interpreted, compiled = _mode_pair(
                name, "compiled", faults_enabled=False
            )
            interpreted.load_graph(graph, schema)
            compiled.load_graph(graph, schema)
            synthesizer = QuerySynthesizer(
                graph, rng=random.Random(seed),
                config=synthesizer_config_for(interpreted),
            )
            for _ in range(20):
                text = print_query(synthesizer.synthesize().query)
                assert _outcome(compiled, text) == _outcome(
                    interpreted, text
                ), text
                checked += 1
        assert checked == 200

    def test_dual_mode_runs_the_same_population_clean(self):
        # Dual mode re-checks every query internally; any divergence would
        # escape as PlanDivergenceError (it is not a CypherError, so
        # _outcome would not swallow it).
        schema, graph = GraphGenerator(seed=3).generate_with_schema()
        interpreted, dual = _mode_pair("falkordb", "dual",
                                       faults_enabled=False)
        interpreted.load_graph(graph, schema)
        dual.load_graph(graph, schema)
        synthesizer = QuerySynthesizer(
            graph, rng=random.Random(3),
            config=synthesizer_config_for(interpreted),
        )
        for _ in range(30):
            text = print_query(synthesizer.synthesize().query)
            assert _outcome(dual, text) == _outcome(interpreted, text), text
        assert dual._plan_cache.divergences == 0


class TestIndexCorrectnessUnderFaults:
    """Indexes and cached adjacency must not perturb fault interactions."""

    def test_compiled_matches_interpreted_with_every_gate_open(self):
        # gate_scale=0.0 opens every fault gate, so the stream exercises
        # crash, session-accumulation, and logic faults; both engines see
        # the identical query sequence, so fault state must stay in
        # lockstep — including which fault fired and the post-crash state.
        schema, graph = GraphGenerator(seed=5).generate_with_schema()
        interpreted, compiled = _mode_pair("falkordb", "compiled",
                                           gate_scale=0.0)
        interpreted.load_graph(graph, schema)
        compiled.load_graph(graph, schema)
        synthesizer = QuerySynthesizer(
            graph, rng=random.Random(5),
            config=synthesizer_config_for(interpreted),
        )
        for index in range(40):
            text = print_query(synthesizer.synthesize().query)
            assert _outcome(compiled, text) == _outcome(
                interpreted, text
            ), f"query {index}: {text}"
            left = interpreted.last_fired_fault
            right = compiled.last_fired_fault
            assert (left.fault_id if left else None) == (
                right.fault_id if right else None
            )
            assert compiled.crashed == interpreted.crashed
            if interpreted.crashed:
                interpreted.restart()
                compiled.restart()

    def test_indexes_see_writes(self):
        # A write between two identical reads must invalidate the label /
        # property indexes and the cached adjacency the compiled scan and
        # expand operators consult.
        read = (
            "MATCH (a:Person {id: 0})-[r]->(b) "
            "RETURN a.id, b.id ORDER BY b.id"
        )
        interpreted, compiled = _mode_pair("neo4j", "compiled",
                                           faults_enabled=False)
        graph = PropertyGraph()
        graph.add_node(["Person"], {"id": 0})
        graph.add_node(["Person"], {"id": 1})
        graph.add_relationship(0, 1, "KNOWS", {"id": 0})
        for engine in (interpreted, compiled):
            engine.load_graph(graph)
            engine.execute(read)  # warm the indexes and adjacency cache
            engine.execute(
                "MATCH (a {id: 0}), (b {id: 1}) CREATE (a)-[:KNOWS]->(b)"
            )
            engine.execute("CREATE (c:Person {id: 2})")
        after = _outcome(compiled, read)
        assert after == _outcome(interpreted, read)
        assert after[0] == "rows" and len(after[1][1]) == 2

    def test_expand_pairs_invalidated_by_structural_mutation(self):
        graph = PropertyGraph()
        graph.add_node()
        graph.add_node()
        graph.add_relationship(0, 1, "KNOWS")
        first = graph.expand_pairs(0, "out")
        assert [far for _rel, far in first] == [1]
        graph.add_node()
        graph.add_relationship(0, 2, "KNOWS")
        assert [far for _rel, far in graph.expand_pairs(0, "out")] == [1, 2]

    def test_expand_pairs_orders_like_the_matcher(self):
        # "both" enumerates outgoing before incoming, each id-sorted, and
        # a self-loop appears once (the outgoing side).
        graph = PropertyGraph()
        for _ in range(3):
            graph.add_node()
        graph.add_relationship(0, 1, "A", rel_id=3)
        graph.add_relationship(2, 0, "A", rel_id=1)
        graph.add_relationship(0, 0, "A", rel_id=2)
        pairs = graph.expand_pairs(0, "both")
        assert [(rel.id, far) for rel, far in pairs] == [
            (2, 0), (3, 1), (1, 2)
        ]


class TestPlanCacheKeying:
    def test_identical_text_hits_after_one_compile(self):
        engine = create_engine("falkordb", options=EngineOptions(
            faults_enabled=False, execution_mode="compiled"))
        graph = PropertyGraph()
        graph.add_node(["Person"], {"id": 0})
        engine.load_graph(graph)
        text = "MATCH (a:Person) RETURN a.id"
        engine.execute(text)
        assert engine._plan_cache.compiles == 1
        engine.execute(text)
        assert engine._plan_cache.compiles == 1
        assert engine._plan_cache.hits == 1

    def test_cache_survives_load_graph(self):
        # Plans resolve the graph through the execution context, so the
        # cache is engine-lifetime state: reloading (the campaign does it
        # per generated graph) must not recompile known shapes.
        engine = create_engine("falkordb", options=EngineOptions(
            faults_enabled=False, execution_mode="compiled"))
        graph = PropertyGraph()
        graph.add_node(["Person"], {"id": 0})
        engine.load_graph(graph)
        text = "MATCH (a:Person) RETURN a.id"
        engine.execute(text)
        compiles = engine._plan_cache.compiles
        engine.load_graph(graph)
        engine.execute(text)
        assert engine._plan_cache.compiles == compiles

    def test_distinct_shapes_get_distinct_fingerprints(self):
        texts = [
            "MATCH (a:Person) RETURN a.id",
            "MATCH (a:Person)-[r]->(b) RETURN a.id",
            "MATCH (a:Person) WHERE a.id = 3 RETURN a.id",
            "MATCH (a:Person) RETURN count(a)",
        ]
        keys = {
            PlanCache.fingerprint(query_feature_tags(parse_query(t)), t)
            for t in texts
        }
        assert len(keys) == len(texts)

    def test_same_shape_different_text_does_not_collide(self):
        # The fingerprint folds in the exact text: two queries sharing a
        # feature shape but differing in constants must never share a plan
        # slot (plans bake constants in at compile time).
        left = "MATCH (a:Person) WHERE a.id = 3 RETURN a.id"
        right = "MATCH (a:Person) WHERE a.id = 4 RETURN a.id"
        tags_left = query_feature_tags(parse_query(left))
        tags_right = query_feature_tags(parse_query(right))
        assert PlanCache.fingerprint(tags_left, left) != PlanCache.fingerprint(
            tags_right, right
        )


class TestDualModeContract:
    def _engine_with_wrong_plan(self, wrong_result=None, error=None):
        engine = create_engine("falkordb", options=EngineOptions(
            faults_enabled=False, execution_mode="dual"))
        graph = PropertyGraph()
        graph.add_node(["Person"], {"id": 0})
        engine.load_graph(graph)

        class WrongPlan:
            is_fallback = False

            def execute(self, ctx):
                if error is not None:
                    raise error
                return wrong_result

        engine._plan_for = lambda tree, text: WrongPlan()
        return engine

    def test_result_divergence_raises_typed_error(self):
        engine = self._engine_with_wrong_plan(
            wrong_result=ResultSet(["a.id"], [(999,)])
        )
        with pytest.raises(PlanDivergenceError):
            engine.execute("MATCH (a:Person) RETURN a.id")
        assert engine._plan_cache.divergences == 1

    def test_error_shape_divergence_raises_typed_error(self):
        from repro.engine.errors import CypherRuntimeError

        engine = self._engine_with_wrong_plan(
            error=CypherRuntimeError("compiled-only failure")
        )
        with pytest.raises(PlanDivergenceError):
            engine.execute("MATCH (a:Person) RETURN a.id")

    def test_divergence_is_not_a_cypher_error(self):
        # Oracles catch CypherError and convert it into discrepancy
        # reports; a divergence is a bug in this codebase and must
        # propagate past every oracle.
        assert not issubclass(PlanDivergenceError, CypherError)

    def test_agreeing_dual_returns_interpreted_result(self):
        engine = create_engine("falkordb", options=EngineOptions(
            faults_enabled=False, execution_mode="dual"))
        graph = PropertyGraph()
        graph.add_node(["Person"], {"id": 0})
        engine.load_graph(graph)
        result = engine.execute("MATCH (a:Person) RETURN a.id")
        assert result.to_table(engine.dialect) == [["0"]]


class TestModeThreading:
    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            create_engine("falkordb",
                          options=EngineOptions(execution_mode="vectorized"))

    def test_engine_spec_round_trips_mode(self):
        spec = EngineSpec("kuzu", execution_mode="dual")
        engine = spec.create()
        assert engine.execution_mode == "dual"
        assert engine.spec()["execution_mode"] == "dual"

    def test_campaign_cell_carries_mode_into_worker_spec(self):
        from repro.runtime import (
            CampaignCell,
            CellConfig,
            ParallelCampaignRunner,
        )

        cell = CampaignCell("GQS", "falkordb", 0,
                            CellConfig(1.0, execution_mode="compiled"))
        spec = ParallelCampaignRunner(jobs=1)._spec(cell)
        assert spec["config"]["execution_mode"] == "compiled"

    def test_cli_exposes_engine_mode(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["campaign", "--engine-mode", "dual"])
        assert args.engine_mode == "dual"
        args = parser.parse_args(["compare", "--engine-mode", "compiled"])
        assert args.engine_mode == "compiled"


class TestDualGridByteIdentity:
    """The acceptance invariant: a dual grid is byte-identical to an
    interpreted grid for any ``--jobs`` value, with zero divergences."""

    def test_dual_grid_matches_interpreted_for_any_jobs(self):
        import json

        from repro.core.reporting import campaign_to_dict
        from repro.experiments.campaign import run_campaign_grid

        def fingerprint(results):
            return json.dumps(
                {"|".join(map(str, key)): campaign_to_dict(result)
                 for key, result in results.items()},
                sort_keys=True,
            )

        def grid(mode, jobs):
            return run_campaign_grid(
                ("GQS",), ("falkordb",), seeds=(0, 1),
                budget_seconds=3.0, gate_scale=0.05, jobs=jobs,
                execution_mode=mode,
            )

        reference = fingerprint(grid("interpreted", 1))
        assert fingerprint(grid("dual", 1)) == reference
        assert fingerprint(grid("dual", 2)) == reference
