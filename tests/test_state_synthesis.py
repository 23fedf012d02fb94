"""Unit tests for the state-aware synthesis subsystem (repro.synth.state).

Covers the shadow-state model, the valid-by-construction statement
builders, the state digest oracle, the state-corruption fault effects,
and the satellite surfaces: write-fallback plan counters and write-clause
coverage tags.
"""

import random

import pytest

from repro.core.runner import synthesizer_config_for
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_query
from repro.gdb import EngineOptions, create_engine
from repro.gdb.catalog import all_faults, gqs_scope_faults
from repro.gdb.state_effects import StateEffect
from repro.graph import GraphGenerator
from repro.synth.state import (
    StatefulSynthesizer,
    StateModel,
    compare_states,
    state_digest,
    state_summary,
)
from repro.synth.state.statements import build_statement, valid_kinds


def fresh_graph(seed=3):
    _schema, graph = GraphGenerator(seed=seed).generate_with_schema()
    return graph


def make_model(graph=None):
    return StateModel(graph if graph is not None else fresh_graph())


class TestStateOracle:
    def test_digest_deterministic(self):
        graph = fresh_graph()
        assert state_digest(graph) == state_digest(graph.copy())

    def test_digest_changes_on_mutation(self):
        graph = fresh_graph()
        mutated = graph.copy()
        mutated.add_node(frozenset(["X"]), {"id": 10**6})
        assert state_digest(graph) != state_digest(mutated)

    def test_summary_shape(self):
        graph = fresh_graph()
        summary = state_summary(graph)
        assert summary["nodes"] == graph.node_count
        assert summary["relationships"] == graph.relationship_count
        assert summary["digest"] == state_digest(graph)

    def test_compare_states_none_on_identical(self):
        graph = fresh_graph()
        assert compare_states(graph, graph.copy()) is None

    def test_compare_states_reports_counts_and_digest(self):
        graph = fresh_graph()
        mutated = graph.copy()
        mutated.add_node(frozenset(), {"id": 10**6})
        detail = compare_states(mutated, graph)
        assert "node count" in detail
        assert "state digest" in detail


class TestStateModel:
    def test_shadow_is_a_copy(self):
        graph = fresh_graph()
        model = StateModel(graph)
        model.shadow.add_node(frozenset(), {"id": model.next_id()})
        assert model.shadow.node_count == graph.node_count + 1

    def test_minted_names_never_collide_with_generator_vocabulary(self):
        model = make_model()
        assert model.mint_label() not in model.shadow.labels()
        assert model.mint_type() not in model.shadow.relationship_types()

    def test_next_id_is_fresh(self):
        model = make_model()
        existing = {
            element.properties.get("id")
            for element in list(model.shadow.nodes())
            + list(model.shadow.relationships())
        }
        assert model.next_id() not in existing

    def test_valid_kinds_on_empty_state(self):
        from repro.graph.model import PropertyGraph

        model = StateModel(PropertyGraph())
        assert valid_kinds(model) == ["create", "merge"]
        assert model.pick_node(random.Random(0)) is None


class TestStatementBuilders:
    @pytest.mark.parametrize("seed", range(6))
    def test_statements_valid_against_evolving_state(self, seed):
        """400 statements across seeds: every one executes cleanly on the
        shadow, round-trips through the printer, and preserves the unique
        ``id`` pin-property invariant the read synthesizer depends on."""
        rng = random.Random(seed)
        model = make_model(fresh_graph(seed))
        for _ in range(400 // 6 + 1):
            kinds = valid_kinds(model)
            kind = rng.choice(kinds)
            tree = build_statement(kind, model, rng)
            if tree is None:
                continue
            printed = print_query(tree)
            assert print_query(parse_query(printed)) == printed
            model.apply(tree)  # raises on an invalid statement
            # Pin-predicate invariant: "id" unique within each element
            # class (nodes and relationships are separate namespaces).
            node_ids = [
                node.properties.get("id") for node in model.shadow.nodes()
            ]
            rel_ids = [
                rel.properties.get("id")
                for rel in model.shadow.relationships()
            ]
            assert None not in node_ids and None not in rel_ids, printed
            assert len(node_ids) == len(set(node_ids)), printed
            assert len(rel_ids) == len(set(rel_ids)), printed

    def test_lockstep_digest_across_two_models(self):
        """Replaying one statement stream on two copies of the same graph
        reaches the same digest — the soundness basis of the oracle."""
        graph = fresh_graph(5)
        model_a = StateModel(graph)
        model_b = StateModel(graph)
        rng = random.Random(9)
        for _ in range(40):
            tree = build_statement(
                rng.choice(valid_kinds(model_a)), model_a, rng
            )
            if tree is None:
                continue
            model_a.apply(tree)
            model_b.apply(parse_query(print_query(tree)))
            assert state_digest(model_a.shadow) == state_digest(model_b.shadow)


class TestStatefulSynthesizer:
    def _synthesizer(self, ratio, seed=4):
        graph = fresh_graph(seed)
        engine = create_engine("neo4j")
        model = StateModel(graph)
        return StatefulSynthesizer(
            model,
            random.Random(seed),
            config=synthesizer_config_for(engine),
            stateful_ratio=ratio,
        ), model

    def test_ratio_one_yields_only_writes(self):
        synthesizer, model = self._synthesizer(1.0)
        for _ in range(30):
            proposal = synthesizer.propose()
            assert proposal.is_write
            model.apply(proposal.query)

    def test_ratio_zero_yields_only_reads_on_nonempty_state(self):
        synthesizer, _model = self._synthesizer(0.0)
        for _ in range(20):
            proposal = synthesizer.propose()
            assert not proposal.is_write
            assert proposal.expected is not None

    def test_deterministic_given_seed(self):
        first, model_a = self._synthesizer(0.7, seed=12)
        second, model_b = self._synthesizer(0.7, seed=12)
        for _ in range(25):
            pa, pb = first.propose(), second.propose()
            assert pa.text == pb.text
            assert pa.statement_kind == pb.statement_kind
            if pa.is_write:
                model_a.apply(pa.query)
                model_b.apply(pb.query)


class TestStateEffects:
    """Each state-corruption model leaves a divergence the oracle catches."""

    def _setup(self, statement):
        graph = fresh_graph(7)
        engine_graph = graph.copy()
        shadow = graph.copy()
        from repro.engine.executor import Executor

        tree = parse_query(statement)
        before = engine_graph.copy()
        Executor(engine_graph).execute(tree)
        Executor(shadow).execute(parse_query(statement))
        assert compare_states(engine_graph, shadow) is None
        return engine_graph, before, shadow, tree

    def _statement_for(self, kind):
        graph = fresh_graph(7)
        node = graph.nodes_sorted()[0]
        node_id = node.properties["id"]
        key = sorted(k for k in node.properties if k != "id")
        if kind == "set":
            return f"MATCH (x {{id: {node_id}}}) SET x.wkey9 = 41"
        if kind == "remove":
            label = sorted(node.labels)[0]
            return f"MATCH (x {{id: {node_id}}}) REMOVE x:{label}"
        if kind == "merge":
            return "MERGE (m:WLabel9 {id: 1000000, wkey9: 1})"
        if kind == "delete":
            return f"MATCH (x {{id: {node_id}}}) DETACH DELETE x"
        raise AssertionError(kind)

    def test_lost_set_reverts_the_write(self):
        engine_graph, before, shadow, tree = self._setup(
            self._statement_for("set")
        )
        StateEffect.lost_set(engine_graph, before, tree, 0)
        assert compare_states(engine_graph, shadow) is not None

    def test_remove_noop_restores_label(self):
        engine_graph, before, shadow, tree = self._setup(
            self._statement_for("remove")
        )
        StateEffect.remove_noop(engine_graph, before, tree, 0)
        assert compare_states(engine_graph, shadow) is not None

    def test_phantom_merge_duplicates_node(self):
        engine_graph, before, shadow, tree = self._setup(
            self._statement_for("merge")
        )
        StateEffect.phantom_merge(engine_graph, before, tree, 0)
        detail = compare_states(engine_graph, shadow)
        assert detail is not None and "node count" in detail

    def test_dangling_delete_resurrects_tombstone(self):
        engine_graph, before, shadow, tree = self._setup(
            self._statement_for("delete")
        )
        StateEffect.dangling_delete(engine_graph, before, tree, 0)
        assert compare_states(engine_graph, shadow) is not None

    def test_state_faults_in_catalog_but_outside_paper_scope(self):
        state_faults = [f for f in all_faults() if f.is_state]
        assert len(state_faults) == 5
        assert {f.gdb for f in state_faults} == {
            "neo4j", "memgraph", "kuzu", "falkordb"
        }
        assert not any(f.is_state for f in gqs_scope_faults())


class TestWriteFallbackCounter:
    def test_compiled_mode_counts_write_fallbacks(self):
        engine = create_engine(
            "neo4j", options=EngineOptions(execution_mode="compiled"))
        engine.load_graph(fresh_graph())
        engine.execute(parse_query("CREATE (n:X {id: 1000001})"))
        stats = engine._plan_cache.drain()
        assert stats.get("write_fallbacks", 0) >= 1
        # drain() resets the counter.
        assert engine._plan_cache.write_fallbacks == 0

    def test_dual_mode_silent_on_writes(self):
        engine = create_engine("neo4j",
                               options=EngineOptions(execution_mode="dual"))
        engine.load_graph(fresh_graph())
        engine.execute(parse_query("CREATE (n:X {id: 1000001})"))
        # Dual mode flushes no plan counters at all (its observable stream
        # must match an interpreted run's); the write must not raise a
        # divergence either.
        assert engine._plan_cache.write_fallbacks == 0

    def test_render_shows_write_fallbacks(self):
        from repro.obs.render import _render_plans

        lines = _render_plans({"plan.write_fallbacks": 3})
        assert any("write fallbacks" in line for line in lines)
        silent = _render_plans({"plan.cache_hits": 2})
        assert not any("write fallbacks" in line for line in silent)


class TestWriteCoverageTags:
    def test_write_family_tags(self):
        from repro.obs.coverage import query_feature_tags

        tags = query_feature_tags(parse_query("MATCH (x) DETACH DELETE x"))
        assert "clause:DETACH DELETE" in tags
        assert "clause:delete" in tags
        tags = query_feature_tags(
            parse_query("MERGE (m:L {id: 5}) SET m.k = 1")
        )
        assert {"clause:merge", "clause:set"} <= set(tags)

    def test_read_queries_unchanged(self):
        from repro.obs.coverage import query_feature_tags

        tags = query_feature_tags(parse_query("MATCH (n) RETURN n"))
        assert not any(tag.startswith("clause:c") for tag in tags)


class TestStatefulCliFlag:
    def test_stateful_flag_parses(self):
        from repro.cli import build_parser

        parser = build_parser()
        args = parser.parse_args(["campaign", "--stateful"])
        assert args.stateful == 0.5
        args = parser.parse_args(["campaign", "--stateful", "0.8"])
        assert args.stateful == 0.8
        args = parser.parse_args(["compare", "--stateful", "0.3"])
        assert args.stateful == 0.3
        args = parser.parse_args(["campaign"])
        assert args.stateful is None
