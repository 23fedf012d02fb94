"""Tests for pattern construction and mutation (§3.4)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.patterns import GraphPath, PatternBuilder
from repro.cypher import ast
from repro.cypher.printer import print_expression
from repro.engine.evaluator import Evaluator
from repro.engine.matcher import Matcher
from repro.graph.generator import GraphGenerator
from repro.graph.model import Node, PropertyGraph, Relationship


class TestGraphPath:
    def test_arity_validation(self):
        with pytest.raises(ValueError):
            GraphPath([0, 1], [])

    def test_reverse(self):
        path = GraphPath([0, 1, 2], [(10, True), (11, False)])
        rev = path.reverse()
        assert rev.node_ids == [2, 1, 0]
        assert rev.rels == [(11, True), (10, False)]
        assert rev.reverse().node_ids == path.node_ids

    def test_split(self):
        path = GraphPath([0, 1, 2], [(10, True), (11, True)])
        left, right = path.split_at(1)
        assert left.node_ids == [0, 1]
        assert right.node_ids == [1, 2]
        assert left.rels == [(10, True)]
        assert right.rels == [(11, True)]

    def test_concat(self):
        a = GraphPath([0, 1], [(10, True)])
        b = GraphPath([1, 2], [(11, True)])
        joined = a.concat(b)
        assert joined.node_ids == [0, 1, 2]
        with pytest.raises(ValueError):
            b.concat(a.reverse())

    def test_elements_interleaved(self):
        path = GraphPath([0, 1], [(5, True)])
        assert path.elements() == [("node", 0), ("rel", 5), ("node", 1)]


def build(seed, n_introduce=2, scope=None, previous=None, uniqueness=False):
    graph = GraphGenerator(seed=seed).generate()
    rng = random.Random(seed)
    builder = PatternBuilder(graph, rng)
    node_ids = graph.node_ids()
    introduce = [
        (f"n{i}", ("node", node_ids[i % len(node_ids)]))
        for i in range(n_introduce)
    ]
    result = builder.build_match(
        introduce,
        scope=scope or {},
        previous_paths=previous or [],
        add_uniqueness_predicates=uniqueness,
    )
    return graph, result, introduce


class TestBuildMatch:
    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=50, deadline=None)
    def test_unique_match_invariant(self, seed):
        """The cornerstone of §3.4: patterns + WHERE match exactly one
        assignment, and it binds the planned elements."""
        graph, result, introduce = build(seed)
        matcher = Matcher(graph)
        evaluator = Evaluator(graph)
        matches = []
        for bindings in matcher.collect(result.patterns, {}, 500):
            if result.where is not None:
                if evaluator.evaluate_predicate(result.where, bindings) is not True:
                    continue
            matches.append(bindings)
        assert len(matches) == 1
        the_match = matches[0]
        for var, element in introduce:
            kind, element_id = element
            bound = the_match[var]
            assert bound.id == element_id
            if kind == "node":
                assert isinstance(bound, Node)
            else:
                assert isinstance(bound, Relationship)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_bindings_report_every_pattern_variable(self, seed):
        graph, result, _introduce = build(seed)
        pattern_vars = set()
        for pattern in result.patterns:
            pattern_vars.update(pattern.variables())
        assert pattern_vars == set(result.bindings)

    @given(st.integers(min_value=0, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_no_duplicate_relationships_within_match(self, seed):
        """The builder never *intends* the same relationship twice in one
        MATCH (the reference semantics would make it unmatchable)."""
        graph, result, _introduce = build(seed)
        rel_ids = []
        for pattern in result.patterns:
            for rel in pattern.relationships:
                rel_ids.append(result.bindings[rel.variable].id)
        # Variables may repeat (shared across split patterns), but distinct
        # variables bind distinct relationships.
        var_to_id = {}
        for pattern in result.patterns:
            for rel in pattern.relationships:
                var_to_id[rel.variable] = result.bindings[rel.variable].id
        assert len(set(var_to_id.values())) == len(var_to_id)

    def test_scope_reuse_creates_cross_clause_reference(self):
        graph = GraphGenerator(seed=4).generate()
        rng = random.Random(4)
        builder = PatternBuilder(graph, rng)
        node_ids = graph.node_ids()
        first = builder.build_match(
            [("n0", ("node", node_ids[0]))], {}, [],
        )
        scope = {var: value for var, value in first.bindings.items()}
        # Introduce a neighbour; previous paths enable mutation reuse.
        second = builder.build_match(
            [("n1", ("node", node_ids[1]))],
            scope,
            first.paths,
            helper_start=100,
        )
        reused = set(second.bindings) & set(scope)
        # Reuse is probabilistic per graph shape, but new variables must
        # never collide with differently-bound scope variables.
        for var in set(second.bindings) - reused:
            assert var not in scope

    def test_uniqueness_predicates_emitted_for_dialects(self):
        found = False
        for seed in range(30):
            graph, result, _ = build(seed, uniqueness=True)
            rel_vars = [
                rel.variable
                for pattern in result.patterns
                for rel in pattern.relationships
            ]
            if len(set(rel_vars)) >= 2:
                text_terms = _conjunct_ops(result.where)
                assert "<>" in text_terms
                found = True
        assert found

    def test_missing_id_property_raises(self):
        from repro.graph.model import PropertyGraph

        graph = PropertyGraph()
        graph.add_node(["L"], {})  # no id property
        graph.add_node(["L"], {})
        builder = PatternBuilder(graph, random.Random(0))
        with pytest.raises(ValueError):
            builder.build_match([("n0", ("node", 0))], {}, [])


def _conjunct_ops(expr):
    ops = set()

    def visit(node):
        if isinstance(node, ast.Binary):
            ops.add(node.op)
            visit(node.left)
            visit(node.right)
        elif isinstance(node, ast.Unary):
            visit(node.operand)

    if expr is not None:
        visit(expr)
    return ops


class TestSplitPaths:
    def test_split_preserves_elements(self):
        graph = GraphGenerator(seed=8).generate()
        builder = PatternBuilder(graph, random.Random(8), split_probability=1.0)
        # A 3-hop path must split into smaller paths covering the same rels.
        paths = [GraphPath(
            [graph.relationship(0).start, graph.relationship(0).end],
            [(0, True)],
        )]
        out = builder._split_paths(paths)
        assert {rel for path in out for rel in path.rel_ids()} == {0}

    def test_split_probability_zero_is_identity(self):
        graph = GraphGenerator(seed=8).generate()
        builder = PatternBuilder(graph, random.Random(8), split_probability=0.0)
        rel = graph.relationship(0)
        paths = [GraphPath([rel.start, rel.end], [(rel.id, True)])]
        assert builder._split_paths(list(paths)) == paths


class _ReferencePinBuilder(PatternBuilder):
    """The pin loop as first written: a fresh matcher round per pin."""

    def _pin_to_unique(
        self,
        patterns,
        scope,
        bindings,
        element_to_var,
        where_terms,
        match_budget=64,
    ):
        row = {
            var: value
            for var, value in scope.items()
            if isinstance(value, (Node, Relationship))
        }
        pinned = set()
        pin_count = 0

        while True:
            matches = self._matcher.collect(patterns, row, match_budget)
            ambiguous = self._ambiguous_variable(matches, bindings, pinned)
            if ambiguous is None:
                break
            where_terms.append(self._pin_predicate(ambiguous, bindings[ambiguous]))
            pinned.add(ambiguous)
            pin_count += 1
            row[ambiguous] = bindings[ambiguous]
        return pin_count


def _two_clusters(seed):
    """Two disconnected clusters of 9-14 nodes each, a few edges inside."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    clusters = []
    for label in ("A", "B"):
        ids = [
            graph.add_node(
                [label] if rng.random() < 0.7 else [], {"id": 100 + graph.node_count}
            ).id
            for _ in range(rng.randint(9, 14))
        ]
        for _ in range(rng.randint(0, 6)):
            graph.add_relationship(
                rng.choice(ids), rng.choice(ids), "T",
                {"id": 500 + graph.relationship_count},
            )
        clusters.append(ids)
    return graph, clusters


def _counted_matcher(builder):
    rounds = []
    collect = builder._matcher.collect

    def counting(patterns, row, limit=None):
        rounds.append(dict(row))
        return collect(patterns, row, limit)

    builder._matcher.collect = counting
    return rounds


class TestPinRefinement:
    """Filtering a complete round in memory, and re-matching only after
    a truncated one, pins exactly as a fresh round per pin does."""

    def _both(self, graph, seed, introduce, scope=None, uniqueness=False):
        out = []
        for cls in (PatternBuilder, _ReferencePinBuilder):
            builder = cls(graph, random.Random(seed))
            rounds = _counted_matcher(builder)
            result = builder.build_match(
                introduce, scope=scope or {}, previous_paths=[],
                add_uniqueness_predicates=uniqueness,
            )
            where = None if result.where is None else print_expression(result.where)
            out.append((where, result.pin_count, builder.rng.getstate(), rounds))
        return out

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_on_generated_graphs(self, seed):
        graph = GraphGenerator(seed=seed % 500).generate()
        node_ids = graph.node_ids()
        rng = random.Random(seed)
        introduce = [
            (f"n{i}", ("node", rng.choice(node_ids)))
            for i in range(rng.randint(1, 4))
        ]
        introduce = list({element: (var, element)
                          for var, element in introduce}.values())
        fast, reference = self._both(
            graph, seed, introduce, uniqueness=rng.random() < 0.5
        )
        assert fast[:3] == reference[:3]
        assert len(fast[3]) <= len(reference[3])

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_past_the_match_budget(self, seed):
        # Comma patterns over two disconnected clusters of more than
        # eight nodes: the first round holds more than 64 matches.
        graph, (left, right) = _two_clusters(seed)
        rng = random.Random(seed)
        introduce = [("a", ("node", rng.choice(left))),
                     ("b", ("node", rng.choice(right)))]
        fast, reference = self._both(graph, seed, introduce)
        assert fast[:3] == reference[:3]
        assert len(fast[3]) <= len(reference[3])

    def test_truncated_round_is_matched_again(self):
        graph = PropertyGraph()
        for index in range(20):
            graph.add_node([], {"id": index})
        introduce = [("a", ("node", 17)), ("b", ("node", 3))]
        fast, reference = self._both(graph, 0, introduce)
        assert fast[:3] == reference[:3]
        assert fast[1] == 2
        # 400 matches: the truncated first round is matched again with
        # the first pin bound (20 matches); the second pin then filters
        # that complete round in memory.
        assert [len(row) for row in fast[3]] == [0, 1]
        assert [len(row) for row in reference[3]] == [0, 1, 2]
