"""Tests for the pattern matcher."""

import pytest

from repro.cypher import ast
from repro.cypher.parser import parse_query
from repro.engine import ENVELOPE, Executor, evaluation_budget
from repro.engine.errors import CypherRuntimeError
from repro.engine.matcher import Matcher
from repro.graph.model import PropertyGraph


@pytest.fixture
def diamond():
    r"""A diamond:  0 -> 1 -> 3,  0 -> 2 -> 3, plus a self-loop on 3."""
    graph = PropertyGraph()
    for index in range(4):
        graph.add_node([f"N{index}"], {"id": index})
    graph.add_relationship(0, 1, "A", {"id": 0})
    graph.add_relationship(0, 2, "A", {"id": 1})
    graph.add_relationship(1, 3, "B", {"id": 2})
    graph.add_relationship(2, 3, "B", {"id": 3})
    graph.add_relationship(3, 3, "LOOP", {"id": 4})
    return graph


def node_pattern(var, *labels):
    return ast.NodePattern(var, tuple(labels))


def rel(var, direction=ast.OUT, *types):
    return ast.RelationshipPattern(var, tuple(types), direction)


def path(*parts):
    nodes = tuple(p for p in parts if isinstance(p, ast.NodePattern))
    rels = tuple(p for p in parts if isinstance(p, ast.RelationshipPattern))
    return ast.PathPattern(nodes, rels)


class TestSingleChain:
    def test_single_node(self, diamond):
        matcher = Matcher(diamond)
        matches = matcher.collect((path(node_pattern("n")),), {})
        assert len(matches) == 4

    def test_label_constraint(self, diamond):
        matcher = Matcher(diamond)
        matches = matcher.collect((path(node_pattern("n", "N2")),), {})
        assert len(matches) == 1
        assert matches[0]["n"].id == 2

    def test_directed_hop(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r"), node_pattern("b"))
        matches = matcher.collect((pattern,), {})
        assert len(matches) == 5  # 4 edges + self loop

    def test_incoming_direction(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r", ast.IN), node_pattern("b"))
        matches = matcher.collect((pattern,), {})
        # Same five edges, viewed from the other side.
        assert len(matches) == 5
        assert all(m["r"].end == m["a"].id for m in matches)

    def test_undirected_hop(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r", ast.BOTH), node_pattern("b"))
        matches = matcher.collect((pattern,), {})
        # Each non-loop edge matched twice (once per orientation) + loop once.
        assert len(matches) == 9

    def test_type_constraint(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r", ast.OUT, "A"), node_pattern("b"))
        matches = matcher.collect((pattern,), {})
        assert {m["r"].id for m in matches} == {0, 1}

    def test_two_hop_paths(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(
            node_pattern("a"), rel("r1"), node_pattern("b"), rel("r2"),
            node_pattern("c"),
        )
        matches = matcher.collect((pattern,), {})
        # 0->1->3, 0->2->3, 1->3->3(loop), 2->3->3(loop).
        assert len(matches) == 4


class TestRelationshipUniqueness:
    def test_loop_cannot_repeat(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(
            node_pattern("a"), rel("r1", ast.BOTH), node_pattern("b"),
            rel("r2", ast.BOTH), node_pattern("c"),
        )
        for match in matcher.collect((pattern,), {}):
            assert match["r1"].id != match["r2"].id

    def test_uniqueness_across_comma_patterns(self, diamond):
        matcher = Matcher(diamond)
        p1 = path(node_pattern("a"), rel("r1", ast.OUT, "A"), node_pattern("b"))
        p2 = path(node_pattern("c"), rel("r2", ast.OUT, "A"), node_pattern("d"))
        for match in matcher.collect((p1, p2), {}):
            assert match["r1"].id != match["r2"].id

    def test_uniqueness_disabled(self, diamond):
        loose = Matcher(diamond, enforce_rel_uniqueness=False)
        p1 = path(node_pattern("a"), rel("r1", ast.OUT, "A"), node_pattern("b"))
        p2 = path(node_pattern("c"), rel("r2", ast.OUT, "A"), node_pattern("d"))
        matches = loose.collect((p1, p2), {})
        assert any(m["r1"].id == m["r2"].id for m in matches)


class TestBoundVariables:
    def test_bound_node_constrains(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r"), node_pattern("b"))
        row = {"a": diamond.node(0)}
        matches = matcher.collect((pattern,), row)
        assert len(matches) == 2
        assert all(m["a"].id == 0 for m in matches)

    def test_bound_relationship_constrains(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r"), node_pattern("b"))
        row = {"r": diamond.relationship(2)}
        matches = matcher.collect((pattern,), row)
        assert len(matches) == 1
        assert matches[0]["a"].id == 1

    def test_null_bound_variable_never_matches(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r"), node_pattern("b"))
        assert matcher.collect((pattern,), {"a": None}) == []

    def test_shared_variable_joins_patterns(self, diamond):
        matcher = Matcher(diamond)
        p1 = path(node_pattern("a"), rel("r1", ast.OUT, "A"), node_pattern("m"))
        p2 = path(node_pattern("m"), rel("r2", ast.OUT, "B"), node_pattern("b"))
        matches = matcher.collect((p1, p2), {})
        assert len(matches) == 2  # through node 1 and node 2
        for match in matches:
            assert match["r1"].end == match["m"].id
            assert match["r2"].start == match["m"].id

    def test_same_variable_twice_in_one_pattern(self, diamond):
        # (n)-[r]->(n) matches only the self-loop.
        matcher = Matcher(diamond)
        pattern = ast.PathPattern(
            (node_pattern("n"), node_pattern("n")), (rel("r"),)
        )
        matches = matcher.collect((pattern,), {})
        assert len(matches) == 1
        assert matches[0]["n"].id == 3


class TestPropertyMaps:
    def test_inline_property_filter(self, diamond):
        matcher = Matcher(diamond)
        props = ast.MapLiteral((("id", ast.Literal(2)),))
        pattern = path(ast.NodePattern("n", (), props))
        matches = matcher.collect((pattern,), {})
        assert len(matches) == 1
        assert matches[0]["n"].id == 2

    def test_property_filter_no_match(self, diamond):
        matcher = Matcher(diamond)
        props = ast.MapLiteral((("id", ast.Literal(99)),))
        pattern = path(ast.NodePattern("n", (), props))
        assert matcher.collect((pattern,), {}) == []

    def test_rel_property_filter(self, diamond):
        matcher = Matcher(diamond)
        props = ast.MapLiteral((("id", ast.Literal(3)),))
        pattern = ast.PathPattern(
            (node_pattern("a"), node_pattern("b")),
            (ast.RelationshipPattern("r", (), ast.OUT, props),),
        )
        matches = matcher.collect((pattern,), {})
        assert len(matches) == 1
        assert matches[0]["r"].id == 3


class TestDeterminism:
    def test_match_order_is_stable(self, diamond):
        matcher = Matcher(diamond)
        pattern = path(node_pattern("a"), rel("r", ast.BOTH), node_pattern("b"))
        first = [(m["a"].id, m["r"].id, m["b"].id)
                 for m in matcher.collect((pattern,), {})]
        second = [(m["a"].id, m["r"].id, m["b"].id)
                  for m in matcher.collect((pattern,), {})]
        assert first == second


class TestInterleaving:
    """Each match is handed on before the next one is searched for."""

    @pytest.fixture
    def divisors(self):
        graph = PropertyGraph()
        for value in (1, 1, 0, 1, 1):
            graph.add_node(["N"], {"v": value})
        return graph

    def test_where_error_mid_enumeration_stops_the_match(self, divisors):
        query = parse_query("MATCH (n:N) WHERE 10 / n.v > 0 RETURN n.v")
        with evaluation_budget(10 ** 6):
            with pytest.raises(CypherRuntimeError, match="by zero"):
                Executor(divisors).execute(query)
            steps = ENVELOPE.steps
        # Three matcher extensions, two whole WHERE evaluations of six
        # steps, and five steps into the third one before `10 / 0` raises.
        # A matcher that enumerated all five nodes first would read 22.
        assert steps == 3 + 2 * 6 + 5

    def test_visitor_error_propagates_and_ends_the_search(self, diamond):
        pattern = path(node_pattern("a"), rel("r"), node_pattern("b"))
        seen = []

        def visit(bindings):
            seen.append(bindings["r"].id)
            if len(seen) == 2:
                raise CypherRuntimeError("stop here")
            return False

        with evaluation_budget(10 ** 6):
            with pytest.raises(CypherRuntimeError, match="stop here"):
                Matcher(diamond).match((pattern,), {}, visit)
            steps = ENVELOPE.steps
        assert seen == [0, 1]
        # Node 0's chain start and its two hops: nothing past the raise.
        assert steps == 3

    def test_visitor_returning_true_stops_and_bindings_are_restored(self, diamond):
        pattern = path(node_pattern("a"), rel("r"), node_pattern("b"))
        row = {"x": 1}
        live = []

        def visit(bindings):
            live.append(bindings)
            return len(live) == 3

        assert Matcher(diamond).match((pattern,), row, visit) is True
        assert len(live) == 3
        # One dict is extended in place and unwound after each match.
        assert live[0] is live[2] and live[0] == {"x": 1}
        assert row == {"x": 1}
        assert Matcher(diamond).exists((pattern,), {})
        assert not Matcher(diamond).exists((path(node_pattern("n", "Z")),), {})
