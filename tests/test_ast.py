"""Tests for AST node helpers (depth, variables, walk_expressions)."""

import pytest

from repro.cypher import ast
from repro.cypher.parser import parse_expression, parse_query


class TestDepth:
    def test_leaf_depth(self):
        assert ast.Literal(1).depth() == 1
        assert ast.Variable("x").depth() == 1

    def test_nested_depth(self):
        expr = parse_expression("abs(1 + 2)")
        assert expr.depth() == 3

    def test_case_depth_counts_arms(self):
        expr = parse_expression("CASE WHEN abs(1) = 1 THEN 2 ELSE 3 END")
        assert expr.depth() == 4  # case -> binary -> abs -> literal

    def test_slice_depth(self):
        expr = parse_expression("[1,2,3][0..abs(2)]")
        assert expr.depth() >= 3


class TestVariables:
    def test_collects_all_occurrences(self):
        expr = parse_expression("n.x + m.y + n.z")
        assert sorted(expr.variables()) == ["m", "n", "n"]

    def test_none_in_literals(self):
        assert list(parse_expression("1 + 'a'").variables()) == []

    def test_pattern_variables(self):
        query = parse_query("MATCH (a)-[r]->(b), (c) RETURN 1 AS x")
        pattern_vars = []
        for pattern in query.clauses[0].patterns:
            pattern_vars.extend(pattern.variables())
        assert pattern_vars == ["a", "b", "r", "c"]


class TestValidation:
    def test_query_requires_clauses(self):
        with pytest.raises(ValueError):
            ast.Query(())

    def test_path_pattern_arity(self):
        with pytest.raises(ValueError):
            ast.PathPattern((ast.NodePattern("a"),),
                            (ast.RelationshipPattern("r"),))

    def test_relationship_direction_validated(self):
        with pytest.raises(ValueError):
            ast.RelationshipPattern("r", (), "sideways")


class TestProjectionItemNames:
    def test_alias_wins(self):
        item = ast.ProjectionItem(ast.Variable("n"), "alias")
        assert item.column == "alias"

    def test_bare_variable_name(self):
        item = ast.ProjectionItem(ast.Variable("n"))
        assert item.column == "n"

    def test_expression_renders(self):
        item = ast.ProjectionItem(ast.PropertyAccess(ast.Variable("n"), "x"))
        assert item.column == "n.x"


class TestWalkExpressions:
    def test_match_yields_properties_and_where(self):
        query = parse_query("MATCH (a {id: 1}) WHERE a.x = 2 RETURN 1 AS c")
        exprs = list(ast.walk_expressions(query.clauses[0]))
        assert len(exprs) == 2  # the property map and the WHERE

    def test_with_yields_everything(self):
        query = parse_query(
            "MATCH (a) WITH a.x AS v ORDER BY v SKIP 1 LIMIT 2 WHERE v > 0 "
            "RETURN v"
        )
        with_clause = query.clauses[1]
        exprs = list(ast.walk_expressions(with_clause))
        # item, order key, skip, limit, where.
        assert len(exprs) == 5

    def test_write_clauses_yield_expressions(self):
        query = parse_query("MATCH (n) SET n.x = n.y + 1")
        exprs = list(ast.walk_expressions(query.clauses[1]))
        assert len(exprs) == 1
        query = parse_query("MATCH (n) DELETE n")
        exprs = list(ast.walk_expressions(query.clauses[1]))
        assert exprs == [ast.Variable("n")]
        query = parse_query("CREATE (n {a: 1})-[r:T {b: 2}]->(m)")
        exprs = list(ast.walk_expressions(query.clauses[0]))
        assert len(exprs) == 2

    def test_call_yields_arguments(self):
        query = parse_query("CALL db.labels() YIELD label RETURN label")
        assert list(ast.walk_expressions(query.clauses[0])) == []
