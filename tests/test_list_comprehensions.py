"""Tests for list comprehensions across parser, printer, and evaluator."""

import pytest

from repro.cypher import ast
from repro.cypher.parser import parse_expression, parse_query
from repro.cypher.printer import print_expression
from repro.engine.errors import CypherTypeError
from repro.engine.executor import Executor
from repro.graph.model import PropertyGraph


@pytest.fixture
def executor():
    graph = PropertyGraph()
    graph.add_node(["P"], {"id": 0, "xs": ["a", "bb", "ccc"]})
    return Executor(graph)


def run(executor, text):
    return executor.execute(parse_query(text))


class TestParsing:
    def test_full_form(self):
        expr = parse_expression("[x IN [1,2] WHERE x > 1 | x * 2]")
        assert isinstance(expr, ast.ListComprehension)
        assert expr.variable == "x"
        assert expr.where is not None
        assert expr.projection is not None

    def test_filter_only(self):
        expr = parse_expression("[x IN [1,2] WHERE x > 1]")
        assert expr.projection is None

    def test_map_only(self):
        expr = parse_expression("[x IN [1,2] | x + 1]")
        assert expr.where is None

    def test_copy_form(self):
        expr = parse_expression("[x IN [1,2]]")
        assert expr.where is None and expr.projection is None

    def test_list_literal_not_confused(self):
        expr = parse_expression("[1, 2]")
        assert isinstance(expr, ast.ListLiteral)

    def test_round_trip(self):
        text = "[x IN [1, 2, 3] WHERE ((x) > (1)) | ((x) * (2))]"
        expr = parse_expression(text)
        assert parse_expression(print_expression(expr)) == expr


class TestEvaluation:
    def test_filter_and_map(self, executor):
        rows = run(executor, "RETURN [x IN [1,2,3,4] WHERE x % 2 = 0 | x * x] AS v")
        assert rows.rows == [([4, 16],)]

    def test_null_source(self, executor):
        rows = run(executor, "RETURN [x IN null | x] AS v")
        assert rows.rows == [(None,)]

    def test_non_list_source_raises(self, executor):
        with pytest.raises(CypherTypeError):
            run(executor, "RETURN [x IN 5 | x] AS v")

    def test_null_predicate_filters(self, executor):
        rows = run(executor, "RETURN [x IN [1, null, 3] WHERE x > 0] AS v")
        assert rows.rows == [([1, 3],)]

    def test_shadowing_is_local(self, executor):
        rows = run(
            executor,
            "UNWIND [10] AS x RETURN [x IN [1, 2] | x] AS inner, x AS outer",
        )
        assert rows.rows == [([1, 2], 10)]

    def test_over_property_list(self, executor):
        rows = run(
            executor,
            "MATCH (p:P) RETURN [s IN p.xs WHERE size(s) > 1 | toUpper(s)] AS v",
        )
        assert rows.rows == [(["BB", "CCC"],)]

    def test_nested_comprehension(self, executor):
        rows = run(
            executor,
            "RETURN [x IN [1,2] | [y IN [10] | x + y]] AS v",
        )
        assert rows.rows == [([[11], [12]],)]


class TestAnalysis:
    def test_bound_variable_not_a_dependency(self):
        from repro.cypher.analysis import analyze

        query = parse_query("MATCH (n) RETURN [x IN [1] | x + 1] AS v")
        # `x` is local to the comprehension: zero cross-clause references.
        assert analyze(query).dependencies == 0

    def test_outer_references_still_counted(self):
        from repro.cypher.analysis import analyze

        query = parse_query("MATCH (n) RETURN [x IN [1] | x + n.id] AS v")
        assert analyze(query).dependencies == 1

    def test_depth_counts_body(self):
        expr = parse_expression("[x IN [1] | abs(x + 1)]")
        assert expr.depth() >= 4
