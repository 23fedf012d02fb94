"""Tests for expression evaluation semantics."""

import math

import pytest

from repro.cypher.parser import parse_expression
from repro.engine.errors import CypherRuntimeError, CypherTypeError
from repro.engine.evaluator import Evaluator, has_aggregate
from repro.graph.model import Node, PropertyGraph


@pytest.fixture
def evaluator():
    graph = PropertyGraph()
    graph.add_node(["L"], {"id": 0, "x": 5, "name": "zero"})
    graph.add_node(["L"], {"id": 1})
    graph.add_relationship(0, 1, "T", {"id": 0, "w": 2.5})
    return Evaluator(graph)


def ev(evaluator, text, **env):
    return evaluator.evaluate(parse_expression(text), env)


class TestArithmetic:
    def test_integer_arithmetic(self, evaluator):
        assert ev(evaluator, "2 + 3 * 4") == 14
        assert ev(evaluator, "2 - 5") == -3

    def test_integer_division_truncates_toward_zero(self, evaluator):
        assert ev(evaluator, "7 / 2") == 3
        assert ev(evaluator, "-7 / 2") == -3  # not -4: Cypher truncates

    def test_integer_division_by_zero_raises(self, evaluator):
        with pytest.raises(CypherRuntimeError):
            ev(evaluator, "1 / 0")

    def test_float_division_by_zero_is_infinite(self, evaluator):
        assert ev(evaluator, "1.0 / 0.0") == float("inf")
        assert ev(evaluator, "-1.0 / 0.0") == float("-inf")
        assert math.isnan(ev(evaluator, "0.0 / 0.0"))

    def test_modulo_keeps_dividend_sign(self, evaluator):
        # Java/Neo4j semantics: -5 % 3 == -2 (Python would give 1).
        assert ev(evaluator, "-5 % 3") == -2
        assert ev(evaluator, "5 % -3") == 2
        assert ev(evaluator, "5 % 3") == 2

    def test_integer_modulo_by_zero_raises(self, evaluator):
        with pytest.raises(CypherRuntimeError):
            ev(evaluator, "5 % 0")

    def test_modulo_of_infinity_is_nan(self, evaluator):
        # Python's fmod raises on an infinite dividend; IEEE gives NaN.
        assert math.isnan(ev(evaluator, "(1.0 / 0.0) % 5"))
        assert math.isnan(ev(evaluator, "(-1.0 / 0.0) % 2.5"))
        assert ev(evaluator, "5.5 % (1.0 / 0.0)") == 5.5

    def test_power_always_float(self, evaluator):
        assert ev(evaluator, "2 ^ 3") == 8.0
        assert isinstance(ev(evaluator, "2 ^ 3"), float)

    def test_int64_overflow_raises(self, evaluator):
        with pytest.raises(CypherRuntimeError):
            ev(evaluator, "9223372036854775807 + 1")
        with pytest.raises(CypherRuntimeError):
            ev(evaluator, "9223372036854775807 * 2")

    def test_unary_minus(self, evaluator):
        assert ev(evaluator, "-(3 + 4)") == -7
        with pytest.raises(CypherTypeError):
            ev(evaluator, "-'a'")

    def test_string_concatenation(self, evaluator):
        assert ev(evaluator, "'a' + 'b'") == "ab"

    def test_list_concatenation(self, evaluator):
        assert ev(evaluator, "[1] + [2]") == [1, 2]
        assert ev(evaluator, "[1] + 2") == [1, 2]
        assert ev(evaluator, "1 + [2]") == [1, 2]

    def test_mixed_type_arithmetic_raises(self, evaluator):
        with pytest.raises(CypherTypeError):
            ev(evaluator, "'a' * 2")
        with pytest.raises(CypherTypeError):
            ev(evaluator, "true + 1")

    def test_null_propagation(self, evaluator):
        assert ev(evaluator, "null + 1") is None
        assert ev(evaluator, "1 * null") is None
        assert ev(evaluator, "null ^ 2") is None


class TestComparisons:
    def test_basic(self, evaluator):
        assert ev(evaluator, "1 < 2") is True
        assert ev(evaluator, "2 <= 1") is False
        assert ev(evaluator, "1 = 1.0") is True
        assert ev(evaluator, "1 <> 2") is True

    def test_incomparable_is_null(self, evaluator):
        assert ev(evaluator, "1 < 'a'") is None
        assert ev(evaluator, "true > 0") is None

    def test_null_comparisons(self, evaluator):
        assert ev(evaluator, "null = null") is None
        assert ev(evaluator, "null <> 1") is None

    def test_in_membership(self, evaluator):
        assert ev(evaluator, "2 IN [1, 2, 3]") is True
        assert ev(evaluator, "9 IN [1, 2]") is False
        assert ev(evaluator, "9 IN [1, null]") is None
        assert ev(evaluator, "1 IN [1, null]") is True
        assert ev(evaluator, "null IN []") is False
        assert ev(evaluator, "null IN [1]") is None
        assert ev(evaluator, "1 IN null") is None

    def test_in_requires_list(self, evaluator):
        with pytest.raises(CypherTypeError):
            ev(evaluator, "1 IN 2")

    def test_string_predicates(self, evaluator):
        assert ev(evaluator, "'hello' STARTS WITH 'he'") is True
        assert ev(evaluator, "'hello' ENDS WITH 'lo'") is True
        assert ev(evaluator, "'hello' CONTAINS 'ell'") is True
        assert ev(evaluator, "'hello' CONTAINS 'x'") is False
        assert ev(evaluator, "'a' STARTS WITH null") is None
        assert ev(evaluator, "1 CONTAINS 'x'") is None

    def test_regex(self, evaluator):
        assert ev(evaluator, "'abc' =~ 'a.c'") is True
        assert ev(evaluator, "'abc' =~ 'a'") is False  # full match
        assert ev(evaluator, "null =~ 'a'") is None


class TestLogic:
    def test_connectives(self, evaluator):
        assert ev(evaluator, "true AND null") is None
        assert ev(evaluator, "false AND null") is False
        assert ev(evaluator, "true OR null") is True
        assert ev(evaluator, "false XOR true") is True
        assert ev(evaluator, "NOT null") is None

    def test_non_boolean_predicate_raises(self, evaluator):
        with pytest.raises(CypherTypeError):
            ev(evaluator, "1 AND true")


class TestAccessors:
    def test_property_access(self, evaluator):
        node = evaluator.graph.node(0)
        assert ev(evaluator, "n.x", n=node) == 5
        assert ev(evaluator, "n.missing", n=node) is None
        assert ev(evaluator, "n.x", n=None) is None

    def test_property_access_on_map(self, evaluator):
        assert ev(evaluator, "m.a", m={"a": 1}) == 1

    def test_property_access_on_scalar_raises(self, evaluator):
        with pytest.raises(CypherTypeError):
            ev(evaluator, "x.a", x=5)

    def test_undefined_variable_raises(self, evaluator):
        with pytest.raises(CypherRuntimeError):
            ev(evaluator, "ghost")

    def test_list_index(self, evaluator):
        assert ev(evaluator, "[1,2,3][0]") == 1
        assert ev(evaluator, "[1,2,3][-1]") == 3
        assert ev(evaluator, "[1,2,3][9]") is None
        assert ev(evaluator, "[1,2][null]") is None

    def test_map_index(self, evaluator):
        assert ev(evaluator, "{a: 1}['a']") == 1

    def test_slices(self, evaluator):
        assert ev(evaluator, "[1,2,3,4][1..3]") == [2, 3]
        assert ev(evaluator, "[1,2,3][..2]") == [1, 2]
        assert ev(evaluator, "'abcd'[1..3]") == "bc"

    def test_is_null(self, evaluator):
        assert ev(evaluator, "null IS NULL") is True
        assert ev(evaluator, "1 IS NOT NULL") is True


class TestFunctionsInExpressions:
    def test_node_ref_resolution(self, evaluator):
        """startNode/endNode must resolve to actual graph nodes."""
        rel = evaluator.graph.relationship(0)
        start = ev(evaluator, "startNode(r)", r=rel)
        assert isinstance(start, Node) and start.id == 0
        end = ev(evaluator, "endNode(r)", r=rel)
        assert end.id == 1

    def test_nested_node_ref(self, evaluator):
        rel = evaluator.graph.relationship(0)
        assert ev(evaluator, "id(endNode(r))", r=rel) == 1
        assert ev(evaluator, "endNode(r).id", r=rel) == 1

    def test_aggregate_outside_projection_raises(self, evaluator):
        with pytest.raises(CypherRuntimeError):
            ev(evaluator, "count(x)", x=1)


class TestCase:
    def test_generic_case(self, evaluator):
        assert ev(evaluator, "CASE WHEN 1 < 2 THEN 'yes' ELSE 'no' END") == "yes"
        assert ev(evaluator, "CASE WHEN false THEN 1 END") is None

    def test_simple_case(self, evaluator):
        assert ev(evaluator, "CASE 2 WHEN 1 THEN 'a' WHEN 2 THEN 'b' END") == "b"

    def test_case_null_condition_skipped(self, evaluator):
        assert ev(evaluator, "CASE WHEN null THEN 1 ELSE 2 END") == 2


class TestHasAggregate:
    def test_detection(self):
        assert has_aggregate(parse_expression("count(*)"))
        assert has_aggregate(parse_expression("1 + sum(x)"))
        assert not has_aggregate(parse_expression("abs(x) + 1"))
