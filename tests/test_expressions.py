"""Tests for the expression factory (§3.5, Algorithm 2)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.expressions import ExpressionFactory, _lit, type_of_value
from repro.cypher import ast
from repro.cypher.parser import parse_query
from repro.cypher.printer import print_expression
from repro.engine.errors import CypherError
from repro.engine.evaluator import Evaluator
from repro.graph import values as V
from repro.graph.generator import GraphGenerator
from repro.graph.model import PropertyGraph


@pytest.fixture
def factory():
    graph = GraphGenerator(seed=5).generate()
    return ExpressionFactory(graph, random.Random(5))


def evaluate(factory, expr):
    return Evaluator(factory.graph).evaluate(expr, {})


class TestTypeOfValue:
    def test_buckets(self):
        assert type_of_value(None) == "NULL"
        assert type_of_value(True) == "BOOLEAN"
        assert type_of_value(3) == "INTEGER"
        assert type_of_value(3.5) == "FLOAT"
        assert type_of_value("s") == "STRING"
        assert type_of_value([1]) == "LIST"


# Values constant_expression must reproduce exactly.
constant_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**31), max_value=2**31 - 1),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(
        alphabet=st.characters(min_codepoint=32, max_codepoint=126), max_size=12
    ),
    st.lists(st.integers(min_value=-100, max_value=100), max_size=4),
    st.lists(st.text(alphabet="abcXYZ09", max_size=5), max_size=4),
)


class TestConstantExpression:
    @given(constant_values, st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=200, deadline=None)
    def test_evaluates_to_value(self, value, depth, seed):
        """The core §3.5 soundness property: expression == value, exactly."""
        graph = PropertyGraph()
        factory = ExpressionFactory(graph, random.Random(seed))
        expr = factory.constant_expression(value, depth)
        result = Evaluator(graph).evaluate(expr, {})
        assert V.equivalence_key(result) == V.equivalence_key(value)

    @given(constant_values, st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trips_through_parser(self, value, depth, seed):
        """Generated expressions survive printing and reparsing."""
        graph = PropertyGraph()
        factory = ExpressionFactory(graph, random.Random(seed))
        expr = factory.constant_expression(value, depth)
        query = parse_query(f"RETURN {print_expression(expr)} AS v")
        from repro.engine.executor import Executor

        result = Executor(graph).execute(query)
        assert V.equivalence_key(result.rows[0][0]) == V.equivalence_key(value)

    def test_depth_zero_is_literal(self, factory):
        expr = factory.constant_expression(42, 0)
        assert expr == ast.Literal(42)

    def test_depth_increases_nesting(self, factory):
        deep = [factory.constant_expression(42, 5).depth() for _ in range(30)]
        shallow = [factory.constant_expression(42, 1).depth() for _ in range(30)]
        assert sum(deep) > sum(shallow)


class TestObfuscation:
    """Algorithm 2: distinguishing nested replacements."""

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_distinguishability_invariant(self, seed):
        """The wrapped access must still separate the target element from
        every competitor (line 8 of Algorithm 2)."""
        rng = random.Random(seed)
        graph = GraphGenerator(seed=seed).generate()
        factory = ExpressionFactory(graph, rng)
        evaluator = Evaluator(graph)

        nodes = list(graph.nodes())
        target = rng.choice(nodes)
        target_id = target.properties["id"]
        competitors = [
            n.properties["id"] for n in nodes if n.id != target.id
        ]
        access = ast.PropertyAccess(ast.Variable("n"), "id")
        expr, expected = factory.obfuscate_property_access(
            access, target_id, competitors, depth=3
        )
        # Instantiating with the target yields the tracked value...
        actual = evaluator.evaluate(expr, {"n": target})
        assert V.equivalence_key(actual) == V.equivalence_key(expected)
        # ...and with any competitor, something different.
        for other in nodes:
            if other.id == target.id:
                continue
            other_value = evaluator.evaluate(expr, {"n": other})
            assert V.equivalence_key(other_value) != V.equivalence_key(expected)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_value_is_reflexively_equal(self, seed):
        """The tracked value must satisfy `v = v` (no nulls/NaN inside)."""
        rng = random.Random(seed)
        graph = GraphGenerator(seed=seed).generate()
        factory = ExpressionFactory(graph, rng)
        node = rng.choice(list(graph.nodes()))
        access = ast.PropertyAccess(ast.Variable("n"), "id")
        _expr, expected = factory.obfuscate_property_access(
            access, node.properties["id"], [], depth=4
        )
        assert V.ternary_equals(expected, expected) is True

    def test_zero_depth_returns_original(self, factory):
        access = ast.PropertyAccess(ast.Variable("n"), "id")
        expr, value = factory.obfuscate_property_access(access, 7, [1, 2], 0)
        assert expr is access
        assert value == 7

    def test_nesting_grows_expression(self, factory):
        access = ast.PropertyAccess(ast.Variable("n"), "id")
        expr, _value = factory.obfuscate_property_access(access, 7, [1, 2], 5)
        assert expr.depth() > access.depth()


class _ReferenceFactory(ExpressionFactory):
    """Algorithm 2 as it was first written: one literal tree and one
    evaluation per competitor, no early exit.  The differential test
    below holds the incremental version to it."""

    def obfuscate_property_access(
        self,
        access,
        target_value,
        competitor_values,
        depth,
        attempts_per_level=8,
    ):
        expr = access
        value = target_value
        others = list(competitor_values)

        for _level in range(depth):
            accepted = False
            for _attempt in range(attempts_per_level):
                template = self._pick_template(type_of_value(value))
                if template is None:
                    break
                try:
                    new_value = self._eval_template(template, value)
                    new_others = [
                        self._eval_template(template, other) for other in others
                    ]
                except CypherError:
                    continue
                if V.ternary_equals(new_value, new_value) is not True:
                    continue
                target_key = V.equivalence_key(new_value)
                other_keys = {
                    V.equivalence_key(other) for other in new_others
                }
                if target_key in other_keys:
                    continue
                expr = template(expr)
                value = new_value
                others = new_others
                accepted = True
                break
            if not accepted:
                continue
        return expr, value

    def _eval_template(self, template, value):
        return self._evaluator.evaluate(template(_lit(value)), {})


# Values that differ only in type (1, 1.0, True), only in sign (0.0,
# -0.0), that are never equal to themselves (NaN, lists holding null), or
# that make templates raise (strings under arithmetic, int64 edges).
_TRICKY = [
    1, 1.0, True, 0, 0.0, -0.0, False, float("nan"), float("inf"),
    -float("inf"), None, "", " ", "1", "a b", [1, None], [None], [],
    [1, 1.0], [0.0], [-0.0], 2**63 - 1, -(2**63), 2**62, 1e308, -7, 7,
    "ABC", "abc", [True], ["x", "y"],
]


def _random_value(rng):
    roll = rng.random()
    if roll < 0.45:
        return rng.choice(_TRICKY)
    if roll < 0.65:
        return rng.randint(-20, 20)
    if roll < 0.8:
        return rng.choice([0.5, -0.5, 2.5, 3.0, 1e-3])
    if roll < 0.92:
        return rng.choice(["aa", "ab", "ba", "abc", "cba", "A", "a"])
    return [rng.randint(-2, 2) for _ in range(rng.randint(0, 3))]


class TestIncrementalAlgorithm2:
    """Evaluating each template once per distinct competitor value and
    stopping at the first rejection keeps every draw and every output of
    the literal-per-competitor original."""

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=400, deadline=None)
    def test_matches_reference(self, seed):
        cases = random.Random(seed)
        target = _random_value(cases)
        competitors = [_random_value(cases) for _ in range(cases.randint(0, 12))]
        # Duplicates, often of the target itself.
        competitors += [cases.choice(competitors + [target])
                        for _ in range(cases.randint(0, 4))]
        depth = cases.randint(0, 4)
        graph = PropertyGraph()
        fast = ExpressionFactory(graph, random.Random(seed))
        slow = _ReferenceFactory(graph, random.Random(seed))
        access = ast.PropertyAccess(ast.Variable("n"), "id")

        expr, value = fast.obfuscate_property_access(
            access, target, competitors, depth
        )
        ref_expr, ref_value = slow.obfuscate_property_access(
            access, target, competitors, depth
        )
        assert print_expression(expr) == print_expression(ref_expr)
        assert type(value) is type(ref_value)
        assert repr(value) == repr(ref_value)
        assert fast.rng.getstate() == slow.rng.getstate()
