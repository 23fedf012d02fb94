"""Expression evaluation with openCypher semantics.

The evaluator interprets :mod:`repro.cypher.ast` expression trees against a
row of bindings and the current graph.  It implements:

* three-valued logic for the boolean connectives and comparisons;
* null propagation through operators and property accesses;
* Cypher arithmetic — integer division truncates, ``%`` keeps the dividend's
  sign (Java-style, as in Neo4j), ``^`` always yields a float, and integer
  overflow beyond 64 bits is an error (production GDBs store 64-bit ints);
* string predicates (STARTS WITH / ENDS WITH / CONTAINS / ``=~``);
* list membership, indexing, slicing, and concatenation;
* the 61-function library plus ``CASE`` expressions.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, Optional

from repro.cypher import ast
from repro.cypher.functions import call_function, is_aggregate
from repro.engine.envelope import ENVELOPE
from repro.engine.errors import CypherRuntimeError, CypherTypeError
from repro.graph import values as V
from repro.graph.model import Node, PropertyGraph, Relationship
from repro.obs import PROBE

__all__ = ["Evaluator", "has_aggregate"]

_INT64_MIN = -(2**63)
_INT64_MAX = 2**63 - 1


def _check_int64(value: Any) -> Any:
    if isinstance(value, int) and not isinstance(value, bool):
        if not _INT64_MIN <= value <= _INT64_MAX:
            raise CypherRuntimeError("integer overflow")
    return value


def has_aggregate(expr: ast.Expression) -> bool:
    """Whether *expr* contains an aggregation function call anywhere."""
    if isinstance(expr, ast.CountStar):
        return True
    if isinstance(expr, ast.FunctionCall) and is_aggregate(expr.name):
        return True
    return any(has_aggregate(child) for child in expr.children())


class Evaluator:
    """Evaluates expressions against a binding row and a graph."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        # Per-call profiling tally; a plain int increment because this is
        # the hottest entry point in the repo (once per row per expression).
        # The owning engine flushes it into the metrics registry per query.
        self.profile_calls = 0

    # -- public API ---------------------------------------------------

    def evaluate(self, expr: ast.Expression, row: Dict[str, Any]) -> Any:
        """Evaluate *expr* in the environment *row*; returns a Cypher value."""
        if ENVELOPE.limit is not None:
            # One step per top-level expression evaluation: the unit the
            # campaign's resource envelope budgets runaway queries in.
            ENVELOPE.charge()
        if PROBE.on:
            self.profile_calls += 1
        handler = _DISPATCH.get(expr.__class__)
        if handler is None:
            raise CypherRuntimeError(f"cannot evaluate {type(expr).__name__}")
        value = handler(self, expr, row)
        if (
            value.__class__ is tuple
            and len(value) == 2
            and value[0] == "__node_ref__"
        ):
            return self.graph.node(value[1])
        return value

    def evaluate_predicate(self, expr: ast.Expression, row: Dict[str, Any]) -> Optional[bool]:
        """Evaluate *expr* as a WHERE predicate (boolean or null)."""
        return V.coerce_to_boolean(self.evaluate(expr, row))

    # -- internals ----------------------------------------------------

    def _eval_literal(self, expr: ast.Literal, row: Dict[str, Any]) -> Any:
        return expr.value

    def _eval_variable(self, expr: ast.Variable, row: Dict[str, Any]) -> Any:
        if expr.name not in row:
            raise CypherRuntimeError(f"variable `{expr.name}` not defined")
        return row[expr.name]

    def _eval_is_null(self, expr: ast.IsNull, row: Dict[str, Any]) -> Any:
        value = self.evaluate(expr.operand, row)
        return (value is not None) if expr.negated else (value is None)

    def _eval_function(self, expr: ast.FunctionCall, row: Dict[str, Any]) -> Any:
        if is_aggregate(expr.name):
            raise CypherRuntimeError(
                f"aggregate {expr.name}() not allowed in this context"
            )
        args = [self.evaluate(arg, row) for arg in expr.args]
        return call_function(expr.name, args)

    def _eval_count_star(self, expr: ast.CountStar, row: Dict[str, Any]) -> Any:
        raise CypherRuntimeError("count(*) not allowed in this context")

    def _eval_list_literal(self, expr: ast.ListLiteral, row: Dict[str, Any]) -> Any:
        return [self.evaluate(item, row) for item in expr.items]

    def _eval_map_literal(self, expr: ast.MapLiteral, row: Dict[str, Any]) -> Any:
        return {key: self.evaluate(value, row) for key, value in expr.items}

    def _eval_labels_predicate(
        self, expr: ast.LabelsPredicate, row: Dict[str, Any]
    ) -> Any:
        subject = self.evaluate(expr.subject, row)
        if subject is None:
            return None
        if not isinstance(subject, Node):
            raise CypherTypeError("label predicate requires a node")
        return all(label in subject.labels for label in expr.labels)

    def _pattern_predicate(self, expr: ast.PatternPredicate, row: Dict[str, Any]) -> bool:
        # Existential check: does at least one match extend the current row?
        from repro.engine.matcher import Matcher  # the matcher imports this module

        for name in expr.pattern.variables():
            if name in row and row[name] is None:
                return False
        return Matcher(self.graph).exists((expr.pattern,), row)

    def _property(self, expr: ast.PropertyAccess, row: Dict[str, Any]) -> Any:
        subject = self.evaluate(expr.subject, row)
        if subject is None:
            return None
        if isinstance(subject, (Node, Relationship)):
            return subject.properties.get(expr.key)
        if isinstance(subject, dict):
            return subject.get(expr.key)
        raise CypherTypeError(
            f"cannot access property .{expr.key} on {V.type_name(subject)}"
        )

    def _unary(self, expr: ast.Unary, row: Dict[str, Any]) -> Any:
        operand = self.evaluate(expr.operand, row)
        if expr.op == "NOT":
            return V.ternary_not(V.coerce_to_boolean(operand))
        if operand is None:
            return None
        if expr.op == "-":
            if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                raise CypherTypeError("unary minus requires a number")
            return _check_int64(-operand)
        if expr.op == "+":
            if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                raise CypherTypeError("unary plus requires a number")
            return operand
        raise CypherRuntimeError(f"unknown unary operator {expr.op!r}")

    def _binary(self, expr: ast.Binary, row: Dict[str, Any]) -> Any:
        op = expr.op

        connective = _CONNECTIVES.get(op)
        if connective is not None:
            left = V.coerce_to_boolean(self.evaluate(expr.left, row))
            # Short circuiting is observable through errors, but Cypher
            # evaluates eagerly; keep eager to mirror the reference.
            right = V.coerce_to_boolean(self.evaluate(expr.right, row))
            return connective(left, right)

        left = self.evaluate(expr.left, row)
        right = self.evaluate(expr.right, row)

        handler = _BINOPS.get(op)
        if handler is not None:
            return handler(self, left, right)
        return self._arithmetic(op, left, right)

    def _op_eq(self, left: Any, right: Any) -> Any:
        return V.ternary_equals(left, right)

    def _op_neq(self, left: Any, right: Any) -> Any:
        return V.ternary_not(V.ternary_equals(left, right))

    def _op_lt(self, left: Any, right: Any) -> Any:
        verdict = V.ternary_compare(left, right)
        return None if verdict is None else verdict < 0

    def _op_le(self, left: Any, right: Any) -> Any:
        verdict = V.ternary_compare(left, right)
        return None if verdict is None else verdict <= 0

    def _op_gt(self, left: Any, right: Any) -> Any:
        verdict = V.ternary_compare(left, right)
        return None if verdict is None else verdict > 0

    def _op_ge(self, left: Any, right: Any) -> Any:
        verdict = V.ternary_compare(left, right)
        return None if verdict is None else verdict >= 0

    def _op_starts_with(self, left: Any, right: Any) -> Any:
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        return left.startswith(right)

    def _op_ends_with(self, left: Any, right: Any) -> Any:
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        return left.endswith(right)

    def _op_contains(self, left: Any, right: Any) -> Any:
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        return right in left

    def _op_regex(self, left: Any, right: Any) -> Any:
        if not isinstance(left, str) or not isinstance(right, str):
            return None
        try:
            return re.fullmatch(right, left) is not None
        except re.error as exc:
            raise CypherRuntimeError(f"invalid regex: {exc}") from exc

    def _in(self, needle: Any, haystack: Any) -> Optional[bool]:
        if haystack is None:
            return None
        if not isinstance(haystack, list):
            raise CypherTypeError("IN requires a list on the right-hand side")
        # `null IN []` is false (no elements to compare); with a non-empty
        # list a null needle yields null.
        saw_null = needle is None and bool(haystack)
        for item in haystack:
            verdict = V.ternary_equals(needle, item)
            if verdict is True:
                return True
            if verdict is None:
                saw_null = True
        return None if saw_null else False

    def _arithmetic(self, op: str, left: Any, right: Any) -> Any:
        if left is None or right is None:
            return None

        if op == "+":
            if isinstance(left, str) and isinstance(right, str):
                return left + right
            if isinstance(left, list) and isinstance(right, list):
                return left + right
            if isinstance(left, list):
                return left + [right]
            if isinstance(right, list):
                return [left] + right

        for operand in (left, right):
            if isinstance(operand, bool) or not isinstance(operand, (int, float)):
                raise CypherTypeError(
                    f"operator {op} cannot combine {V.type_name(left)} and "
                    f"{V.type_name(right)}"
                )

        both_int = isinstance(left, int) and isinstance(right, int)
        try:
            if op == "+":
                return _check_int64(left + right)
            if op == "-":
                return _check_int64(left - right)
            if op == "*":
                return _check_int64(left * right)
            if op == "/":
                if both_int:
                    if right == 0:
                        raise CypherRuntimeError("/ by zero")
                    return _check_int64(int(left / right))  # truncate toward zero
                if right == 0:
                    if left == 0:
                        return float("nan")
                    return math.copysign(float("inf"), left) * math.copysign(1.0, right)
                return left / right
            if op == "%":
                # fmod raises on an infinite dividend; IEEE gives NaN.
                if right == 0 or left in (math.inf, -math.inf):
                    if both_int:
                        raise CypherRuntimeError("% by zero")
                    return float("nan")
                result = math.fmod(left, right)
                return int(result) if both_int else result
            if op == "^":
                try:
                    result = float(left) ** float(right)
                except (OverflowError, ZeroDivisionError):
                    raise CypherRuntimeError("exponentiation out of range")
                if isinstance(result, complex):
                    return float("nan")
                return result
        except OverflowError as exc:
            raise CypherRuntimeError("arithmetic overflow") from exc
        raise CypherRuntimeError(f"unknown operator {op!r}")

    def _comprehension(self, expr: ast.ListComprehension, row: Dict[str, Any]) -> Any:
        source = self.evaluate(expr.source, row)
        if source is None:
            return None
        if not isinstance(source, list):
            raise CypherTypeError(
                f"list comprehension requires a list, got {V.type_name(source)}"
            )
        out = []
        for item in source:
            inner = dict(row)
            inner[expr.variable] = item
            if expr.where is not None:
                verdict = V.coerce_to_boolean(self.evaluate(expr.where, inner))
                if verdict is not True:
                    continue
            if expr.projection is not None:
                out.append(self.evaluate(expr.projection, inner))
            else:
                out.append(item)
        return out

    def _index(self, expr: ast.ListIndex, row: Dict[str, Any]) -> Any:
        subject = self.evaluate(expr.subject, row)
        index = self.evaluate(expr.index, row)
        if subject is None or index is None:
            return None
        if isinstance(subject, dict):
            if not isinstance(index, str):
                raise CypherTypeError("map index must be a string")
            return subject.get(index)
        if isinstance(subject, (list, str)):
            if isinstance(index, bool) or not isinstance(index, int):
                raise CypherTypeError("list index must be an integer")
            if index < -len(subject) or index >= len(subject):
                return None
            return subject[index]
        raise CypherTypeError(f"cannot index {V.type_name(subject)}")

    def _slice(self, expr: ast.ListSlice, row: Dict[str, Any]) -> Any:
        subject = self.evaluate(expr.subject, row)
        if subject is None:
            return None
        if not isinstance(subject, (list, str)):
            raise CypherTypeError(f"cannot slice {V.type_name(subject)}")
        start = self.evaluate(expr.start, row) if expr.start is not None else None
        end = self.evaluate(expr.end, row) if expr.end is not None else None
        if (expr.start is not None and start is None) or (
            expr.end is not None and end is None
        ):
            return None
        for bound in (start, end):
            if bound is not None and (
                isinstance(bound, bool) or not isinstance(bound, int)
            ):
                raise CypherTypeError("slice bounds must be integers")
        return subject[slice(start, end)]

    def _case(self, expr: ast.CaseExpression, row: Dict[str, Any]) -> Any:
        if expr.subject is not None:
            subject = self.evaluate(expr.subject, row)
            for alt in expr.alternatives:
                candidate = self.evaluate(alt.when, row)
                if V.ternary_equals(subject, candidate) is True:
                    return self.evaluate(alt.then, row)
        else:
            for alt in expr.alternatives:
                verdict = V.coerce_to_boolean(self.evaluate(alt.when, row))
                if verdict is True:
                    return self.evaluate(alt.then, row)
        if expr.default is not None:
            return self.evaluate(expr.default, row)
        return None


# Binary-operator dispatch: boolean connectives coerce their operands, all
# other operators receive plainly evaluated values; arithmetic is the
# fallthrough in Evaluator._binary.
_CONNECTIVES = {"AND": V.ternary_and, "OR": V.ternary_or, "XOR": V.ternary_xor}
_BINOPS = {
    "=": Evaluator._op_eq,
    "<>": Evaluator._op_neq,
    "<": Evaluator._op_lt,
    "<=": Evaluator._op_le,
    ">": Evaluator._op_gt,
    ">=": Evaluator._op_ge,
    "IN": Evaluator._in,
    "STARTS WITH": Evaluator._op_starts_with,
    "ENDS WITH": Evaluator._op_ends_with,
    "CONTAINS": Evaluator._op_contains,
    "=~": Evaluator._op_regex,
}

# Exact-type handler table for Evaluator.evaluate: one entry per concrete
# expression class (a class without one cannot be evaluated).
_DISPATCH = {
    ast.Literal: Evaluator._eval_literal,
    ast.Variable: Evaluator._eval_variable,
    ast.PropertyAccess: Evaluator._property,
    ast.Unary: Evaluator._unary,
    ast.Binary: Evaluator._binary,
    ast.IsNull: Evaluator._eval_is_null,
    ast.FunctionCall: Evaluator._eval_function,
    ast.CountStar: Evaluator._eval_count_star,
    ast.ListLiteral: Evaluator._eval_list_literal,
    ast.MapLiteral: Evaluator._eval_map_literal,
    ast.ListComprehension: Evaluator._comprehension,
    ast.ListIndex: Evaluator._index,
    ast.ListSlice: Evaluator._slice,
    ast.CaseExpression: Evaluator._case,
    ast.PatternPredicate: Evaluator._pattern_predicate,
    ast.LabelsPredicate: Evaluator._eval_labels_predicate,
}
