"""Query complexity analysis (paper §5.4.2).

The paper parses 10 000 test queries per tool into ASTs and measures, per
query: (i) the number of patterns involved, (ii) the maximum depth of nested
expressions, (iii) the number of clauses involved, and (iv) the number of
cross-clause data references.  This module computes those four metrics plus
the per-clause-type histograms behind Figures 11 and 12.

:class:`QueryFacts` gathers them, and the function, operator and
pattern-shape lists and the predicate counters the fault features and
coverage tags read, in one walk of the tree; ``query.facts`` walks each
tree once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.cypher import ast

__all__ = [
    "QueryFacts",
    "QueryMetrics",
    "analyze",
    "clause_histogram",
    "clause_types_in",
    "functions_in",
]

AnyQuery = Union[ast.Query, ast.UnionQuery]

# Shape tag by path length; longer paths than the cap are tagged ``path-3+``.
_PATH_CAP = 3
_PATH_TAGS = ("path-0", "path-1", "path-2", "path-3+")

# Binary operators behind the fault features' predicate counters.
_COUNTED_OPS = {
    "STARTS WITH": "string_predicates",
    "ENDS WITH": "string_predicates",
    "CONTAINS": "string_predicates",
    "%": "modulo_ops",
    "/": "division_ops",
    "XOR": "xor_ops",
    "<>": "rel_inequality_predicates",
}


@dataclass(frozen=True)
class QueryMetrics:
    """The four complexity metrics of Table 5."""

    patterns: int
    expression_depth: int
    clauses: int
    dependencies: int


def _flatten(query: AnyQuery) -> List[ast.Query]:
    if isinstance(query, ast.UnionQuery):
        return _flatten(query.left) + [query.right]
    return [query]


@dataclass(frozen=True)
class QueryFacts:
    """Everything the per-query analyses read, gathered in one tree walk.

    ``metrics`` are the Table 5 metrics.  ``clause_names`` (clauses and
    subclauses, Figure 11 accounting), ``functions`` (lower-cased),
    ``operators`` and pattern ``shapes`` keep repeats, in tree order.
    ``counts`` holds the predicate counters of
    :class:`repro.gdb.faults.QueryFeatures`, by field name, over the
    counted positions listed above ``_CLAUSES`` (``aggregate_count``
    tallies ``count(*)`` only).  A tree walks once: ``query.facts`` keeps
    the result on the tree.
    """

    metrics: QueryMetrics
    clause_names: Tuple[str, ...]
    functions: Tuple[str, ...]
    operators: Tuple[str, ...]
    shapes: Tuple[str, ...]
    counts: Dict[str, int]

    @classmethod
    def of(cls, query: AnyQuery) -> "QueryFacts":
        walk = _Walk()
        for sub in _flatten(query):
            walk.query(sub)
        if isinstance(query, ast.UnionQuery):
            walk.clause_names.append("UNION")
        return cls(
            QueryMetrics(walk.patterns, walk.depth, walk.clauses, walk.dependencies),
            tuple(walk.clause_names),
            tuple(walk.functions),
            tuple(walk.operators),
            tuple(walk.shapes),
            walk.counts,
        )


class _Walk:
    """The accumulators of one :meth:`QueryFacts.of` walk.

    Clauses and expressions are visited through the class-keyed tables
    ``_CLAUSES`` and ``_EXPRESSIONS``, whose handlers recurse into the
    fields of their node kind.
    """

    def __init__(self) -> None:
        self.patterns = self.depth = self.clauses = self.dependencies = 0
        self.clause_names: List[str] = []
        self.functions: List[str] = []
        self.operators: List[str] = []
        self.shapes: List[str] = []
        self.counts: Dict[str, int] = {}
        # Variables bound by the earlier clauses of the current subquery.
        self.seen: Set[str] = set()

    def query(self, sub: ast.Query) -> None:
        self.seen = set()
        self.clauses += len(sub.clauses)
        for clause in sub.clauses:
            _CLAUSES[clause.__class__](self, clause)

    def top(self, expr: ast.Expression, counted: bool) -> None:
        """Walk one top-level expression of a clause.

        *counted* says whether it sits at a position the predicate
        counters count.
        """
        depth = _EXPRESSIONS[expr.__class__](self, expr, (), counted)
        if depth > self.depth:
            self.depth = depth

    def count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def paths(self, patterns: Tuple[ast.PathPattern, ...]) -> List[str]:
        """Record *patterns*: their shape tags and their property maps (not
        counted), nodes' maps first.  Returns their variables, repeats
        included, for :meth:`bind`."""
        self.patterns += len(patterns)
        shapes = self.shapes
        bound: List[str] = []
        for pattern in patterns:
            rels = pattern.relationships
            shapes.append(_PATH_TAGS[min(len(rels), _PATH_CAP)])
            if pattern.path_variable:
                shapes.append("named-path")
                bound.append(pattern.path_variable)
            for rel in rels:
                if rel.direction == ast.BOTH:
                    shapes.append("undirected-rel")
                if rel.types:
                    shapes.append("typed-rel")
            for node in pattern.nodes:
                if len(node.labels) >= 2:
                    shapes.append("multi-label-node")
                elif node.labels:
                    shapes.append("labeled-node")
                if node.variable:
                    bound.append(node.variable)
                if node.properties is not None:
                    self.top(node.properties, False)
            for rel in rels:
                if rel.variable:
                    bound.append(rel.variable)
                if rel.properties is not None:
                    self.top(rel.properties, False)
        return bound

    def bind(self, bound: List[str]) -> None:
        """Count each use in *bound* of a variable an earlier clause bound
        (reusing one inside a later pattern is a cross-clause dependency,
        as ``n5`` is in four clauses of Figure 1), then mark them all
        bound for the clauses after this one."""
        seen = self.seen
        for name in bound:
            if name in seen:
                self.dependencies += 1
        seen.update(bound)

    def projection(self, clause: Union[ast.With, ast.Return], keyword: str) -> None:
        names = self.clause_names
        names.append(keyword)
        if clause.distinct:
            names.append("DISTINCT")
        if clause.order_by:
            names.append("ORDER BY")
        if clause.skip is not None:
            names.append("SKIP")
        if clause.limit is not None:
            names.append("LIMIT")
        for item in clause.items:
            self.top(item.expression, True)
        for order in clause.order_by:
            self.top(order.expression, False)
        if clause.skip is not None:
            self.top(clause.skip, False)
        if clause.limit is not None:
            self.top(clause.limit, False)


# -- clauses -----------------------------------------------------------------
#
# Counted positions (the predicate counters): MATCH and WITH ``WHERE``, the
# UNWIND expression, WITH and RETURN items and SET values; not ORDER BY,
# SKIP, LIMIT, pattern property maps, CALL arguments or DELETE targets.


def _match(walk: _Walk, clause: ast.Match) -> None:
    walk.clause_names.append("OPTIONAL MATCH" if clause.optional else "MATCH")
    bound = walk.paths(clause.patterns)
    if clause.where is not None:
        walk.clause_names.append("WHERE")
        walk.top(clause.where, True)
    walk.bind(bound)


def _create(walk: _Walk, clause: ast.Create) -> None:
    walk.clause_names.append("CREATE")
    walk.bind(walk.paths(clause.patterns))


def _merge(walk: _Walk, clause: ast.Merge) -> None:
    walk.clause_names.append("MERGE")
    walk.bind(walk.paths((clause.pattern,)))


def _unwind(walk: _Walk, clause: ast.Unwind) -> None:
    walk.clause_names.append("UNWIND")
    walk.top(clause.expression, True)
    walk.seen.add(clause.alias)


def _with(walk: _Walk, clause: ast.With) -> None:
    walk.projection(clause, "WITH")
    if clause.where is not None:
        walk.clause_names.append("WHERE")
        walk.top(clause.where, True)
    walk.seen.update(item.column for item in clause.items)


def _return(walk: _Walk, clause: ast.Return) -> None:
    walk.projection(clause, "RETURN")
    walk.seen.update(item.column for item in clause.items)


def _call(walk: _Walk, clause: ast.Call) -> None:
    walk.clause_names.append("CALL")
    for arg in clause.args:
        walk.top(arg, False)
    walk.seen.update(alias or name for name, alias in clause.yield_items)


def _set(walk: _Walk, clause: ast.SetClause) -> None:
    walk.clause_names.append("SET")
    for item in clause.items:
        walk.top(item.value, True)


def _delete(walk: _Walk, clause: ast.Delete) -> None:
    walk.clause_names.append("DETACH DELETE" if clause.detach else "DELETE")
    for expr in clause.expressions:
        walk.top(expr, False)


def _remove(walk: _Walk, clause: ast.Remove) -> None:
    walk.clause_names.append("REMOVE")


_CLAUSES = {
    ast.Match: _match,
    ast.Unwind: _unwind,
    ast.With: _with,
    ast.Return: _return,
    ast.Call: _call,
    ast.Create: _create,
    ast.SetClause: _set,
    ast.Delete: _delete,
    ast.Remove: _remove,
    ast.Merge: _merge,
}


# -- expressions -------------------------------------------------------------
#
# Each handler records its node, walks its children in ``children()`` order
# and returns the node's nesting depth (a leaf is 1).  *local* holds the
# variables of enclosing list comprehensions, which are not cross-clause
# references; *counted* is the position's predicate-counter flag.

Local = Tuple[str, ...]


def _children(walk: _Walk, children, local: Local, counted: bool) -> int:
    """The deepest of *children* (0 when there are none)."""
    depth = 0
    for child in children:
        child_depth = _EXPRESSIONS[child.__class__](walk, child, local, counted)
        if child_depth > depth:
            depth = child_depth
    return depth


def _tagged(operator: Optional[str] = None, counter: Optional[str] = None):
    """A handler that records *operator*, bumps *counter* at counted
    positions and walks ``children()``."""

    def handler(walk: _Walk, expr: ast.Expression, local: Local, counted: bool) -> int:
        if operator is not None:
            walk.operators.append(operator)
        if counted and counter is not None:
            walk.count(counter)
        return _children(walk, expr.children(), local, counted) + 1

    return handler


def _leaf(walk: _Walk, expr: ast.Literal, local: Local, counted: bool) -> int:
    return 1


def _variable(walk: _Walk, expr: ast.Variable, local: Local, counted: bool) -> int:
    # Cross-clause references: uses of variables bound by an earlier clause.
    if expr.name in walk.seen and expr.name not in local:
        walk.dependencies += 1
    return 1


def _subject(walk: _Walk, expr: ast.Expression, local: Local, counted: bool) -> int:
    """Property access and label predicates: their one child, untagged."""
    subject = expr.subject
    return _EXPRESSIONS[subject.__class__](walk, subject, local, counted) + 1


def _unary(walk: _Walk, expr: ast.Unary, local: Local, counted: bool) -> int:
    walk.operators.append(expr.op)
    operand = expr.operand
    return _EXPRESSIONS[operand.__class__](walk, operand, local, counted) + 1


def _is_null(walk: _Walk, expr: ast.IsNull, local: Local, counted: bool) -> int:
    walk.operators.append("IS NOT NULL" if expr.negated else "IS NULL")
    operand = expr.operand
    return _EXPRESSIONS[operand.__class__](walk, operand, local, counted) + 1


def _binary(walk: _Walk, expr: ast.Binary, local: Local, counted: bool) -> int:
    op = expr.op
    left = expr.left
    right = expr.right
    walk.operators.append(op)
    if counted and op in _COUNTED_OPS and (
        op != "<>" or (left.__class__ is ast.Variable
                       and right.__class__ is ast.Variable)
    ):
        walk.count(_COUNTED_OPS[op])
    depth = _EXPRESSIONS[left.__class__](walk, left, local, counted)
    other = _EXPRESSIONS[right.__class__](walk, right, local, counted)
    return (depth if depth > other else other) + 1


def _function(walk: _Walk, expr: ast.FunctionCall, local: Local, counted: bool) -> int:
    name = expr.name.lower()
    walk.functions.append(name)
    args = expr.args
    if (counted and name == "replace" and len(args) == 3
            and args[1].__class__ is ast.Literal and args[1].value == ""):
        walk.counts["replace_with_empty"] = True
    return _children(walk, args, local, counted) + 1


def _comprehension(
    walk: _Walk, expr: ast.ListComprehension, local: Local, counted: bool
) -> int:
    walk.operators.append("list-comprehension")
    # The comprehension's variable is local to all of it, source included.
    return _children(walk, expr.children(), local + (expr.variable,), counted) + 1


def _pattern_predicate(
    walk: _Walk, expr: ast.PatternPredicate, local: Local, counted: bool
) -> int:
    walk.operators.append("pattern-predicate")
    seen = walk.seen
    for name in expr.pattern.variables():
        if name in seen and name not in local:
            walk.dependencies += 1
    return 1


_EXPRESSIONS = {
    ast.Literal: _leaf,
    ast.Variable: _variable,
    ast.PropertyAccess: _subject,
    ast.Unary: _unary,
    ast.Binary: _binary,
    ast.IsNull: _is_null,
    ast.FunctionCall: _function,
    ast.CountStar: _tagged("count(*)", "aggregate_count"),
    ast.ListLiteral: _tagged(),
    ast.MapLiteral: _tagged(),
    ast.ListComprehension: _comprehension,
    ast.ListIndex: _tagged("[]", "list_index_count"),
    ast.ListSlice: _tagged("[..]"),
    ast.CaseExpression: _tagged("CASE", "case_count"),
    ast.PatternPredicate: _pattern_predicate,
    ast.LabelsPredicate: _subject,
}


def analyze(query: AnyQuery) -> QueryMetrics:
    """Compute the Table 5 metrics for one query."""
    return query.facts.metrics


def clause_types_in(query: AnyQuery) -> List[str]:
    """All clause/subclause type names occurring in *query* (with repeats).

    Subclauses (WHERE, ORDER BY, SKIP, LIMIT, DISTINCT) are reported
    individually, matching the paper's Figure 11 accounting where WHERE
    "appears more than 100 times as it serves as the filtering subclause for
    both MATCH and WITH".
    """
    return list(query.facts.clause_names)


def clause_histogram(queries) -> Dict[str, int]:
    """Aggregate clause counts over many queries (Figure 11)."""
    counter: Counter = Counter()
    for query in queries:
        counter.update(clause_types_in(query))
    return dict(counter)


def functions_in(query: AnyQuery) -> List[str]:
    """All function names used in *query* (for the §5.3 function analysis)."""
    return list(query.facts.functions)
