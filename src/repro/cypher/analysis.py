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
from typing import Dict, Iterator, List, Set, Tuple, Union

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

# Path patterns longer than this are tagged ``path-3+``.
_PATH_CAP = 3

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


def _clause_patterns(clause: ast.Clause) -> Tuple[ast.PathPattern, ...]:
    if isinstance(clause, (ast.Match, ast.Create)):
        return clause.patterns
    if isinstance(clause, ast.Merge):
        return (clause.pattern,)
    return ()


def _clause_bound_variables(clause: ast.Clause) -> Set[str]:
    """Variables newly introduced by *clause*."""
    bound: Set[str] = set()
    for pattern in _clause_patterns(clause):
        bound.update(pattern.variables())
    if isinstance(clause, ast.Unwind):
        bound.add(clause.alias)
    elif isinstance(clause, (ast.With, ast.Return)):
        for item in clause.items:
            bound.add(item.output_name())
    elif isinstance(clause, ast.Call):
        for name, alias in clause.yield_items:
            bound.add(alias or name)
    return bound


def _clause_names(clause: ast.Clause, names: List[str]) -> None:
    """Append the clause and subclause names of *clause* (Figure 11)."""
    if isinstance(clause, ast.Match):
        names.append("OPTIONAL MATCH" if clause.optional else "MATCH")
        if clause.where is not None:
            names.append("WHERE")
    elif isinstance(clause, ast.Unwind):
        names.append("UNWIND")
    elif isinstance(clause, (ast.With, ast.Return)):
        names.append("WITH" if isinstance(clause, ast.With) else "RETURN")
        if clause.distinct:
            names.append("DISTINCT")
        if clause.order_by:
            names.append("ORDER BY")
        if clause.skip is not None:
            names.append("SKIP")
        if clause.limit is not None:
            names.append("LIMIT")
        if isinstance(clause, ast.With) and clause.where is not None:
            names.append("WHERE")
    elif isinstance(clause, ast.Call):
        names.append("CALL")
    elif isinstance(clause, ast.Create):
        names.append("CREATE")
    elif isinstance(clause, ast.SetClause):
        names.append("SET")
    elif isinstance(clause, ast.Delete):
        names.append("DETACH DELETE" if clause.detach else "DELETE")
    elif isinstance(clause, ast.Remove):
        names.append("REMOVE")
    elif isinstance(clause, ast.Merge):
        names.append("MERGE")


def _counted_expressions(clause: ast.Clause) -> Iterator[Tuple[ast.Expression, bool]]:
    """Pair each :func:`ast.walk_expressions` expression of *clause* with
    whether the predicate counters count it.

    Counted are MATCH and WITH ``WHERE``, the UNWIND expression, WITH and
    RETURN items and SET values; not ORDER BY, SKIP, LIMIT, pattern
    property maps, CALL arguments or DELETE targets.  Positions follow
    ``walk_expressions``: property maps before a MATCH ``WHERE``, items
    first and ``WHERE`` last in a WITH.
    """
    exprs = list(ast.walk_expressions(clause))
    counted = [isinstance(clause, (ast.Unwind, ast.SetClause))] * len(exprs)
    if isinstance(clause, (ast.With, ast.Return)):
        counted[:len(clause.items)] = [True] * len(clause.items)
    if isinstance(clause, (ast.Match, ast.With)) and clause.where is not None:
        counted[-1] = True
    return zip(exprs, counted)


def _pattern_shapes(pattern: ast.PathPattern, shapes: List[str]) -> None:
    """Append the shape tags of *pattern*: length, direction, label arity."""
    length = len(pattern.relationships)
    shapes.append(f"path-{_PATH_CAP}+" if length >= _PATH_CAP else f"path-{length}")
    if pattern.path_variable:
        shapes.append("named-path")
    for rel in pattern.relationships:
        if rel.direction == ast.BOTH:
            shapes.append("undirected-rel")
        if rel.types:
            shapes.append("typed-rel")
    for node in pattern.nodes:
        if len(node.labels) >= 2:
            shapes.append("multi-label-node")
        elif node.labels:
            shapes.append("labeled-node")


@dataclass(frozen=True)
class QueryFacts:
    """Everything the per-query analyses read, gathered in one tree walk.

    ``metrics`` are the Table 5 metrics.  ``clause_names`` (clauses and
    subclauses, Figure 11 accounting), ``functions`` (lower-cased),
    ``operators`` and pattern ``shapes`` keep repeats, in tree order.
    ``counts`` holds the predicate counters of
    :class:`repro.gdb.faults.QueryFeatures`, by field name, over the
    positions :func:`_counted_expressions` marks (``aggregate_count``
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
    """The accumulators of one :meth:`QueryFacts.of` walk."""

    def __init__(self) -> None:
        self.patterns = self.depth = self.clauses = self.dependencies = 0
        self.clause_names: List[str] = []
        self.functions: List[str] = []
        self.operators: List[str] = []
        self.shapes: List[str] = []
        self.counts: Dict[str, int] = {}
        self._seen: Set[str] = set()

    def query(self, sub: ast.Query) -> None:
        self._seen = set()
        for clause in sub.clauses:
            self.clauses += 1
            _clause_names(clause, self.clause_names)
            patterns = _clause_patterns(clause)
            self.patterns += len(patterns)
            for pattern in patterns:
                _pattern_shapes(pattern, self.shapes)
                # Reusing a variable bound earlier inside a later pattern
                # is a cross-clause dependency too (e.g. ``n5`` referenced
                # in four clauses in Figure 1).
                for name in pattern.variables():
                    self._use(name, ())
            for expr, counted in _counted_expressions(clause):
                self.depth = max(self.depth, self._expression(expr, (), counted))
            self._seen.update(_clause_bound_variables(clause))

    def _use(self, name: str, local: Tuple[str, ...]) -> None:
        # Cross-clause references: uses of variables bound by an *earlier*
        # clause; a list comprehension's own variable is local to it.
        if name in self._seen and name not in local:
            self.dependencies += 1

    def _count(self, name: str) -> None:
        self.counts[name] = self.counts.get(name, 0) + 1

    def _expression(
        self, expr: ast.Expression, local: Tuple[str, ...], counted: bool
    ) -> int:
        """Record *expr* and its subtree; return its nesting depth.

        *counted* says whether the subtree sits at a position the predicate
        counters count.
        """
        operators = self.operators
        if isinstance(expr, ast.Variable):
            self._use(expr.name, local)
        elif isinstance(expr, ast.FunctionCall):
            name = expr.name.lower()
            self.functions.append(name)
            if (counted and name == "replace" and len(expr.args) == 3
                    and isinstance(expr.args[1], ast.Literal)
                    and expr.args[1].value == ""):
                self.counts["replace_with_empty"] = True
        elif isinstance(expr, ast.Binary):
            operators.append(expr.op)
            if counted and expr.op in _COUNTED_OPS and (
                expr.op != "<>" or (isinstance(expr.left, ast.Variable)
                                    and isinstance(expr.right, ast.Variable))
            ):
                self._count(_COUNTED_OPS[expr.op])
        elif isinstance(expr, ast.Unary):
            operators.append(expr.op)
        elif isinstance(expr, ast.IsNull):
            operators.append("IS NOT NULL" if expr.negated else "IS NULL")
        elif isinstance(expr, ast.CaseExpression):
            operators.append("CASE")
            if counted:
                self._count("case_count")
        elif isinstance(expr, ast.ListIndex):
            operators.append("[]")
            if counted:
                self._count("list_index_count")
        elif isinstance(expr, ast.ListSlice):
            operators.append("[..]")
        elif isinstance(expr, ast.ListComprehension):
            operators.append("list-comprehension")
            local = local + (expr.variable,)
        elif isinstance(expr, ast.PatternPredicate):
            operators.append("pattern-predicate")
            for name in expr.pattern.variables():
                self._use(name, local)
        elif isinstance(expr, ast.CountStar):
            operators.append("count(*)")
            if counted:
                self._count("aggregate_count")
        depth = 0
        for child in expr.children():
            depth = max(depth, self._expression(child, local, counted))
        return depth + 1


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
