"""Abstract syntax tree for the Cypher subset used by GQS.

The tree covers all eleven data-retrieval clauses and subclauses the paper's
implementation supports (§4): ``MATCH``, ``OPTIONAL MATCH``, ``UNWIND``,
``WITH``, ``RETURN``, ``UNION``, ``CALL``, plus the ``WHERE``, ``ORDER BY``,
``SKIP`` and ``LIMIT`` refinements — and the six write clauses used by the
graph initializer (``CREATE``, ``SET``, ``MERGE``, ``DELETE``,
``DETACH DELETE``, ``REMOVE``).

Expression nodes expose ``children()`` so analyses (nesting depth, variable
references) can walk the tree generically, and every node renders through
:mod:`repro.cypher.printer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Iterable, Iterator, List, Optional, Tuple

__all__ = [
    # expressions
    "Expression",
    "Literal",
    "Variable",
    "PropertyAccess",
    "Unary",
    "Binary",
    "IsNull",
    "FunctionCall",
    "ListLiteral",
    "MapLiteral",
    "ListIndex",
    "ListSlice",
    "CaseExpression",
    "CaseAlternative",
    "CountStar",
    "ListComprehension",
    "PatternPredicate",
    "LabelsPredicate",
    # patterns
    "NodePattern",
    "RelationshipPattern",
    "PathPattern",
    # clauses
    "Clause",
    "Match",
    "Unwind",
    "ProjectionItem",
    "OrderItem",
    "With",
    "Return",
    "Call",
    "Create",
    "SetClause",
    "SetItem",
    "Delete",
    "Remove",
    "RemoveItem",
    "Merge",
    "Query",
    "UnionQuery",
    "walk_expressions",
]


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expression:
    """Base class for all expression nodes."""

    def children(self) -> Iterable["Expression"]:
        """Direct sub-expressions, for generic tree walks."""
        return ()

    def depth(self) -> int:
        """Maximum nesting depth of this expression (leaf = 1)."""
        kids = list(self.children())
        if not kids:
            return 1
        return 1 + max(child.depth() for child in kids)

    def variables(self) -> Iterator[str]:
        """All variable names referenced anywhere in this expression."""
        if isinstance(self, Variable):
            yield self.name
        for child in self.children():
            yield from child.variables()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: null, boolean, integer, float, or string."""

    value: Any


@dataclass(frozen=True)
class Variable(Expression):
    """A reference to a bound variable (node, relationship, or alias)."""

    name: str


@dataclass(frozen=True)
class PropertyAccess(Expression):
    """``subject.key`` property access."""

    subject: Expression
    key: str

    def children(self) -> Iterable[Expression]:
        return (self.subject,)


@dataclass(frozen=True)
class Unary(Expression):
    """A unary operator: ``NOT``, ``-``, or ``+``."""

    op: str
    operand: Expression

    def children(self) -> Iterable[Expression]:
        return (self.operand,)


@dataclass(frozen=True)
class Binary(Expression):
    """A binary operator application.

    ``op`` is one of the arithmetic (+ - * / % ^), comparison
    (= <> < <= > >=), logic (AND OR XOR), membership (IN), or string
    predicate (STARTS WITH / ENDS WITH / CONTAINS) operators.
    """

    op: str
    left: Expression
    right: Expression

    def children(self) -> Iterable[Expression]:
        return (self.left, self.right)


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS NULL`` / ``expr IS NOT NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> Iterable[Expression]:
        return (self.operand,)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A function or aggregation call, e.g. ``endNode(r1)``, ``count(DISTINCT x)``."""

    name: str
    args: Tuple[Expression, ...] = ()
    distinct: bool = False

    def children(self) -> Iterable[Expression]:
        return self.args


@dataclass(frozen=True)
class CountStar(Expression):
    """``count(*)``."""


@dataclass(frozen=True)
class ListLiteral(Expression):
    """``[e1, e2, ...]``."""

    items: Tuple[Expression, ...] = ()

    def children(self) -> Iterable[Expression]:
        return self.items


@dataclass(frozen=True)
class MapLiteral(Expression):
    """``{k1: e1, ...}``."""

    items: Tuple[Tuple[str, Expression], ...] = ()

    def children(self) -> Iterable[Expression]:
        return tuple(expr for _key, expr in self.items)


@dataclass(frozen=True)
class ListIndex(Expression):
    """``subject[index]``."""

    subject: Expression
    index: Expression

    def children(self) -> Iterable[Expression]:
        return (self.subject, self.index)


@dataclass(frozen=True)
class ListSlice(Expression):
    """``subject[start..end]`` with either bound optional."""

    subject: Expression
    start: Optional[Expression] = None
    end: Optional[Expression] = None

    def children(self) -> Iterable[Expression]:
        kids = [self.subject]
        if self.start is not None:
            kids.append(self.start)
        if self.end is not None:
            kids.append(self.end)
        return tuple(kids)


@dataclass(frozen=True)
class CaseAlternative:
    """One ``WHEN ... THEN ...`` arm of a CASE expression."""

    when: Expression
    then: Expression


@dataclass(frozen=True)
class CaseExpression(Expression):
    """Generic or simple ``CASE`` expression."""

    subject: Optional[Expression]
    alternatives: Tuple[CaseAlternative, ...]
    default: Optional[Expression] = None

    def children(self) -> Iterable[Expression]:
        kids: List[Expression] = []
        if self.subject is not None:
            kids.append(self.subject)
        for alt in self.alternatives:
            kids.append(alt.when)
            kids.append(alt.then)
        if self.default is not None:
            kids.append(self.default)
        return tuple(kids)


@dataclass(frozen=True)
class ListComprehension(Expression):
    """``[variable IN source WHERE predicate | projection]``.

    ``predicate`` and ``projection`` are optional; without a projection the
    comprehension yields the (filtered) items unchanged.
    """

    variable: str
    source: Expression
    where: Optional[Expression] = None
    projection: Optional[Expression] = None

    def children(self) -> Iterable[Expression]:
        kids: List[Expression] = [self.source]
        if self.where is not None:
            kids.append(self.where)
        if self.projection is not None:
            kids.append(self.projection)
        return tuple(kids)

    def variables(self) -> Iterator[str]:
        # The bound variable is local to the comprehension: occurrences of
        # it inside the body are not references to outer scope.
        for child in self.children():
            for name in child.variables():
                if name != self.variable:
                    yield name


@dataclass(frozen=True)
class PatternPredicate(Expression):
    """A path pattern used as a boolean expression in WHERE.

    ``WHERE (a)-[:T]->()`` is true when at least one match of the pattern
    exists, with variables already bound in the current row constraining
    the match (an existential subquery in miniature).
    """

    pattern: "PathPattern"

    def variables(self) -> Iterator[str]:
        yield from self.pattern.variables()


@dataclass(frozen=True)
class LabelsPredicate(Expression):
    """``variable:Label1:Label2`` used as a boolean expression."""

    subject: Expression
    labels: Tuple[str, ...]

    def children(self) -> Iterable[Expression]:
        return (self.subject,)


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NodePattern:
    """``(variable :Label1:Label2 {props})``; every field optional."""

    variable: Optional[str] = None
    labels: Tuple[str, ...] = ()
    properties: Optional[MapLiteral] = None


# Relationship direction encoding for :class:`RelationshipPattern`.
OUT = "out"    # (a)-[r]->(b)
IN = "in"      # (a)<-[r]-(b)
BOTH = "both"  # (a)-[r]-(b)


@dataclass(frozen=True)
class RelationshipPattern:
    """``-[variable :TYPE {props}]->`` (direction relative to reading order)."""

    variable: Optional[str] = None
    types: Tuple[str, ...] = ()
    direction: str = OUT
    properties: Optional[MapLiteral] = None

    def __post_init__(self) -> None:
        if self.direction not in (OUT, IN, BOTH):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass(frozen=True)
class PathPattern:
    """A chain ``(n0)-[r0]-(n1)-...-(nk)``.

    ``nodes`` has exactly one more element than ``relationships``.  A named
    path (``MATCH p = (a)-[r]->(b)``) binds the matched chain to
    ``path_variable`` as a PATH value.
    """

    nodes: Tuple[NodePattern, ...]
    relationships: Tuple[RelationshipPattern, ...] = ()
    path_variable: Optional[str] = None

    def __post_init__(self) -> None:
        if len(self.nodes) != len(self.relationships) + 1:
            raise ValueError("path pattern arity mismatch")

    def variables(self) -> Iterator[str]:
        if self.path_variable:
            yield self.path_variable
        for node in self.nodes:
            if node.variable:
                yield node.variable
        for rel in self.relationships:
            if rel.variable:
                yield rel.variable


# ---------------------------------------------------------------------------
# Clauses
# ---------------------------------------------------------------------------

class Clause:
    """Base class for clauses."""


@dataclass(frozen=True)
class Match(Clause):
    """``MATCH`` / ``OPTIONAL MATCH`` with an optional ``WHERE`` subclause."""

    patterns: Tuple[PathPattern, ...]
    optional: bool = False
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Unwind(Clause):
    """``UNWIND expr AS alias``."""

    expression: Expression
    alias: str


@dataclass(frozen=True)
class ProjectionItem:
    """``expr AS alias`` (alias optional for plain variable projections)."""

    expression: Expression
    alias: Optional[str] = None

    @cached_property
    def column(self) -> str:
        """The column name this item produces, printed at most once."""
        if self.alias:
            return self.alias
        if isinstance(self.expression, Variable):
            return self.expression.name
        from repro.cypher.printer import print_expression

        return print_expression(self.expression)

    @cached_property
    def aggregated(self) -> bool:
        """Whether the expression calls an aggregate function anywhere."""
        from repro.engine.evaluator import has_aggregate  # imports this module

        return has_aggregate(self.expression)


@dataclass(frozen=True)
class OrderItem:
    """One ``ORDER BY`` key."""

    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class With(Clause):
    """``WITH [DISTINCT] items [ORDER BY ...] [SKIP n] [LIMIT n] [WHERE p]``."""

    items: Tuple[ProjectionItem, ...]
    distinct: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Return(Clause):
    """``RETURN [DISTINCT] items [ORDER BY ...] [SKIP n] [LIMIT n]``."""

    items: Tuple[ProjectionItem, ...]
    distinct: bool = False
    order_by: Tuple[OrderItem, ...] = ()
    skip: Optional[Expression] = None
    limit: Optional[Expression] = None


@dataclass(frozen=True)
class Call(Clause):
    """``CALL proc(args) YIELD name [AS alias], ...``."""

    procedure: str
    args: Tuple[Expression, ...] = ()
    yield_items: Tuple[Tuple[str, Optional[str]], ...] = ()


@dataclass(frozen=True)
class Create(Clause):
    """``CREATE pattern, ...`` (write clause)."""

    patterns: Tuple[PathPattern, ...]


@dataclass(frozen=True)
class SetItem:
    """One assignment in a ``SET`` clause: ``subject.key = value``."""

    subject: str
    key: str
    value: Expression


@dataclass(frozen=True)
class SetClause(Clause):
    """``SET items`` (write clause)."""

    items: Tuple[SetItem, ...]


@dataclass(frozen=True)
class Delete(Clause):
    """``DELETE`` / ``DETACH DELETE`` (write clause)."""

    expressions: Tuple[Expression, ...]
    detach: bool = False


@dataclass(frozen=True)
class RemoveItem:
    """One target of a ``REMOVE`` clause: a property or a label."""

    subject: str
    key: Optional[str] = None      # property name, or
    label: Optional[str] = None    # label name


@dataclass(frozen=True)
class Remove(Clause):
    """``REMOVE items`` (write clause)."""

    items: Tuple[RemoveItem, ...]


@dataclass(frozen=True)
class Merge(Clause):
    """``MERGE pattern`` — MATCH-or-CREATE (write clause)."""

    pattern: PathPattern


# ---------------------------------------------------------------------------
# Queries
# ---------------------------------------------------------------------------

class _Analyzed:
    """A whole query, whose text and analysis facts are derived once and kept."""

    @cached_property
    def facts(self) -> Any:
        """The :class:`repro.cypher.analysis.QueryFacts` of this tree."""
        from repro.cypher.analysis import QueryFacts  # imports this module

        return QueryFacts.of(self)

    @cached_property
    def text(self) -> str:
        """The :func:`repro.cypher.printer.print_query` text of this tree.

        Differential testers hand one tree to several engines; each reads
        the text printed by the first.
        """
        from repro.cypher.printer import print_query  # imports this module

        return print_query(self)


@dataclass(frozen=True)
class Query(_Analyzed):
    """A single (non-UNION) query: an ordered sequence of clauses."""

    clauses: Tuple[Clause, ...]

    def __post_init__(self) -> None:
        if not self.clauses:
            raise ValueError("a query must contain at least one clause")


@dataclass(frozen=True)
class UnionQuery(_Analyzed):
    """``query UNION [ALL] query`` (left-associative chains nest on the left)."""

    left: "Query | UnionQuery"
    right: Query
    all: bool = False


def walk_expressions(clause: Clause) -> Iterator[Expression]:
    """Yield every top-level expression appearing in *clause*.

    This is the entry point the analyzers use; sub-expressions are reached
    via :meth:`Expression.children`.
    """
    if isinstance(clause, Match):
        for pattern in clause.patterns:
            for node in pattern.nodes:
                if node.properties is not None:
                    yield node.properties
            for rel in pattern.relationships:
                if rel.properties is not None:
                    yield rel.properties
        if clause.where is not None:
            yield clause.where
    elif isinstance(clause, Unwind):
        yield clause.expression
    elif isinstance(clause, (With, Return)):
        for item in clause.items:
            yield item.expression
        for order in clause.order_by:
            yield order.expression
        if clause.skip is not None:
            yield clause.skip
        if clause.limit is not None:
            yield clause.limit
        if isinstance(clause, With) and clause.where is not None:
            yield clause.where
    elif isinstance(clause, Call):
        yield from clause.args
    elif isinstance(clause, Create):
        for pattern in clause.patterns:
            for node in pattern.nodes:
                if node.properties is not None:
                    yield node.properties
            for rel in pattern.relationships:
                if rel.properties is not None:
                    yield rel.properties
    elif isinstance(clause, SetClause):
        for item in clause.items:
            yield item.value
    elif isinstance(clause, Delete):
        yield from clause.expressions
    elif isinstance(clause, Merge):
        for node in clause.pattern.nodes:
            if node.properties is not None:
                yield node.properties
        for rel in clause.pattern.relationships:
            if rel.properties is not None:
                yield rel.properties
