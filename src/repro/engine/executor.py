"""Clause-by-clause reference execution of Cypher queries.

The executor is the project's definition of *correct* query semantics: the
simulated GDBs delegate to it and then apply their injected faults, and the
GQS oracle trusts it when validating the synthesizer itself.

Execution follows the Cypher evaluation model (paper §2.2): each clause maps
a table of intermediate bindings to a new table; the last clause's output is
the query result.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.cypher import ast
from repro.cypher.functions import is_aggregate
from repro.engine.binding import BindingTable, ResultSet, Row
from repro.engine.errors import CypherRuntimeError, CypherSyntaxError, CypherTypeError
from repro.engine.evaluator import Evaluator, has_aggregate
from repro.engine.matcher import Matcher
from repro.graph import values as V
from repro.graph.model import Node, PropertyGraph, Relationship

__all__ = ["Executor", "ProcedureRegistry", "default_procedures"]

AnyQuery = Union[ast.Query, ast.UnionQuery]

# A procedure maps (graph, args) to (columns, rows).
Procedure = Callable[[PropertyGraph, Sequence[Any]], Tuple[List[str], List[List[Any]]]]
ProcedureRegistry = Dict[str, Procedure]


def _build_default_procedures() -> ProcedureRegistry:
    def db_labels(graph: PropertyGraph, args: Sequence[Any]):
        return ["label"], [[label] for label in graph.labels()]

    def db_relationship_types(graph: PropertyGraph, args: Sequence[Any]):
        return ["relationshipType"], [[t] for t in graph.relationship_types()]

    def db_property_keys(graph: PropertyGraph, args: Sequence[Any]):
        return ["propertyKey"], [[name] for name in graph.property_names()]

    return {
        "db.labels": db_labels,
        "db.relationshipTypes": db_relationship_types,
        "db.propertyKeys": db_property_keys,
    }


# Built once at import: the registry is stateless (procedures read the graph
# they are handed), so every executor can share one dict instead of
# re-deriving it per instantiation on hot replay paths.
_DEFAULT_PROCEDURES: ProcedureRegistry = _build_default_procedures()


def default_procedures() -> ProcedureRegistry:
    """The engine procedures shared by Neo4j and FalkorDB (§4).

    Returns the shared module-level registry; callers must treat it as
    read-only (pass a fresh dict to :class:`Executor` to customize).
    """
    return _DEFAULT_PROCEDURES


class Executor:
    """Executes query ASTs against a :class:`PropertyGraph`."""

    def __init__(
        self,
        graph: PropertyGraph,
        enforce_rel_uniqueness: bool = True,
        procedures: Optional[ProcedureRegistry] = None,
    ):
        self.graph = graph
        self.evaluator = Evaluator(graph)
        self.matcher = Matcher(graph, enforce_rel_uniqueness)
        self.procedures = procedures if procedures is not None else _DEFAULT_PROCEDURES

    # -- public API ---------------------------------------------------

    def execute(self, query: AnyQuery) -> ResultSet:
        """Execute *query* and return its result set."""
        if isinstance(query, ast.UnionQuery):
            return self._execute_union(query)
        table = BindingTable.unit()
        for clause in query.clauses:
            table = self._apply(clause, table)
        last = query.clauses[-1]
        if isinstance(last, ast.Return):
            ordered = bool(last.order_by)
            rows = [[row.get(col) for col in table.columns] for row in table.rows]
            return ResultSet(table.columns, rows, ordered=ordered)
        # Write-only queries produce an empty result.
        return ResultSet([], [])

    def _execute_union(self, query: ast.UnionQuery) -> ResultSet:
        left = self.execute(query.left)
        right = self.execute(query.right)
        if left.columns != right.columns:
            raise CypherSyntaxError(
                "UNION requires identical column names on both sides"
            )
        combined = ResultSet.union_all([left, right])
        if query.all:
            return combined
        seen = set()
        rows = []
        for row in combined.rows:
            key = tuple(V.equivalence_key(value) for value in row)
            if key not in seen:
                seen.add(key)
                rows.append(row)
        return ResultSet(left.columns, rows)

    # -- clause dispatch -------------------------------------------------

    def _apply(self, clause: ast.Clause, table: BindingTable) -> BindingTable:
        if isinstance(clause, ast.Match):
            return self._match(clause, table)
        if isinstance(clause, ast.Unwind):
            return self._unwind(clause, table)
        if isinstance(clause, ast.With):
            return self._project(clause, table, is_with=True)
        if isinstance(clause, ast.Return):
            return self._project(clause, table, is_with=False)
        if isinstance(clause, ast.Call):
            return self._call(clause, table)
        if isinstance(clause, ast.Create):
            return self._create(clause, table)
        if isinstance(clause, ast.SetClause):
            return self._set(clause, table)
        if isinstance(clause, ast.Delete):
            return self._delete(clause, table)
        if isinstance(clause, ast.Remove):
            return self._remove(clause, table)
        if isinstance(clause, ast.Merge):
            return self._merge(clause, table)
        raise CypherSyntaxError(f"unsupported clause {type(clause).__name__}")

    # -- MATCH / OPTIONAL MATCH ------------------------------------------

    def _match(self, clause: ast.Match, table: BindingTable) -> BindingTable:
        new_vars: List[str] = []
        for pattern in clause.patterns:
            for name in pattern.variables():
                if name not in table.columns and name not in new_vars:
                    new_vars.append(name)

        out_columns = table.columns + new_vars
        out_rows: List[Row] = []

        where = clause.where
        evaluate_predicate = self.evaluator.evaluate_predicate
        survivors: List[Row] = []

        def keep(bindings: Row) -> bool:
            merged = dict(bindings)
            if where is None or evaluate_predicate(where, merged) is True:
                survivors.append(merged)
            return False

        for row in table.rows:
            survivors.clear()
            self.matcher.match(clause.patterns, row, keep)
            if survivors:
                out_rows.extend(survivors)
            elif clause.optional:
                padded = dict(row)
                for name in new_vars:
                    padded.setdefault(name, None)
                out_rows.append(padded)
        return BindingTable(out_columns, out_rows)

    # -- UNWIND --------------------------------------------------------

    def _unwind(self, clause: ast.Unwind, table: BindingTable) -> BindingTable:
        out_columns = table.columns + (
            [clause.alias] if clause.alias not in table.columns else []
        )
        out_rows: List[Row] = []
        for row in table.rows:
            value = self.evaluator.evaluate(clause.expression, row)
            if value is None:
                continue
            items = value if isinstance(value, list) else [value]
            for item in items:
                new_row = dict(row)
                new_row[clause.alias] = item
                out_rows.append(new_row)
        return BindingTable(out_columns, out_rows)

    # -- WITH / RETURN ----------------------------------------------------

    def _project(
        self, clause: Union[ast.With, ast.Return], table: BindingTable, is_with: bool
    ) -> BindingTable:
        items = clause.items
        aggregated = any(item.aggregated for item in items)
        columns = [item.column for item in items]
        if len(set(columns)) != len(columns):
            raise CypherSyntaxError("duplicate column name in projection")

        if aggregated:
            projected = self._project_aggregated(items, table)
        else:
            projected_rows: List[Row] = []
            for row in table.rows:
                projected_rows.append(
                    {
                        col: self.evaluator.evaluate(item.expression, row)
                        for col, item in zip(columns, items)
                    }
                )
            projected = BindingTable(columns, projected_rows)
            if clause.distinct:
                projected = projected.distinct()

        if aggregated and clause.distinct:
            projected = projected.distinct()

        # ORDER BY sees the projected columns (aliases) first, falling back
        # to the pre-projection variables for non-aggregated projections.
        if clause.order_by:
            if aggregated:
                envs = [dict(row) for row in projected.rows]
            else:
                envs = []
                original_rows = table.rows if not clause.distinct else None
                # After DISTINCT the original rows no longer line up; order
                # by the projected values only.
                if original_rows is not None and len(original_rows) == len(projected.rows):
                    for orig, proj in zip(original_rows, projected.rows):
                        env = dict(orig)
                        env.update(proj)
                        envs.append(env)
                else:
                    envs = [dict(row) for row in projected.rows]

            def sort_key(pair):
                env = pair[1]
                keys = []
                for order in clause.order_by:
                    value = self.evaluator.evaluate(order.expression, env)
                    key = V.order_key(value)
                    keys.append((key, order.descending))
                return keys

            indexed = list(zip(projected.rows, envs))
            # Stable multi-key sort: apply keys right-to-left.
            for order in reversed(clause.order_by):
                indexed.sort(
                    key=lambda pair, o=order: V.order_key(
                        self.evaluator.evaluate(o.expression, pair[1])
                    ),
                    reverse=order.descending,
                )
            projected = BindingTable(projected.columns, [row for row, _env in indexed])

        projected = self._skip_limit(clause, projected)

        if is_with and clause.where is not None:
            kept = [
                row
                for row in projected.rows
                if self.evaluator.evaluate_predicate(clause.where, row) is True
            ]
            projected = BindingTable(projected.columns, kept)
        return projected

    def _skip_limit(self, clause, table: BindingTable) -> BindingTable:
        rows = table.rows
        if clause.skip is not None:
            count = self._count_argument(clause.skip, "SKIP")
            rows = rows[count:]
        if clause.limit is not None:
            count = self._count_argument(clause.limit, "LIMIT")
            rows = rows[:count]
        return BindingTable(table.columns, rows)

    def _count_argument(self, expr: ast.Expression, keyword: str) -> int:
        value = self.evaluator.evaluate(expr, {})
        if isinstance(value, bool) or not isinstance(value, int) or value < 0:
            raise CypherSyntaxError(
                f"{keyword} requires a non-negative integer literal"
            )
        return value

    # -- aggregation ------------------------------------------------------

    def _project_aggregated(
        self, items: Sequence[ast.ProjectionItem], table: BindingTable
    ) -> BindingTable:
        columns = [item.column for item in items]
        group_items = [
            (col, item) for col, item in zip(columns, items) if not item.aggregated
        ]

        groups: Dict[tuple, Dict[str, Any]] = {}
        for row in table.rows:
            key_values = {
                col: self.evaluator.evaluate(item.expression, row)
                for col, item in group_items
            }
            key = tuple(V.equivalence_key(key_values[col]) for col, _ in group_items)
            bucket = groups.setdefault(
                key, {"key_values": key_values, "rows": []}
            )
            bucket["rows"].append(row)

        if not groups and not group_items:
            # Aggregation over zero rows with no grouping keys yields one row.
            groups[()] = {"key_values": {}, "rows": []}

        out_rows: List[Row] = []
        for bucket in groups.values():
            out_row: Row = {}
            for col, item in zip(columns, items):
                if item.aggregated:
                    out_row[col] = self._eval_aggregate_expr(
                        item.expression, bucket["rows"]
                    )
                else:
                    out_row[col] = bucket["key_values"][col]
            out_rows.append(out_row)
        return BindingTable(columns, out_rows)

    def _eval_aggregate_expr(self, expr: ast.Expression, rows: List[Row]) -> Any:
        """Evaluate an expression that contains aggregate calls over *rows*."""
        if isinstance(expr, ast.CountStar):
            return len(rows)
        if isinstance(expr, ast.FunctionCall) and is_aggregate(expr.name):
            return self._aggregate(expr, rows)
        if not has_aggregate(expr):
            # Constant w.r.t. the group (grouping keys are handled upstream);
            # evaluate against a representative row.
            env = rows[0] if rows else {}
            return self.evaluator.evaluate(expr, env)

        # Rebuild the expression with aggregate sub-terms replaced by their
        # computed values.
        if isinstance(expr, ast.Unary):
            inner = self._eval_aggregate_expr(expr.operand, rows)
            return self.evaluator.evaluate(
                ast.Unary(expr.op, ast.Literal(inner)), {}
            )
        if isinstance(expr, ast.Binary):
            left = self._eval_aggregate_expr(expr.left, rows)
            right = self._eval_aggregate_expr(expr.right, rows)
            return self.evaluator.evaluate(
                ast.Binary(expr.op, _as_literal(left), _as_literal(right)), {}
            )
        raise CypherSyntaxError(
            "unsupported aggregate expression shape: "
            f"{type(expr).__name__}"
        )

    def _aggregate(self, call: ast.FunctionCall, rows: List[Row]) -> Any:
        name = call.name.lower()
        if name == "count" and not call.args:
            return len(rows)
        if len(call.args) != 1:
            raise CypherSyntaxError(f"{call.name}() takes exactly one argument")

        values = []
        for row in rows:
            value = self.evaluator.evaluate(call.args[0], row)
            if value is not None:
                values.append(value)
        if call.distinct:
            seen = set()
            unique = []
            for value in values:
                key = V.equivalence_key(value)
                if key not in seen:
                    seen.add(key)
                    unique.append(value)
            values = unique

        if name == "count":
            return len(values)
        if name == "collect":
            return values
        if name == "sum":
            total: Any = 0
            for value in values:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise CypherTypeError("sum() requires numbers")
                total = total + value
            return total
        if name == "avg":
            if not values:
                return None
            for value in values:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise CypherTypeError("avg() requires numbers")
            return sum(values) / len(values)
        if name in ("min", "max"):
            if not values:
                return None
            ordered = sorted(values, key=V.order_key)
            return ordered[0] if name == "min" else ordered[-1]
        if name in ("stdev", "stdevp"):
            numbers = []
            for value in values:
                if isinstance(value, bool) or not isinstance(value, (int, float)):
                    raise CypherTypeError(f"{name}() requires numbers")
                numbers.append(float(value))
            if len(numbers) < 2:
                return 0.0
            if name == "stdev":
                return statistics.stdev(numbers)
            return statistics.pstdev(numbers)
        raise CypherSyntaxError(f"unknown aggregate {call.name}()")

    # -- CALL ----------------------------------------------------------

    def _call(self, clause: ast.Call, table: BindingTable) -> BindingTable:
        proc = self.procedures.get(clause.procedure)
        if proc is None:
            raise CypherRuntimeError(
                f"there is no procedure named `{clause.procedure}`"
            )
        args = [self.evaluator.evaluate(arg, {}) for arg in clause.args]
        proc_columns, proc_rows = proc(self.graph, args)

        if clause.yield_items:
            selected = []
            for name, alias in clause.yield_items:
                if name not in proc_columns:
                    raise CypherSyntaxError(
                        f"procedure `{clause.procedure}` does not yield `{name}`"
                    )
                selected.append((proc_columns.index(name), alias or name))
        else:
            selected = [(index, name) for index, name in enumerate(proc_columns)]

        out_columns = table.columns + [alias for _idx, alias in selected]
        out_rows: List[Row] = []
        for row in table.rows:
            for proc_row in proc_rows:
                new_row = dict(row)
                for index, alias in selected:
                    new_row[alias] = proc_row[index]
                out_rows.append(new_row)
        return BindingTable(out_columns, out_rows)

    # -- write clauses (graph initializer) --------------------------------

    def _create(self, clause: ast.Create, table: BindingTable) -> BindingTable:
        new_vars: List[str] = []
        for pattern in clause.patterns:
            for name in pattern.variables():
                if name not in table.columns and name not in new_vars:
                    new_vars.append(name)
        out_rows: List[Row] = []
        for row in table.rows:
            merged = dict(row)
            for pattern in clause.patterns:
                self._create_pattern(pattern, merged)
            out_rows.append(merged)
        return BindingTable(table.columns + new_vars, out_rows)

    def _create_pattern(self, pattern: ast.PathPattern, row: Row) -> None:
        nodes: List[Node] = []
        for node_pattern in pattern.nodes:
            if node_pattern.variable and node_pattern.variable in row:
                existing = row[node_pattern.variable]
                if not isinstance(existing, Node):
                    raise CypherTypeError(
                        f"variable `{node_pattern.variable}` is not a node"
                    )
                nodes.append(existing)
                continue
            properties = {}
            if node_pattern.properties is not None:
                properties = {
                    key: self.evaluator.evaluate(value, row)
                    for key, value in node_pattern.properties.items
                }
            node = self.graph.add_node(node_pattern.labels, properties)
            if node_pattern.variable:
                row[node_pattern.variable] = node
            nodes.append(node)

        for index, rel_pattern in enumerate(pattern.relationships):
            if rel_pattern.direction == ast.BOTH:
                raise CypherSyntaxError("CREATE requires directed relationships")
            if len(rel_pattern.types) != 1:
                raise CypherSyntaxError("CREATE requires exactly one relationship type")
            properties = {}
            if rel_pattern.properties is not None:
                properties = {
                    key: self.evaluator.evaluate(value, row)
                    for key, value in rel_pattern.properties.items
                }
            source, target = nodes[index], nodes[index + 1]
            if rel_pattern.direction == ast.IN:
                source, target = target, source
            rel = self.graph.add_relationship(
                source.id, target.id, rel_pattern.types[0], properties
            )
            if rel_pattern.variable:
                row[rel_pattern.variable] = rel

    def _set(self, clause: ast.SetClause, table: BindingTable) -> BindingTable:
        for row in table.rows:
            for item in clause.items:
                target = row.get(item.subject)
                if target is None:
                    continue
                if not isinstance(target, (Node, Relationship)):
                    raise CypherTypeError(
                        f"SET requires a node or relationship, got "
                        f"{V.type_name(target)}"
                    )
                value = self.evaluator.evaluate(item.value, row)
                if value is None:
                    target.properties.pop(item.key, None)
                else:
                    target.properties[item.key] = value
        # SET mutates properties in place, bypassing the structural mutators
        # that normally drop the graph's cached views.
        self.graph.invalidate_property_index()
        return table

    def _delete(self, clause: ast.Delete, table: BindingTable) -> BindingTable:
        deleted_nodes = set()
        deleted_rels = set()
        for row in table.rows:
            for expr in clause.expressions:
                target = self.evaluator.evaluate(expr, row)
                if target is None:
                    continue
                if isinstance(target, Relationship):
                    if target.id not in deleted_rels:
                        self.graph.remove_relationship(target.id)
                        deleted_rels.add(target.id)
                elif isinstance(target, Node):
                    if target.id in deleted_nodes:
                        continue
                    if clause.detach:
                        self.graph.detach_delete_node(target.id)
                    else:
                        self.graph.remove_node(target.id)
                    deleted_nodes.add(target.id)
                else:
                    raise CypherTypeError("DELETE requires a node or relationship")
        return table

    def _remove(self, clause: ast.Remove, table: BindingTable) -> BindingTable:
        for row in table.rows:
            for item in clause.items:
                target = row.get(item.subject)
                if target is None:
                    continue
                if item.key is not None:
                    if not isinstance(target, (Node, Relationship)):
                        raise CypherTypeError("REMOVE requires an element")
                    target.properties.pop(item.key, None)
                else:
                    if not isinstance(target, Node):
                        raise CypherTypeError("REMOVE label requires a node")
                    # Route through the graph so the label index stays in
                    # sync with the node's rebuilt label set.
                    self.graph.set_node_labels(
                        target.id, target.labels - {item.label}
                    )
        # REMOVE mutates properties in place, like SET above.
        self.graph.invalidate_property_index()
        return table

    def _merge(self, clause: ast.Merge, table: BindingTable) -> BindingTable:
        new_vars = [
            name
            for name in clause.pattern.variables()
            if name not in table.columns
        ]
        out_rows: List[Row] = []
        for row in table.rows:
            matches = self.matcher.collect((clause.pattern,), row)
            if matches:
                out_rows.extend(matches)
            else:
                merged = dict(row)
                self._create_pattern(clause.pattern, merged)
                out_rows.append(merged)
        return BindingTable(table.columns + new_vars, out_rows)


def _as_literal(value: Any) -> ast.Expression:
    """Wrap a computed value so it can re-enter the evaluator."""
    if isinstance(value, list):
        return ast.ListLiteral(tuple(_as_literal(item) for item in value))
    return ast.Literal(value)
